import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest

from debias import bias, cli, data, model, train
from debias import eval as eval_mod


def tiny_config(seed=7, noise=0.1, n_filler=6):
    regions, sigs = data.build_layout(4, 4, 4, 8, seed=seed)
    return data.GenConfig(
        m=4,
        h=4,
        w=4,
        d_in=8,
        planted_pairs=[data.PlantedPair(0, 1, 0.05, 19, 1)],
        regions=regions,
        signatures=sigs,
        noise_std=noise,
        seed=seed,
        n_filler=n_filler,
    )


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_generation_is_byte_identical(tmp_path):
    cfg = tiny_config()
    a = tmp_path / "a"
    b = tmp_path / "b"
    data.generate_dataset(cfg, a)
    data.generate_dataset(cfg, b)
    assert read_bytes(a / "train.manifest.json") == read_bytes(b / "train.manifest.json")
    assert read_bytes(a / "train.store") == read_bytes(b / "train.store")


def test_planted_counts_exact(tmp_path):
    cfg = tiny_config(n_filler=10)
    cfg.planted_pairs = [data.PlantedPair(0, 1, 0.05, 95, 5)]
    m = data.generate_dataset(cfg, tmp_path)
    labels = m.labels
    both = int(np.sum((labels[:, 0] == 1) & (labels[:, 1] == 1)))
    only_b = int(np.sum((labels[:, 0] == 1) & (labels[:, 1] == 0)))
    assert both == 95
    assert only_b == 5
    assert labels.dtype == np.int64 and (labels.sum(axis=1) >= 1).all()


def test_empty_manifest_labels_are_n_by_m():
    # a manifest without samples used to give shape (0,), so a category column failed to index
    doc = {"categories": ["a", "b", "c"], "h": 4, "w": 4, "d_in": 8, "samples": []}
    m = data.DatasetManifest.from_dict(doc)
    assert m.labels.shape == (0, 3) and m.labels.dtype == np.int64


def test_zero_noise_single_category_is_mask_times_signature(tmp_path):
    cfg = tiny_config(noise=0.0, n_filler=0)
    m = data.generate_dataset(cfg, tmp_path)
    labels = m.labels
    feats = data.load_maps(m, range(len(m.samples)))
    assert feats.dtype == np.float32  # held as stored
    # exclusive sample: only category 0 present
    i = int(np.argwhere((labels[:, 0] == 1) & (labels[:, 1] == 0))[0][0])
    fmap = feats[i].reshape(4, 4, 8)
    r0, c0, r1, c1 = cfg.regions[0]
    sig32 = np.asarray(cfg.signatures[0], dtype=np.float32).astype(np.float64)
    expect = np.zeros((4, 4, 8))
    expect[r0:r1, c0:c1, :] = sig32  # float32 store round-trip
    assert np.array_equal(fmap, expect)


def test_store_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    arrays = [rng.normal(size=(3, 5)), rng.normal(size=(2, 2, 2))]
    path = tmp_path / "t.store"
    offsets = data.write_store(path, arrays)
    raw = path.read_bytes()
    assert raw[:4] == data.STORE_MAGIC and offsets == [4, 4 + 15 * 4]
    for arr, off in zip(arrays, offsets):
        loaded = np.frombuffer(raw, dtype="<f4", count=arr.size, offset=off)
        assert np.array_equal(loaded.reshape(arr.shape), arr.astype(np.float32))


def test_manifest_roundtrip(tmp_path):
    cfg = tiny_config()
    m = data.generate_dataset(cfg, tmp_path)
    loaded = data.load_manifest(tmp_path / "train.manifest.json")
    assert loaded.to_dict() == m.to_dict()
    assert loaded.root == str(tmp_path)
    assert [s.row for s in loaded.samples] == list(range(len(m.samples)))
    assert loaded.labels.dtype == np.int64 and np.array_equal(loaded.labels, m.labels)


@pytest.mark.parametrize("cfg", [tiny_config(), data.benchmark_configs(0.05, 1000, 2000, 3000)[1]],
                         ids=["tiny", "benchmark_test"])
def test_manifest_file_roundtrips_byte_for_byte(tmp_path, cfg):
    # the file's offsets and label lists are rebuilt from rows and the label array
    data.generate_dataset(cfg, tmp_path, "test")
    path = tmp_path / "test.manifest.json"
    data.dump_json(data.load_manifest(path).to_dict(), tmp_path / "again.json")
    assert read_bytes(tmp_path / "again.json") == read_bytes(path)


@pytest.mark.parametrize("key", ["labels", "root"])
def test_manifest_refuses_in_memory_fields_as_keys(tmp_path, key):
    data.generate_dataset(tiny_config(), tmp_path)
    path = tmp_path / "train.manifest.json"
    doc = json.loads(path.read_text())
    doc[key] = [] if key == "labels" else "/elsewhere"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"manifest: unknown keys \['{key}'\]"):
        data.load_manifest(path)


@pytest.mark.parametrize("bad", [2, -1, 1.0, True, "1", None])
def test_load_manifest_rejects_non_binary_labels(tmp_path, bad):
    # every pair split reads a label other than 1 as absent, so anything but
    # the integers 0 and 1 is refused where a manifest enters the program
    data.generate_dataset(tiny_config(), tmp_path)
    path = tmp_path / "train.manifest.json"
    doc = json.loads(path.read_text())
    doc["samples"][3]["labels"][1] = bad
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="labels must be the integers 0 or 1"):
        data.load_manifest(path)


@pytest.mark.parametrize("n,big,small", [(100, 80, 20), (5, 4, 1), (11, 8, 3)])
def test_split_sizes(n, big, small):
    tr, val = data.split_80_20(n, seed=5)
    assert len(tr) == big
    assert len(val) == small
    # disjoint and exhaustive
    assert np.array_equal(np.sort(np.concatenate([tr, val])), np.arange(n))


def test_split_deterministic_and_rejects_tiny():
    a1, b1 = data.split_80_20(40, seed=9)
    a2, b2 = data.split_80_20(40, seed=9)
    assert np.array_equal(a1, a2)
    assert np.array_equal(b1, b2)
    with pytest.raises(ValueError):
        data.split_80_20(4, seed=0)


def test_generate_rejects_bad_region():
    cfg = tiny_config()
    cfg.regions[2] = (3, 3, 6, 5)
    with pytest.raises(ValueError):
        data.generate_dataset(cfg, "/tmp/unused")


def test_generate_rejects_self_pair():
    cfg = tiny_config()
    cfg.planted_pairs = [data.PlantedPair(1, 1, 0.1, 9, 1)]
    with pytest.raises(ValueError):
        data.generate_dataset(cfg, "/tmp/unused")


def test_generate_rejects_overlapping_pair_regions():
    cfg = tiny_config()
    cfg.regions[1] = tuple(cfg.regions[0])
    with pytest.raises(ValueError):
        data.generate_dataset(cfg, "/tmp/unused")


def test_benchmark_configs_share_layout():
    train, test = data.benchmark_configs(0.05, layout_seed=1, train_seed=2, test_seed=3)
    assert train.regions == test.regions
    assert train.signatures == test.signatures
    pair = train.planted_pairs[0]
    assert pair.cooccur_count == 475 and pair.exclusive_count == 25
    total = sum(p.cooccur_count + p.exclusive_count for p in train.planted_pairs)
    assert total + train.n_filler == 2000
    # every category gets an equal block; pair regions stay disjoint
    areas = {(r[2] - r[0]) * (r[3] - r[1]) for r in train.regions}
    assert len(areas) == 1
    # train filler never emits a pair category, test filler may emit contexts
    paired = {k for bc in data.BENCH_PAIRS for k in bc}
    assert set(train.filler_pool) == set(range(data.BENCH_M)) - paired
    assert test.filler_pool is None


def test_filler_pool_restricts_labels(tmp_path):
    cfg = tiny_config(n_filler=30)
    cfg.filler_pool = [3]
    man = data.generate_dataset(cfg, tmp_path)
    filler = man.labels[20:].tolist()
    assert all(row == [0, 0, 0, 1] for row in filler)


def test_filler_pool_rejects_biased_category(tmp_path):
    cfg = tiny_config()
    cfg.filler_pool = [0, 2]
    with pytest.raises(ValueError, match="biased"):
        data.generate_dataset(cfg, tmp_path)


# ---------------------------------------------------------------------------
# block-wise store reads


def stored_maps(m):
    """Every sample's (P, D_in) float32 maps, read from the store's bytes directly."""
    return np.frombuffer(read_bytes(m.store_path()), dtype="<f4", offset=4).reshape(
        -1, m.h * m.w, m.d_in
    )[[s.row for s in m.samples]]


@pytest.mark.parametrize("block", [data.BLOCK, 7])
def test_load_pooled_equals_pooling_all_maps(tmp_path, monkeypatch, block):
    # 320 samples: not a multiple of either block size
    monkeypatch.setattr(data, "BLOCK", block)
    m = data.generate_dataset(tiny_config(n_filler=300), tmp_path)
    reads = []
    read_into = data._read_into
    monkeypatch.setattr(data, "_read_into", lambda *a: reads.append(a) or read_into(*a))
    pooled = data.load_pooled(m)
    assert pooled.dtype == np.float64 and pooled.shape == (320, 8)
    assert pooled.tobytes() == model.pool_pixels(stored_maps(m)).tobytes()
    assert len(reads) == -(-320 // block)  # a back-to-back block is one read

    # dropping the co-occurring samples leaves gaps in the rows
    gapped = train.transform_dataset(m, "remove_cooccur_images", [(0, 1)])
    assert len(gapped.samples) == 301
    assert data.load_pooled(gapped).tobytes() == model.pool_pixels(stored_maps(gapped)).tobytes()


def test_remove_cooccur_images_subset_keeps_parent_rows(tmp_path):
    m = data.generate_dataset(tiny_config(n_filler=30), tmp_path)
    co = (m.labels[:, 0] == 1) & (m.labels[:, 1] == 1)
    out = train.transform_dataset(m, "remove_cooccur_images", [(0, 1)])
    assert [s.row for s in out.samples] == np.flatnonzero(~co).tolist()
    assert [s.id for s in out.samples] == [f"s{i:06d}" for i in np.flatnonzero(~co)]
    assert np.array_equal(out.labels, m.labels[~co])


def test_load_maps_reads_the_slots_of_non_contiguous_rows(tmp_path):
    m = data.generate_dataset(tiny_config(n_filler=30), tmp_path)
    raw = read_bytes(m.store_path())
    slot = m.h * m.w * m.d_in * 4
    rows = [31, 2, 3, 4, 17, 49, 0]
    sub = dataclasses.replace(m, samples=[m.samples[r] for r in rows], labels=m.labels[rows])
    want = b"".join(raw[4 + r * slot : 4 + (r + 1) * slot] for r in rows)
    assert data.load_maps(sub, range(len(rows))).tobytes() == want
    assert data.load_maps(sub, [4, 0]).tobytes() == want[4 * slot : 5 * slot] + want[:slot]


def test_load_maps_returns_the_given_rows(tmp_path):
    m = data.generate_dataset(tiny_config(n_filler=30), tmp_path)
    rows = [17, 0, 3, 3, 49]
    maps = data.load_maps(m, rows)
    assert maps.dtype == np.float32 and maps.shape == (5, 16, 8)
    assert maps.tobytes() == stored_maps(m)[rows].tobytes()
    assert data.load_maps(m, range(12, 20)).tobytes() == stored_maps(m)[12:20].tobytes()
    assert data.load_maps(m, []).shape == (0, 16, 8)


def test_load_maps_reads_each_run_of_rows_once(tmp_path, monkeypatch):
    # the CAM stage's rows at the paper's fraction: the co-occurring samples
    # of the two planted pairs, two runs of back-to-back slots in the store
    train_cfg, _ = data.benchmark_configs(0.05, 1000, 2000, 3000)
    m = data.generate_dataset(train_cfg, tmp_path)
    labels = m.labels
    rows = np.flatnonzero(bias.pair_splits(labels, data.BENCH_PAIRS)[0].any(axis=1))
    assert len(rows) == 950
    reads = []
    read_into = data._read_into
    monkeypatch.setattr(data, "_read_into", lambda *a: reads.append(a) or read_into(*a))
    maps = data.load_maps(m, rows)
    assert len(reads) == 2
    assert maps.tobytes() == stored_maps(m)[rows].tobytes()


def test_truncated_store_is_refused(tmp_path, capsys):
    m = data.generate_dataset(tiny_config(), tmp_path / "test", "test")
    run = model.RunRecord(method="standard", seed=0, config_hash="", pairs=[[0, 1, 1.0]],
                          category_map=None)
    model.save_checkpoint(str(tmp_path / "checkpoint.json"), model.init_params(8, 4, 4, 0), run)
    store = m.store_path()
    with open(store, "r+b") as fh:
        fh.truncate(os.path.getsize(store) - 4)
    with pytest.raises(ValueError, match="truncated read"):
        data.load_pooled(m)
    with pytest.raises(ValueError, match="truncated read"):
        data.load_maps(m, [len(m.samples) - 1])
    rc = cli.main(["eval", "--checkpoint", str(tmp_path), "--data", str(tmp_path / "test"),
                   "--out", str(tmp_path / "eval")])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 2 and len(err) == 1 and "bytes, expected" in err[0]


def test_evaluate_holds_pooled_rows_not_the_store(tmp_path):
    # evaluation memory, the pooled read included, grows with N * D_in: on a
    # 2,000-sample set it peaks well below the store's size
    train_cfg, _ = data.benchmark_configs(0.05, 1000, 2000, 3000)
    data.generate_dataset(train_cfg, tmp_path)
    m = data.load_manifest(tmp_path / "train.manifest.json")
    params = model.init_params(data.BENCH_D_IN, 64, data.BENCH_M, 0)
    tracemalloc.start()
    try:
        eval_mod.evaluate(params, m, data.load_pooled(m), list(data.BENCH_PAIRS))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(m.samples) == 2000
    assert peak < os.path.getsize(m.store_path()) / 4


# ---------------------------------------------------------------------------
# block-wise generation


def per_sample_store(cfg):
    """(store bytes, sample labels) of `cfg` written one sample at a time.

    The labels are planned first; then each sample starts from zeros, adds
    its categories' signatures in ascending order, then its own noise draw.
    """
    rng = np.random.default_rng(cfg.seed)
    label_sets = []
    for p in cfg.planted_pairs:
        label_sets += [{p.biased, p.context}] * p.cooccur_count + [{p.biased}] * p.exclusive_count
    blocked = {p.biased for p in cfg.planted_pairs}
    allowed = sorted(set(cfg.filler_pool)) if cfg.filler_pool is not None else [
        k for k in range(cfg.m) if k not in blocked]
    for _ in range(cfg.n_filler):
        count = int(rng.integers(1, min(cfg.filler_max_labels, len(allowed)) + 1))
        label_sets.append(set(rng.choice(allowed, size=count, replace=False).tolist()))
    out = [data.STORE_MAGIC]
    for present in label_sets:
        fmap = np.zeros((cfg.h, cfg.w, cfg.d_in))
        for k in sorted(present):
            r0, c0, r1, c1 = cfg.regions[k]
            fmap[r0:r1, c0:c1, :] += np.asarray(cfg.signatures[k])
        if cfg.noise_std > 0:
            fmap += rng.normal(0.0, cfg.noise_std, size=fmap.shape)
        out.append(fmap.astype("<f4").tobytes())
    labels = [[int(k in s) for k in range(cfg.m)] for s in label_sets]
    return b"".join(out), labels


def overlapping_config(noise):
    # filler categories 2 and 3 cover category 1's block and each other, so a
    # pixel can sum three signatures before its noise. Their signatures are
    # +-1e12 times one vector: they cancel exactly when added in turn from
    # zero, but a smaller term added before them loses its low bits, so the
    # order of the additions shows even after the float32 cast
    cfg = tiny_config(noise=noise, n_filler=40)
    cfg.regions = [(0, 0, 2, 2), (2, 2, 4, 4), (0, 0, 4, 4), (1, 1, 4, 4)]
    big = 1e12 * np.asarray(cfg.signatures[2])
    cfg.signatures = cfg.signatures[:2] + [list(big), list(-big)]
    return cfg


@pytest.mark.parametrize("cfg", [
    data.benchmark_configs(0.05, 1000, 2000, 3000)[0],
    overlapping_config(0.3),
    overlapping_config(0.0),
], ids=["benchmark", "overlapping", "overlapping_no_noise"])
def test_generation_equals_per_sample_reference(tmp_path, cfg):
    m = data.generate_dataset(cfg, tmp_path)
    want, labels = per_sample_store(cfg)
    assert read_bytes(tmp_path / "train.store") == want
    assert m.labels.tolist() == labels
    assert [s.row for s in m.samples] == list(range(len(labels)))
    doc = json.loads((tmp_path / "train.manifest.json").read_text())
    assert [s["labels"] for s in doc["samples"]] == labels
    slot = cfg.h * cfg.w * cfg.d_in * 4
    assert [s["offset"] for s in doc["samples"]] == [4 + i * slot for i in range(len(labels))]
