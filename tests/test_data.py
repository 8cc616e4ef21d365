import json
import os

import numpy as np
import pytest

from debias import data


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
    labels = m.label_matrix()
    both = int(np.sum((labels[:, 0] == 1) & (labels[:, 1] == 1)))
    only_b = int(np.sum((labels[:, 0] == 1) & (labels[:, 1] == 0)))
    assert both == 95
    assert only_b == 5
    assert all(sum(s.labels) >= 1 for s in m.samples)


def test_zero_noise_single_category_is_mask_times_signature(tmp_path):
    cfg = tiny_config(noise=0.0, n_filler=0)
    m = data.generate_dataset(cfg, tmp_path)
    feats, labels = data.load_arrays(m)
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
    filler = [s.labels for s in man.samples[20:]]
    assert all(row == [0, 0, 0, 1] for row in filler)


def test_filler_pool_rejects_biased_category(tmp_path):
    cfg = tiny_config()
    cfg.filler_pool = [0, 2]
    with pytest.raises(ValueError, match="biased"):
        data.generate_dataset(cfg, tmp_path)
