import dataclasses
import math

import numpy as np
import pytest

from debias import bias as bias_mod
from debias import cli, data, losses, train
from debias import model as mdl


def tiny_benchmark(out_dir, seed=0, co=24, ex=8, filler=16, noise=0.15):
    """4 categories on a 4x4 grid, one planted pair (0, 1), ~48 samples."""
    regions, sigs = data.build_layout(4, 4, 4, 8, seed=seed)
    cfg = data.GenConfig(
        m=4,
        h=4,
        w=4,
        d_in=8,
        planted_pairs=[data.PlantedPair(0, 1, ex / (co + ex), co, ex)],
        regions=regions,
        signatures=sigs,
        noise_std=noise,
        seed=seed + 1,
        n_filler=filler,
    )
    return data.generate_dataset(cfg, str(out_dir))


def tiny_cfg(method="standard", **over):
    base = dict(
        method=method,
        stage1_epochs=3,
        stage2_epochs=3,
        batch_size=16,
        k=1,
        freq_threshold=0.1,
        mixer_width=8,
        seed=7,
    )
    base.update(over)
    return train.TrainConfig(**base)


def pin_pair(artifacts, b=0, c=1):
    artifacts.pairs = [bias_mod.BiasPair(b, c, 5.0)]
    return artifacts


def test_config_roundtrip():
    cfg = tiny_cfg("weighted_loss", lambda1=0.3)
    d = cfg.to_dict()
    assert set(d) == {f.name for f in dataclasses.fields(train.TrainConfig)}
    assert type(d["sgd_stage1"]) is dict and type(d["sgd_stage2"]) is dict
    again = train.TrainConfig.from_dict(d)
    assert again == cfg

    with pytest.raises(ValueError):
        train.TrainConfig(method="dropout")
    with pytest.raises(ValueError):
        train.TrainConfig(mixer_width=7)
    with pytest.raises(ValueError):
        train.TrainConfig.from_dict({"methodd": "standard"})


def test_stage1_zero_epochs_is_seeded_init(tmp_path):
    manifest = tiny_benchmark(tmp_path)
    cfg = tiny_cfg(stage1_epochs=0)
    arts = train.train_stage1(manifest, cfg)
    expected = mdl.init_params(8, cfg.mixer_width, 4, arts.seeds["init"])
    assert np.array_equal(arts.params.mixer, expected.mixer)
    assert np.array_equal(arts.params.head, expected.head)
    assert arts.loss_curve == []


def test_stage2_zero_epochs_keeps_weights(tmp_path):
    manifest = tiny_benchmark(tmp_path)
    arts = train.train_stage1(manifest, tiny_cfg())
    out = train.train_stage2(arts, manifest, tiny_cfg(stage2_epochs=0))
    assert np.array_equal(out.params.mixer, arts.params.mixer)
    assert np.array_equal(out.params.head, arts.params.head)
    assert out.params.head is not arts.params.head  # input left intact


def test_bitwise_determinism(tmp_path):
    manifest = tiny_benchmark(tmp_path)
    a = train.run_training(manifest, tiny_cfg())
    b = train.run_training(manifest, tiny_cfg())
    assert np.array_equal(a.params.mixer, b.params.mixer)
    assert np.array_equal(a.params.head, b.params.head)
    assert a.loss_curve == b.loss_curve


def test_cam_with_zero_weights_matches_standard(tmp_path):
    # the ours_cam objective must collapse to plain BCE when both weights are off
    manifest = tiny_benchmark(tmp_path)
    std = train.run_training(manifest, tiny_cfg("standard"))
    cam = train.run_training(manifest, tiny_cfg("ours_cam", lambda1=0.0, lambda2=0.0))
    assert np.array_equal(std.params.mixer, cam.params.mixer)
    assert np.array_equal(std.params.head, cam.params.head)


def test_cam_objective_moves_weights(tmp_path):
    manifest = tiny_benchmark(tmp_path)
    std = train.run_training(manifest, tiny_cfg("standard"))
    cam = train.run_training(manifest, tiny_cfg("ours_cam"))
    assert not np.array_equal(std.params.head, cam.params.head)
    assert np.isfinite(cam.params.head).all()


def test_cam_grounding_is_zero_at_first_stage2_step(tmp_path):
    # stage 2 starts from the snapshot's own weights, so the frozen table
    # and the live maps agree to the bit and the first step's loss is its BCE
    manifest = tiny_benchmark(tmp_path)
    arts = pin_pair(train.train_stage1(manifest, tiny_cfg()))
    ground_only = dict(stage2_epochs=1, lambda1=0.0, lambda2=1.0)

    def first_loss(a):
        return next(e for e in a.step_log if e["stage"] == 2)["loss"]

    std = train.train_stage2(arts, manifest, tiny_cfg("standard", stage2_epochs=1))
    cam = train.train_stage2(arts, manifest, tiny_cfg("ours_cam", **ground_only))
    assert first_loss(cam) == first_loss(std)


def test_cam_plan_is_built_once_per_stage(tmp_path, monkeypatch):
    # each pair's co-occurring rows are fixed for the stage, so stage 2
    # splits the rows once however many epochs it runs, never per step
    manifest = tiny_benchmark(tmp_path)
    arts = pin_pair(train.train_stage1(manifest, tiny_cfg()))
    calls = []
    real = bias_mod.pair_splits
    monkeypatch.setattr(bias_mod, "pair_splits", lambda *a: calls.append(a) or real(*a))
    counts = []
    for epochs in (1, 3):
        calls.clear()
        out = train.train_stage2(arts, manifest, tiny_cfg("ours_cam", stage2_epochs=epochs))
        assert sum(e["stage"] == 2 for e in out.step_log) == 3 * epochs  # 48 rows, batch 16
        counts.append(len(calls))
    assert counts == [1, 1]


def test_exclusive_batches_never_touch_context_rows(tmp_path):
    # batch size 1 makes every exclusive sample an all-exclusive batch
    manifest = tiny_benchmark(tmp_path)
    arts = pin_pair(train.train_stage1(manifest, tiny_cfg()))
    out = train.train_stage2(
        arts, manifest, tiny_cfg("ours_feature_split", stage2_epochs=2, batch_size=1)
    )
    steps = [e for e in out.step_log if e["stage"] == 2]
    excl = [e for e in steps if e["all_exclusive"]]
    plain = [e for e in steps if not e["all_exclusive"]]
    assert len(excl) == 2 * 8  # 8 exclusive samples, 2 epochs
    assert all(e["ctx_rows_delta"] == 0.0 for e in excl)
    assert any(e["ctx_rows_delta"] > 0.0 for e in plain)
    # skew weight: sqrt(24/8) < 3, so the floor applies
    assert max(e["max_weight"] for e in excl) == 3.0


def test_weighted_loss_factor_applied(tmp_path):
    manifest = tiny_benchmark(tmp_path)
    arts = pin_pair(train.train_stage1(manifest, tiny_cfg()))
    out = train.train_stage2(arts, manifest, tiny_cfg("weighted_loss"))
    steps = [e for e in out.step_log if e["stage"] == 2]
    assert max(e["max_weight"] for e in steps) == 10.0
    # every epoch touches all 8 exclusive samples exactly once
    per_epoch = sum(e["n_exclusive"] for e in steps) / 3
    assert per_epoch == 8


def test_negative_penalty_weight_applied(tmp_path):
    manifest = tiny_benchmark(tmp_path)
    arts = pin_pair(train.train_stage1(manifest, tiny_cfg()))
    out = train.train_stage2(
        arts, manifest, tiny_cfg("negative_penalty", negative_penalty_weight=10.0)
    )
    assert max(e["max_weight"] for e in out.step_log if e["stage"] == 2) == 10.0


@pytest.fixture(scope="module")
def quarter_cell(tmp_path_factory):
    """Every method for 1+1 epochs on the fraction-0.25 benchmark cell of seed 0."""
    work = tmp_path_factory.mktemp("quarter_cell")
    over = {"stage1_epochs": 1, "stage2_epochs": 1}
    return cli.run_benchmark_cell(0.25, 0, train.METHODS, str(work), over)


WEIGHT_FIELDS = {"n_exclusive", "max_weight"}
EXTRA_STEP_FIELDS = {
    "weighted_loss": WEIGHT_FIELDS,
    "negative_penalty": WEIGHT_FIELDS,
    "ours_feature_split": WEIGHT_FIELDS | {"all_exclusive", "ctx_rows_delta"},
}


@pytest.mark.parametrize("method", train.METHODS)
def test_stage2_step_log_fields(quarter_cell, method):
    # the fields each method adds to a step's entry, beyond the ones every step logs
    steps = [e for e in quarter_cell.artifacts[method].step_log if e["stage"] == 2]
    assert steps
    extra = EXTRA_STEP_FIELDS.get(method, set())
    for entry in steps:
        assert set(entry) == {"stage", "method", "epoch", "lr", "loss"} | extra, entry


def test_stage2_requires_pairs_and_snapshot(tmp_path):
    manifest = tiny_benchmark(tmp_path)
    arts = train.train_stage1(manifest, tiny_cfg())
    arts.pairs = []
    with pytest.raises(ValueError, match="biased pairs"):
        train.train_stage2(arts, manifest, tiny_cfg("weighted_loss"))

    # the CAM snapshot is built from the pairs, so ours_cam needs them too
    with pytest.raises(ValueError, match="biased pairs"):
        train.train_stage2(arts, manifest, tiny_cfg("ours_cam"))


def test_stage2_refuses_a_manifest_that_is_not_the_whole_store(tmp_path):
    # stage 2 gathers stage 1's pooled rows by store row; the same samples in
    # another order used to train on rows whose labels belong to other samples
    manifest = tiny_benchmark(tmp_path)
    arts = pin_pair(train.train_stage1(manifest, tiny_cfg()))
    reordered = dataclasses.replace(
        manifest, samples=manifest.samples[::-1], labels=manifest.labels[::-1])
    subset = train.transform_dataset(manifest, "remove_cooccur_images", [(0, 1)])
    for other in (reordered, subset):
        with pytest.raises(ValueError, match="stage 1 read from the same whole store"):
            train.train_stage2(arts, other, tiny_cfg())


def test_pin_pairs_scores_and_keeps_empty_split_as_nan(tmp_path):
    manifest = tiny_benchmark(tmp_path)
    # filler never carries the biased category 0, so (0, 2) never co-occurs
    arts = train.train_stage1(manifest, tiny_cfg(), pinned=[(0, 1), (0, 2)])
    pinned = arts.pairs
    assert [(p.biased, p.context) for p in pinned] == [(0, 1), (0, 2)]
    labels = manifest.labels
    want = bias_mod.bias_score(mdl.predict(arts.params, data.load_pooled(manifest)), labels, 0, 1)
    assert pinned[0].score == want
    assert math.isnan(pinned[1].score)


# ---------------------------------------------------------------------------
# dataset transforms


def labels_manifest(rows, m=8):
    return data.DatasetManifest(
        categories=[f"cat{k}" for k in range(m)],
        h=2,
        w=2,
        d_in=2,
        samples=[data.SampleRef(f"s{i:04d}", i) for i in range(len(rows))],
        labels=np.array(rows, dtype=np.int64),
        generator_config={},
        split_tag="train",
        store=None,
        root=None,
    )


def transform_rows(n=100, co=37, m=8):
    # co samples with {0,1}, the rest alternate between {0} and {1, 2}
    rows = []
    for i in range(n):
        r = [0] * m
        if i < co:
            r[0] = r[1] = 1
        elif i % 2 == 0:
            r[0] = 1
        else:
            r[1] = r[2] = 1
        rows.append(r)
    return rows


def test_remove_cooccur_images_drops_exact_count():
    manifest = labels_manifest(transform_rows())
    out = train.transform_dataset(manifest, "remove_cooccur_images", [(0, 1)])
    assert len(out.samples) == 63
    matrix = out.labels
    assert not np.any((matrix[:, 0] == 1) & (matrix[:, 1] == 1))


def test_remove_cooccur_labels_clears_context_only_on_biased():
    manifest = labels_manifest(transform_rows())
    out = train.transform_dataset(manifest, "remove_cooccur_labels", [(0, 1)])
    assert len(out.samples) == 100
    matrix = out.labels
    before = manifest.labels
    assert matrix.sum() == before.sum() - 37  # one label cleared per co-occur row
    # samples with the context alone keep it
    solo_c = (before[:, 0] == 0) & (before[:, 1] == 1)
    assert np.array_equal(matrix[solo_c, 1], before[solo_c, 1])


def test_split_biased_appends_solo_categories():
    rows = transform_rows()
    manifest = labels_manifest(rows)
    pairs = [(0, 1), (2, 3)]
    out = train.transform_dataset(manifest, "split_biased", pairs)
    assert len(out.categories) == 10
    assert out.categories[8] == "cat0_solo"
    matrix = out.labels
    before = manifest.labels
    # exclusive rows moved to the solo column, co-occur rows stayed put
    excl = (before[:, 0] == 1) & (before[:, 1] == 0)
    assert np.array_equal(matrix[excl, 8], np.ones(excl.sum()))
    assert not matrix[excl, 0].any()
    both = (before[:, 0] == 1) & (before[:, 1] == 1)
    assert matrix[both, 0].all()
    assert not matrix[both, 8].any()

    with pytest.raises(ValueError, match="transform"):
        train.transform_dataset(manifest, "standard", pairs)


def per_sample_transform(rows, method, pairs, m):
    """(id, labels) kept by each baseline, written sample by sample from its docstring."""
    out = []
    for i, r in enumerate(rows):
        row = list(r) + [0] * (len(pairs) if method == "split_biased" else 0)
        kept = True
        for j, (b, c) in enumerate(pairs):  # in order, on the labels left so far
            if row[b] == 1 and row[c] == 1:  # co-occurring
                if method == "remove_cooccur_labels":
                    row[c] = 0
                elif method == "remove_cooccur_images":
                    kept = False
            elif row[b] == 1 and method == "split_biased":  # exclusive
                row[b], row[m + j] = 0, 1
        if kept:
            out.append((f"s{i:04d}", row))
    return out


@pytest.mark.parametrize("pairs", [
    [(0, 1), (1, 2)], [(1, 2), (0, 1)], [(0, 2), (1, 2)], [(3, 0), (0, 1), (1, 2)],
], ids=["chain", "chain_reversed", "shared_context", "chain_of_three"])
@pytest.mark.parametrize("method", train.TRANSFORM_METHODS)
def test_transforms_match_per_sample_definition(method, pairs):
    # every label combination of 4 categories, so each way the pairs can
    # interact on one row shows up
    rows = [[(i >> k) & 1 for k in range(4)] for i in range(16)]
    manifest = labels_manifest(rows, m=4)
    for i, s in enumerate(manifest.samples):  # samples in every third store slot
        s.row = 3 * i
    out = train.transform_dataset(manifest, method, pairs)
    want = per_sample_transform(rows, method, pairs, 4)
    assert [s.id for s in out.samples] == [i for i, _ in want]
    assert out.labels.dtype == np.int64 and out.labels.tolist() == [r for _, r in want]
    assert [s.row for s in out.samples] == [3 * int(i[1:]) for i, _ in want]
    solo = [f"cat{b}_solo" for b, _ in pairs] if method == "split_biased" else []
    assert out.categories == [f"cat{k}" for k in range(4)] + solo
    assert manifest.labels.tolist() == rows  # the input is left as it was


def test_split_biased_training_widens_head(tmp_path):
    manifest = tiny_benchmark(tmp_path)
    arts = pin_pair(train.train_stage1(manifest, tiny_cfg()))
    out = train.train_stage2(arts, manifest, tiny_cfg("split_biased"))
    assert out.params.head.shape == (8, 5)  # 4 categories + 1 solo column
    assert out.category_map == [(0, 4)]


# ---------------------------------------------------------------------------
# learning behaviour


def test_loss_decreases(tmp_path):
    manifest = tiny_benchmark(tmp_path, noise=0.1)
    out = train.run_training(manifest, tiny_cfg(stage1_epochs=6, stage2_epochs=2))
    assert out.loss_curve[-1] < out.loss_curve[0]


def test_all_methods_run(tmp_path):
    manifest = tiny_benchmark(tmp_path)
    for method in train.METHODS:
        out = train.run_training(
            manifest, tiny_cfg(method, stage1_epochs=2, stage2_epochs=1)
        )
        assert np.isfinite(out.params.mixer).all(), method
        assert np.isfinite(out.params.head).all(), method
        assert len(out.loss_curve) == 3, method


def test_cam_localizes_planted_region(tmp_path):
    # a briefly trained model should already place its strongest CAM
    # activations inside the region the category was planted in
    regions, sigs = data.build_layout(4, 8, 8, 16, seed=3)
    gen = data.GenConfig(
        m=4,
        h=8,
        w=8,
        d_in=16,
        planted_pairs=[],
        regions=regions,
        signatures=sigs,
        noise_std=0.1,
        seed=11,
        n_filler=160,
        filler_max_labels=2,
    )
    manifest = data.generate_dataset(gen, str(tmp_path))
    cfg = tiny_cfg(stage1_epochs=10, batch_size=32, mixer_width=16)
    arts = train.train_stage1(manifest, cfg)

    probe = np.zeros((8, 8, 16))
    r0, c0, r1, c1 = regions[2]
    probe[r0:r1, c0:c1, :] = np.array(sigs[2])
    cam = losses.cam_maps(arts.params, probe.reshape(1, 64, 16), 2)
    cam = cam.reshape(8, 8)
    top = cam >= np.quantile(cam, 0.75)
    planted = np.zeros((8, 8), dtype=bool)
    planted[r0:r1, c0:c1] = True
    iou = (top & planted).sum() / (top | planted).sum()
    assert iou > 0.5
