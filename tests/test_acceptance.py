"""Acceptance gate: one test and one printed verdict line per guarantee.

The experiment tests share one benchmark grid (5 seeds x 3 exclusive
fractions), built once per module. Run with -s to see the verdict lines on
passing runs. Budget for the whole module is well under ten minutes CPU.
"""

import filecmp
import json
import math
import time
from collections import deque

import numpy as np
import pytest

from debias import bias as bias_mod
from debias import cli, data
from debias import diffcore as dc
from debias import eval as ev
from debias import losses
from debias import model as mdl
from debias import train
from gradcheck import finite_diff_check

# Frozen from the 5-seed pilot: half the median exclusive-split margin of
# the feature-split method over standard training at fraction 0.05.
T_FS = 0.077

FRACTIONS = (0.05, 0.1, 0.25)
SEEDS = (0, 1, 2, 3, 4)
PLANTED = cli.PLANTED_PAIRS


def verdict(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# gradient correctness


def _check(objective, point, keep=None):
    """finite_diff_check of objective(point) -> (loss, grad dict) at `point`.

    `keep` names the parameters to check; by default all of them.
    """
    _, grads = objective(point)
    grads = {k: v for k, v in grads.items() if keep is None or k in keep}
    return finite_diff_check(lambda p: objective(p)[0], point, grads, eps=1e-5)


def test_gradients_match_finite_differences():
    t0 = time.time()
    h = w = 4
    d, m, d_in, n = 8, 6, 10, 3
    own, ctx = np.arange(d // 2), np.arange(d // 2, d)
    rng = np.random.default_rng(100)
    fm = rng.uniform(-1.0, 1.0, size=(n, h * w, d_in))
    t = (rng.random((n, m)) < 0.5).astype(float)
    t[0, 0], t[0, 1] = 1.0, 1.0  # pair (0, 1) present somewhere
    base = {
        "mixer": rng.uniform(-1.0, 1.0, size=(d_in, d)),
        "head": rng.uniform(-1.0, 1.0, size=(d, m)),
    }
    weights = np.repeat(np.array([1.0, 2.5, 1.5])[:, None], m, axis=1)  # per sample
    worst = {}

    def params_at(p):
        return mdl.ModelParams(p["mixer"], p["head"], own, ctx)

    def named(out):  # (loss, g_mixer, g_head) -> (loss, grads by name)
        return out[0], {"mixer": out[1], "head": out[2]}

    # every check below runs a function the training step calls
    pooled = mdl.pool_pixels(fm)
    worst["bce"] = _check(
        lambda p: named(losses.bce_objective(params_at(p), pooled, t)), base
    )
    worst["weighted_bce"] = _check(
        lambda p: named(losses.bce_objective(params_at(p), pooled, t, weights)), base
    )
    # The CAM losses normalize with a relu and a per-map max, which makes
    # three kink families: relu at raw zero, argmax ties, and |live - frozen|
    # zero crossings. An all-positive base point kills the first; one
    # dominant pixel per sample pins each map's argmax against eps probes.
    # Small weight scales keep raw maps O(1) and logits unsaturated, so the
    # central-difference noise floor (machine eps times the loss value over
    # 2 eps) stays well under the gradient components being checked.
    fm_pos = rng.uniform(0.5, 1.5, size=(n, h * w, d_in))
    for i in range(n):
        fm_pos[i, 3 * i + 1] += 1.5
    pos = {
        "mixer": rng.uniform(0.05, 0.15, size=(d_in, d)),
        "head": rng.uniform(0.1, 0.3, size=(d, m)),
    }

    def cam_part(which, frozen, lam1, lam2):
        def objective(p):
            # every sample counts for the pair: one segment of all n rows
            out = losses.cam_terms(params_at(p), [(0, 1)], fm_pos, [n], frozen, lam1, lam2)
            return out[which], {"mixer": out[2], "head": out[3]}
        return objective

    worst["overlap"] = _check(cam_part(0, None, 1.0, 0.0), pos)
    # grounding maps far outside [0, 1] keep the |.| terms off their kinks.
    # Both references sit on the same side: normalized maps live in [0, 1],
    # so opposite-side references make the term linear with gradient equal
    # to the *difference* of two near-identical map gradients, and that
    # cancellation would drown the check in finite-difference noise.
    pre = np.full((2, n, h * w), 2.0)
    worst["ground"] = _check(cam_part(1, pre, 0.0, 1.0), pos)

    # combined objective, the one training calls, on one sample grounded
    # against a frozen snapshot. The snapshot enters as a constant, so only
    # |live - frozen| crossings
    # matter; both maps normalize to a 1.0 peak, so a snapshot peaking on
    # the live peak's pixel would put one |.| term exactly on its kink.
    # Signed snapshot weights move its peak; scan until clearly separated.
    fm_one = fm_pos[:1]
    snap = None
    for probe in range(200):
        r2 = np.random.default_rng(1000 + probe)
        cand = losses.CamSnapshot(
            mdl.ModelParams(
                r2.uniform(-1.0, 1.0, size=(d_in, d)),
                r2.uniform(-1.0, 1.0, size=(d, m)),
                own, ctx,
            ),
            [(0, 1)],
        )
        gap = min(
            np.abs(
                losses.peak_normalize(losses.cam_maps(params_at(pos), fm_one, cat))[0].ravel()
                - cand.rows(fm_one, cat).ravel()
            ).min()
            for cat in (0, 1)
        )
        if gap > 1e-2:
            snap = cand
            break
    assert snap is not None, "no kink-free snapshot found"

    frozen = snap.table(fm_one, 64)[:, 0]  # the one pair's maps; sample 0 co-occurs for it
    worst["combined"] = _check(
        lambda p: named(losses.cam_objective(
            params_at(p), mdl.pool_pixels(fm_one), t[:1], [(0, 1)], fm_one, [1], frozen, 0.7, 0.3
        )),
        pos,
    )

    # suppressed path: a mixed batch checks every parameter that is supposed
    # to follow calculus; the context head rows sit behind a stop-gradient
    # there, so their own check runs on an all-plain mask
    xbar = rng.uniform(-1.0, 1.0, size=d // 2)
    split_base = {
        "mixer": base["mixer"],
        "head_own": base["head"][: d // 2],
        "head_ctx": base["head"][d // 2:],
    }

    def suppressed(mask):
        def objective(p):
            head = np.concatenate([p["head_own"], p["head_ctx"]], axis=0)
            buf = deque([xbar], maxlen=losses.CONTEXT_WINDOW)
            loss, g_mixer, g_head = losses.feature_split_objective(
                mdl.ModelParams(p["mixer"], head, own, ctx), pooled, t, weights, mask, buf
            )
            return loss, {
                "mixer": g_mixer, "head_own": g_head[: d // 2], "head_ctx": g_head[d // 2:]
            }
        return objective

    mixed = np.array([True, False, True])
    worst["suppressed_mixed"] = _check(
        suppressed(mixed), split_base, keep=("mixer", "head_own")
    )
    worst["suppressed_plain"] = _check(suppressed(np.zeros(n, bool)), split_base)

    elapsed = time.time() - t0
    worst_err = max(worst.values())
    ok = worst_err < 1e-6 and elapsed < 60
    verdict(
        "gradient-correctness", ok,
        f"max rel err {worst_err:.2e} over {len(worst)} losses in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# split-head identity


def test_split_head_identity():
    rng = np.random.default_rng(200)
    d_in, d, m, h, w = 10, 8, 6, 4, 4
    params = mdl.init_params(d_in, d, m, seed=201)
    n = 10_000
    feats = rng.uniform(-1.0, 1.0, size=(n, h * w, d_in))
    pooled, logits = mdl.forward_batch(params, mdl.pool_pixels(feats))
    split = (
        pooled[:, params.own_rows] @ params.head[params.own_rows]
        + pooled[:, params.context_rows] @ params.head[params.context_rows]
    )
    diff_np = np.abs(split - logits).max()

    buf = deque(maxlen=losses.CONTEXT_WINDOW)
    sup, _ = losses.suppressed_logits(params, pooled, np.zeros(n, bool), buf)
    diff_masked = np.abs(sup - logits).max()

    worst_err = max(diff_np, diff_masked)
    verdict(
        "split-identity", worst_err < 1e-12,
        f"max per-logit deviation {worst_err:.2e} over {n} instances",
    )


# ---------------------------------------------------------------------------
# suppression contract


def test_suppression_contract():
    params = mdl.init_params(10, 8, 6, seed=300)
    rng = np.random.default_rng(301)
    n = 5
    feats = rng.normal(size=(n, 16, 10))
    pooled = mdl.pool_pixels(feats)
    pairs = [(0, 1), (2, 3)]
    labels = np.zeros((n, 6))
    labels[:, 0] = 1.0  # every sample exclusive for (0, 1)
    labels[2, 4] = 1.0
    mask = bias_mod.pair_splits(labels, pairs)[1].any(axis=1)
    assert mask.all()

    buf = deque([rng.normal(size=4)], maxlen=losses.CONTEXT_WINDOW)
    ones = np.ones(labels.shape)
    _, g_mixer, g_head = losses.feature_split_objective(params, pooled, labels, ones, mask, buf)
    zeros_exact = np.array_equal(
        g_head[params.context_rows], np.zeros((4, 6))
    )

    before = params.head[params.context_rows].tobytes()
    _, stepped_head = dc.sgd_step((params.mixer, params.head), (g_mixer, g_head), lr=0.7)
    bits_kept = stepped_head[params.context_rows].tobytes() == before
    own_moved = not np.array_equal(
        stepped_head[params.own_rows], params.head[params.own_rows]
    )

    # non-exclusive batch: suppressed and plain paths agree on value and grads
    labels2 = np.zeros((n, 6))
    labels2[:, 1] = 1.0  # context alone is never exclusive
    mask2 = bias_mod.pair_splits(labels2, pairs)[1].any(axis=1)
    assert not mask2.any()
    ga = losses.feature_split_objective(params, pooled, labels2, ones, mask2, buf)
    gb = losses.bce_objective(params, pooled, labels2)
    mixed, plain_logits = mdl.forward_batch(params, pooled)
    sup_val, _ = losses.suppressed_logits(params, mixed, mask2, buf)
    agree = max(
        np.abs(sup_val - plain_logits).max(),
        abs(ga[0] - gb[0]),
        np.abs(ga[2] - gb[2]).max(),
        np.abs(ga[1] - gb[1]).max(),
    )

    ok = zeros_exact and bits_kept and own_moved and agree < 1e-12
    verdict(
        "suppression-contract", ok,
        f"ctx grad exact-zero={zeros_exact}, ctx bits kept={bits_kept}, "
        f"plain-path deviation {agree:.2e}",
    )


# ---------------------------------------------------------------------------
# bias metric


def brute_force_select(preds, labels, k, freq_threshold):
    n, m = labels.shape
    winners = []
    for b in range(m):
        n_b = int((labels[:, b] == 1).sum())
        if n_b == 0:
            continue
        candidates = []
        for z in range(m):
            if z == b:
                continue
            both = int(((labels[:, b] == 1) & (labels[:, z] == 1)).sum())
            if both < 1 or n_b - both < 1 or both / n_b < freq_threshold:
                continue
            candidates.append((bias_mod.bias_score(preds, labels, b, z), z))
        if candidates:
            best = max(candidates, key=lambda sz: (sz[0], -sz[1]))
            winners.append(bias_mod.BiasPair(b, best[1], best[0]))
    winners.sort(key=lambda p: (-p.score, p.biased))
    return winners[:k], len(winners) < k


def test_bias_score_properties():
    # hand case: 0.8 with context, 0.4 without -> exactly double
    labels = np.zeros((8, 2))
    labels[:, 0] = 1.0
    labels[:4, 1] = 1.0
    preds = np.full((8, 2), 0.5)
    preds[:4, 0] = 0.8
    preds[4:, 0] = 0.4
    hand = bias_mod.bias_score(preds, labels, 0, 1)
    hand_ok = hand == pytest.approx(2.0, abs=1e-12)

    scaled = bias_mod.bias_score(preds * 0.31, labels, 0, 1)
    scale_ok = scaled == pytest.approx(hand, rel=1e-12)

    # directional: high (0, 1) score, near-flat (1, 0) score
    rng = np.random.default_rng(400)
    n = 300
    lab = np.zeros((n, 4))
    lab[:200, 0] = 1.0
    lab[100:260, 1] = 1.0
    lab[:, 2] = rng.random(n) < 0.5
    pr = rng.uniform(0.1, 0.2, size=(n, 4))
    with_ctx = (lab[:, 0] == 1) & (lab[:, 1] == 1)
    pr[with_ctx, 0] = 0.9
    pr[lab[:, 1] == 1, 1] = 0.6  # flat in its own right
    fwd = bias_mod.bias_score(pr, lab, 0, 1)
    rev = bias_mod.bias_score(pr, lab, 1, 0)
    directional_ok = fwd > 3.0 and abs(rev - 1.0) < 0.15

    # selection matches brute force at M = 50
    m, n = 50, 600
    lab50 = (rng.random((n, m)) < 0.25).astype(float)
    pr50 = rng.uniform(0.01, 0.99, size=(n, m))
    got = bias_mod.select_biased_pairs(pr50, lab50, k=10, freq_threshold=0.2)
    want_pairs, want_shortfall = brute_force_select(pr50, lab50, 10, 0.2)
    brute_ok = got.pairs == want_pairs and got.shortfall == want_shortfall

    ok = hand_ok and scale_ok and directional_ok and brute_ok
    verdict(
        "bias-metric", ok,
        f"hand={hand:.12f}, scaled drift {abs(scaled - hand):.1e}, "
        f"fwd/rev {fwd:.2f}/{rev:.2f}, brute-force match={brute_ok}",
    )


# ---------------------------------------------------------------------------
# ranking metric oracles


def oracle_ap(scores, labels):
    n_pos = int(sum(labels))
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits, terms = 0, []
    for rank, i in enumerate(order, 1):
        if labels[i] == 1:
            hits += 1
            terms.append(hits / rank)
    return math.fsum(terms) / n_pos


def oracle_topk(scores, labels, k):
    n, m = scores.shape
    out = {}
    for j in range(m):
        pos = [i for i in range(n) if labels[i, j] == 1]
        if not pos:
            continue
        got = 0
        for i in pos:
            top = sorted(range(m), key=lambda q: (-scores[i, q], q))[: min(k, m)]
            got += j in top
        out[j] = got / len(pos)
    return out


def test_ranking_metric_oracles():
    rng = np.random.default_rng(500)
    ap_exact = 0
    for trial in range(200):
        n = int(rng.integers(2, 501))
        scores = rng.normal(size=n)
        if trial % 2:
            scores = np.round(scores, 1)  # force ties
        labels = (rng.random(n) < 0.3).astype(float)
        if labels.sum() == 0:
            labels[int(rng.integers(n))] = 1.0
        ap_exact += ev.average_precision(scores, labels) == oracle_ap(scores, labels)

    topk_exact = 0
    for _ in range(200):
        n = int(rng.integers(1, 60))
        m = int(rng.integers(2, 12))
        k = int(rng.integers(1, m + 3))
        scores = np.round(rng.normal(size=(n, m)), 1)
        labels = (rng.random((n, m)) < 0.3).astype(float)
        topk_exact += ev.topk_recall(scores, labels, k) == oracle_topk(
            scores, labels, k
        )

    ok = ap_exact == 200 and topk_exact == 200
    verdict(
        "metric-oracles", ok,
        f"ap exact {ap_exact}/200, topk exact {topk_exact}/200",
    )


# ---------------------------------------------------------------------------
# benchmark experiments (shared grid)


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    t0 = time.time()
    cells = {}
    for s in SEEDS:
        for f in FRACTIONS:
            methods = ["standard", "ours_feature_split"]
            if f == 0.05:
                methods.append("ours_cam")
            cells[(f, s)] = cli.run_benchmark_cell(
                f, s, methods, str(root / f"f{f}_s{s}")
            )
    return cells, time.time() - t0


def _gap(cell, method="ours_feature_split"):
    return (
        cell.reports[method].map_exclusive
        - cell.reports["standard"].map_exclusive
    )


def test_feature_split_beats_standard_on_exclusive(grid):
    cells, elapsed = grid
    gaps = [_gap(cells[(0.05, s)]) for s in SEEDS]
    # the co-occur split must not degrade; outperforming it is fine
    co_drops = [
        cells[(0.05, s)].reports["standard"].map_cooccur
        - cells[(0.05, s)].reports["ours_feature_split"].map_cooccur
        for s in SEEDS
    ]
    margin_hits = sum(g >= T_FS for g in gaps)
    co_ok = all(d <= 0.03 for d in co_drops)
    ok = margin_hits >= 4 and co_ok and elapsed < 600
    verdict(
        "feature-split-experiment", ok,
        f"margin>={T_FS} on {margin_hits}/5 seeds "
        f"(gaps {', '.join(f'{g:+.3f}' for g in gaps)}), "
        f"worst co-occur drop {max(co_drops):+.4f} <= 0.03, grid {elapsed:.0f}s",
    )


def cooccur_overlap(params, manifest):
    """The mean map overlap that CAM training minimizes (losses.cam_terms),
    over the co-occurring samples of the planted pairs in stack order."""
    labels = manifest.labels
    segments = [np.flatnonzero(co) for co in bias_mod.pair_splits(labels, PLANTED)[0].T]
    rows = data.load_maps(manifest, np.concatenate(segments))
    sizes = [len(seg) for seg in segments]
    return losses.cam_terms(params, PLANTED, rows, sizes, None, 1.0, 0.0)[0]


def test_cam_method_reduces_overlap(grid):
    cells, _ = grid
    wins, reductions = 0, []
    for s in SEEDS:
        cell = cells[(0.05, s)]
        wins += _gap(cell, "ours_cam") >= 0
        lo_std = cooccur_overlap(cell.artifacts["standard"].params, cell.test_manifest)
        lo_cam = cooccur_overlap(cell.artifacts["ours_cam"].params, cell.test_manifest)
        reductions.append(1.0 - lo_cam / lo_std)
    ok = wins >= 4 and all(r >= 0.25 for r in reductions)
    verdict(
        "cam-experiment", ok,
        f"exclusive wins {wins}/5, overlap reductions "
        f"{', '.join(f'{r:.0%}' for r in reductions)} (all >= 25%)",
    )


def test_feature_split_lowers_weight_cosine(grid):
    cells, _ = grid
    wins = sum(
        cells[(0.05, s)].reports["ours_feature_split"].mean_cosine
        < cells[(0.05, s)].reports["standard"].mean_cosine
        for s in SEEDS
    )
    verdict("cosine-direction", wins >= 4, f"cosine lower on {wins}/5 seeds")


def test_gap_shrinks_as_exclusive_fraction_grows(grid):
    cells, _ = grid
    medians = [
        float(np.median([_gap(cells[(f, s)]) for s in SEEDS])) for f in FRACTIONS
    ]
    ok = all(medians[i] >= medians[i + 1] for i in range(len(medians) - 1))
    verdict(
        "sweep-trend", ok,
        "median gaps " + " >= ".join(f"{v:.4f}" for v in medians),
    )


def test_baselines_run_end_to_end(grid):
    cells, _ = grid
    cell = cells[(0.05, 0)]
    man = cell.train_manifest
    labels = man.labels
    n = len(man.samples)

    cooccur_rows = np.zeros(n, dtype=bool)
    for b, c in PLANTED:
        cooccur_rows |= (labels[:, b] == 1) & (labels[:, c] == 1)
    removed = train.transform_dataset(man, "remove_cooccur_images", PLANTED)
    count_ok = len(removed.samples) == n - int(cooccur_rows.sum())

    results = {}
    for method in train.TRANSFORM_METHODS + ("weighted_loss", "negative_penalty"):
        cfg = cli.benchmark_recipe(method, seed=0, stage1_epochs=2, stage2_epochs=2)
        arts = train.run_training(man, cfg, pinned=PLANTED)
        rep = ev.evaluate(
            arts.params, cell.test_manifest, data.load_pooled(cell.test_manifest), PLANTED,
            method=method, category_map=arts.category_map,
        )
        assert 0.0 <= rep.map_exclusive <= 1.0
        assert 0.0 <= rep.map_cooccur <= 1.0
        results[method] = arts

    factor_logged = any(
        e.get("max_weight") == 10.0
        for e in results["weighted_loss"].step_log
        if e.get("stage") == 2
    )
    split_params = results["split_biased"].params
    outputs_ok = split_params.head.shape[1] == len(man.categories) + len(PLANTED)

    ok = count_ok and factor_logged and outputs_ok
    verdict(
        "baseline-sanity", ok,
        f"remove-images kept {len(removed.samples)}/{n} "
        f"(dropped {int(cooccur_rows.sum())}), factor-10 logged={factor_logged}, "
        f"split head outputs {split_params.head.shape[1]}"
        f"={len(man.categories)}+{len(PLANTED)}, 5 baselines evaluated",
    )


# ---------------------------------------------------------------------------
# determinism


def test_train_eval_byte_determinism(tmp_path):
    regions, sigs = data.build_layout(4, 4, 4, 8, seed=7)
    gen = data.GenConfig(
        m=4, h=4, w=4, d_in=8,
        regions=regions, signatures=sigs,
        planted_pairs=[data.PlantedPair(0, 1, 0.2, 40, 10)],
        n_filler=30, noise_std=0.25, seed=5,
    )
    (tmp_path / "gen.json").write_text(json.dumps(gen.to_dict()))
    gen_test = gen.to_dict()
    gen_test["seed"] = 6
    (tmp_path / "gen_test.json").write_text(json.dumps(gen_test))
    (tmp_path / "train.json").write_text(json.dumps({
        "method": "ours_feature_split", "alpha_min": 1.5,
        "stage1_epochs": 3, "stage2_epochs": 3, "k": 1,
        "sgd_stage1": {"initial_lr": 5.0, "decay_factor": 0.1, "decay_every": 3},
        "sgd_stage2": {"initial_lr": 1.0, "decay_factor": 0.1, "decay_every": 3},
    }))
    assert cli.main(["gen", "--config", str(tmp_path / "gen.json"),
                     "--out", str(tmp_path / "dtrain")]) == 0
    assert cli.main(["gen", "--config", str(tmp_path / "gen_test.json"),
                     "--out", str(tmp_path / "dtest"), "--split", "test"]) == 0

    for name in ("a", "b"):
        assert cli.main([
            "train", "--data", str(tmp_path / "dtrain"),
            "--config", str(tmp_path / "train.json"),
            "--seed", "3", "--pairs", "0:1", "--out", str(tmp_path / f"run_{name}"),
        ]) == 0
        assert cli.main([
            "eval", "--checkpoint", str(tmp_path / f"run_{name}"),
            "--data", str(tmp_path / "dtest"), "--out", str(tmp_path / f"ev_{name}"),
        ]) == 0

    files = [
        ("run_a/checkpoint.json", "run_b/checkpoint.json"),
        ("run_a/checkpoint.json.store", "run_b/checkpoint.json.store"),
        ("run_a/artifacts.json", "run_b/artifacts.json"),
        ("ev_a/report.json", "ev_b/report.json"),
    ]
    same = {
        a.split("/")[-1]: filecmp.cmp(tmp_path / a, tmp_path / b, shallow=False)
        for a, b in files
    }
    verdict(
        "determinism", all(same.values()),
        "byte-identical: " + ", ".join(f"{k}={v}" for k, v in same.items()),
    )
