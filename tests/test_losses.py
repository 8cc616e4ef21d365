import math

import numpy as np
import pytest

from debias import bias, losses, model, train
from gradcheck import finite_diff_check

LN2 = math.log(2.0)
RNG = np.random.default_rng


def make_params(seed=0, d_in=4, d=6, m=4):
    return model.init_params(d_in, d, m, seed)


def pixel_rows(fm):  # one (H, W, D_in) map as a batch of one
    return fm.reshape(1, -1, fm.shape[2])


def forward_one(params, fm):
    """(mixed, logits) of one (H, W, D_in) map."""
    return model.forward_batch(params, model.pool_pixels(pixel_rows(fm)))


def one_sample_trace(params, seed=1, h=2, w=2):
    fm = np.random.default_rng(seed).normal(size=(h, w, params.d_in))
    return forward_one(params, fm), fm


def at(point, own, ctx):
    """ModelParams of a finite-difference probe point."""
    return model.ModelParams(point["mixer"], point["head"], own, ctx)


# ---------------------------------------------------------------------------
# BCE family


def test_bce_saturated_correct_prediction_vanishes():
    assert losses.bce(np.array([[40.0]]), np.array([[1.0]]))[0] < 1e-12


def test_bce_at_half_is_ln2():
    val, _ = losses.bce(np.zeros((1, 3)), np.array([[1.0, 0.0, 1.0]]))
    assert val == pytest.approx(LN2, abs=1e-15)


def test_bce_rejects_nonbinary_targets():
    with pytest.raises(ValueError):
        losses.bce(np.zeros((1, 2)), np.array([[0.5, 1.0]]))


def test_bce_gradient_checks_out():
    rng = np.random.default_rng(2)
    t = (rng.random((3, 4)) < 0.5).astype(float)
    z = rng.uniform(-2.0, 2.0, size=(3, 4))
    _, g = losses.bce(z, t)

    def value(p):
        return losses.bce(p["z"], t)[0]

    assert finite_diff_check(value, {"z": z}, {"z": g}, eps=1e-5) < 1e-6


def test_bce_at_zero_is_ln2_with_gradient_sigmoid_minus_target_over_n():
    # sigmoid(0) = 1/2: each term is ln 2 and its gradient is (s - t) / n
    x = np.zeros((1, 2))
    t = np.array([[1.0, 0.0]])
    loss, g = losses.bce(x, t)
    assert abs(loss - np.log(2.0)) < 1e-15
    assert np.allclose(g, [[-0.25, 0.25]], rtol=0, atol=1e-15)


def chain_reference(z, t, g):
    """The sigmoid -> guarded log -> mul -> add chain losses.bce fuses, in numpy.

    Forward in chain order, backward in the order a reverse sweep visits
    the chain's steps; returns (value, cotangent of z).
    """
    s = 1.0 / (1.0 + np.exp(-np.clip(z, -40.0, 40.0)))
    q = np.ones_like(t) + s * -1.0
    log_s = np.log(np.maximum(s, losses.LOG_GUARD))
    log_q = np.log(np.maximum(q, losses.LOG_GUARD))
    value = (t * log_s + (1.0 - t) * log_q) * -1.0
    g_sum = g * -1.0  # the outer scale, then add passes it to both branches
    g_log_q = g_sum * (1.0 - t)
    g_q = g_log_q * (q > losses.LOG_GUARD) / np.maximum(q, losses.LOG_GUARD)
    g_s = g_q * -1.0  # the scale inside 1 - s, reached first
    g_log_s = g_sum * t
    g_s = g_s + g_log_s * (s > losses.LOG_GUARD) / np.maximum(s, losses.LOG_GUARD)
    return value, g_s * s * (1.0 - s)


def test_bce_bit_equal_to_sigmoid_log_chain_reference():
    # both targets against logits past the +-40 clip and past the LOG_GUARD
    # floor (sigmoid(-30) < 1e-12), in both directions
    z = np.tile([-45.0, -30.0, -1.0, 0.0, 1.0, 30.0, 45.0], (2, 1))
    t = np.repeat([[1.0], [0.0]], 7, axis=1)
    w = RNG(19).uniform(0.5, 3.0, size=z.shape)
    want_value, want_grad = chain_reference(z, t, np.full(z.shape, 1.0 / z.size) * w)
    got_value, got_grad = losses.bce(z, t, w)
    assert got_value == float(np.mean(w * want_value))
    assert got_grad.tobytes() == want_grad.tobytes()
    assert got_grad[0, 0] == 0.0 and got_grad[0, 1] == 0.0  # flat below the guard
    assert got_grad[1, 5] == 0.0 and got_grad[1, 6] == 0.0
    # unweighted, as most objectives call it
    got_value, g_mean = losses.bce(z, t)
    want_value, want_mean = chain_reference(z, t, np.full(z.shape, 1.0 / z.size))
    assert got_value == float(np.mean(want_value))
    assert g_mean.tobytes() == want_mean.tobytes()


def test_bce_rejects_targets_of_other_shape():
    with pytest.raises(ValueError):
        losses.bce(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(ValueError):  # same size, other shape
        losses.bce(np.zeros((2, 3)), np.zeros(6))


def test_bce_gradient_matches_finite_differences_and_closed_form():
    # one logit at a time, both targets. Past |z| = 10 the loss value keeps
    # too few digits for central differences (1 - s cancels for large z, and
    # a loss near 0 carries ~1e-16 of absolute error), so the gradient over
    # the whole of |z| < 25 is checked against the closed form s - t instead
    grid = np.linspace(-24.5, 24.5, 50)
    for t in (0.0, 1.0):
        target = np.full((1, 1), t)

        def value(p):
            return losses.bce(p["z"], target)[0]

        for z in grid[np.abs(grid) <= 10.0]:
            point = {"z": np.full((1, 1), z)}
            grads = {"z": losses.bce(point["z"], target)[1]}
            assert finite_diff_check(value, point, grads, eps=1e-5) < 1e-6
    z = np.tile(grid, (2, 1))
    targets = np.repeat([[1.0], [0.0]], grid.size, axis=1)
    g = losses.bce(z, targets)[1] * z.size
    closed = 1.0 / (1.0 + np.exp(-z)) - targets
    assert np.max(np.abs(g - closed) / np.abs(closed)) < 1e-12


def linear_setup(seed, n=3, d_in=2, d=4, m=3):
    params = model.init_params(d_in, d, m, seed)
    rng = RNG(seed + 1)
    pooled = rng.normal(size=(n, d_in))
    t = (rng.random((n, m)) < 0.5).astype(float)
    return params, pooled, t


def test_linear_map_row_gradients():
    # one sample: gW = p^T (gz H^T) is an outer product, so row i of the mixer
    # gradient is p_i times one shared vector, and gH = (p W)^T gz
    params, pooled, t = linear_setup(0, n=1)
    _, g_mixer, g_head = losses.bce_objective(params, pooled, t)
    z = (pooled @ params.mixer) @ params.head
    gz = (model.sigmoid_values(z) - t) / t.size
    shared = (gz @ params.head.T)[0]
    for i, row in enumerate(g_mixer):
        assert np.allclose(row, pooled[0, i] * shared, rtol=0, atol=1e-15)
    assert np.allclose(g_head, (pooled @ params.mixer).T @ gz, rtol=0, atol=1e-15)


def test_mean_gradient():
    # the mean spreads its cotangent evenly: at z = 0 each logit gets (1/2 - t) / n
    t = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    _, g = losses.bce(np.zeros((2, 3)), t)
    assert np.array_equal(g, (0.5 - t) / 6.0)


def test_guarded_log_value_and_gradient():
    # sigmoid(-40) < LOG_GUARD: a positive target reads -log(LOG_GUARD) and
    # gets no gradient; at z = 0 the gradient is (1/2 - 1) / 2 = -1/4
    v = np.array([[-40.0, 0.0]])
    assert model.sigmoid_values(v)[0, 0] < losses.LOG_GUARD
    assert losses.bce(v[:, :1], np.ones((1, 1)))[0] == -np.log(1e-12)
    _, g = losses.bce(v, np.ones((1, 2)))
    assert g[0, 0] == 0.0  # flat below the guard
    assert abs(g[0, 1] + 0.25) < 1e-15


def tiled(sample_weights, m):  # one weight per sample, repeated across categories
    return np.repeat(np.asarray(sample_weights, dtype=float)[:, None], m, axis=1)


def test_weighted_bce_identity_at_one():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(2, 3))
    t = (rng.random((2, 3)) < 0.5).astype(float)
    plain, g_plain = losses.bce(z, t)
    weighted, g_weighted = losses.bce(z, t, np.ones((2, 3)))
    assert plain == weighted  # bit-for-bit
    assert g_plain.tobytes() == g_weighted.tobytes()


def test_weighted_bce_doubles_ln2():
    val, _ = losses.bce(np.zeros((1, 1)), np.array([[1.0]]), tiled([2.0], 1))
    assert val == pytest.approx(2 * LN2, abs=1e-15)


def test_weighted_bce_gradient_is_scaled_plain_gradient():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(2, 3))
    t = (rng.random((2, 3)) < 0.5).astype(float)
    _, ga = losses.bce(z, t)
    _, gb = losses.bce(z, t, tiled([5.0, 5.0], 3))
    assert np.allclose(gb, 5.0 * ga, atol=1e-15)


def test_weighted_bce_matches_per_sample():
    rng = np.random.default_rng(5)
    z = rng.normal(size=(3, 2))
    t = (rng.random((3, 2)) < 0.5).astype(float)
    w = tiled([1.0, 4.0, 2.5], 2)
    batch, _ = losses.bce(z, t, w)
    per = [losses.bce(z[[i]], t[[i]], w[[i]])[0] for i in range(3)]
    assert batch == pytest.approx(np.mean(per), abs=1e-14)


def test_bce_rejects_0d_weights():
    # no broadcasting, not even of a 0-d weight
    with pytest.raises(ValueError):
        losses.bce(np.zeros((2, 2)), np.zeros((2, 2)), np.array(2.0))


def test_weighted_bce_rejects_mismatched_weights():
    with pytest.raises(ValueError):
        losses.bce(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(2))


# ---------------------------------------------------------------------------
# alpha weighting


def alpha_weights(labels, pairs, alpha_min):
    """losses.alpha_weights on the pair tables stage 2 builds."""
    return losses.alpha_weights(pairs, *bias.pair_splits(labels, pairs), alpha_min)


def test_alpha_arithmetic_cases():
    labels = np.zeros((104, 2), dtype=int)
    labels[:100, 0] = 1
    labels[:100, 1] = 1
    labels[100:, 0] = 1  # 100 co-occur, 4 exclusive
    weights = alpha_weights(labels, [(0, 1)], alpha_min=3.0)
    assert weights[100] == pytest.approx(5.0)
    assert np.array_equal(weights[:100], np.ones(100))

    flipped = np.zeros((104, 2), dtype=int)
    flipped[:4, 0] = 1
    flipped[:4, 1] = 1
    flipped[4:, 0] = 1  # 4 co-occur, 100 exclusive: raw 0.2, clamped
    weights = alpha_weights(flipped, [(0, 1)], alpha_min=3.0)
    assert weights[4] == pytest.approx(3.0)


def test_alpha_weights_sample_routing():
    labels = np.zeros((20, 4), dtype=int)
    labels[:16, 0] = 1
    labels[:16, 1] = 1
    labels[16:, 0] = 1
    labels[:10, 2] = 1
    labels[:9, 3] = 1
    labels[9, 3] = 0  # sample 9 exclusive for (2,3)
    # a sample exclusive for several pairs takes the largest weight
    labels = np.vstack([labels, [1, 0, 1, 0]])
    a01 = math.sqrt(16 / 5)  # both above the floor, and different
    a23 = math.sqrt(9 / 2)
    weights = alpha_weights(labels, [(0, 1), (2, 3)], alpha_min=1.5)
    assert weights[0] == 1.0  # co-occurs for both
    assert weights[16] == a01
    assert weights[9] == a23
    assert weights[20] == max(a01, a23)


def test_alpha_weights_match_per_row_loop():
    # reference: per sample, the largest alpha over the pairs it is exclusive for
    rng = np.random.default_rng(40)
    labels = (rng.random((200, 5)) < 0.5).astype(int)
    pairs = [(0, 1), (2, 3), (4, 1)]
    alphas = []
    for b, c in pairs:
        co = int(np.sum((labels[:, b] == 1) & (labels[:, c] == 1)))
        ex = int(np.sum((labels[:, b] == 1) & (labels[:, c] == 0)))
        alphas.append(max(math.sqrt(co / ex), 1.2))
    want = [
        max([1.0] + [a for (b, c), a in zip(pairs, alphas) if row[b] == 1 and row[c] == 0])
        for row in labels
    ]
    assert alpha_weights(labels, pairs, alpha_min=1.2).tolist() == want


def test_alpha_table_requires_populated_sets():
    labels = np.array([[1, 1], [1, 1]])
    with pytest.raises(ValueError, match=r"pair \(0,1\) has empty co-occur or exclusive set"):
        alpha_weights(labels, [(0, 1)], alpha_min=3.0)


def test_alpha_min_must_exceed_one():
    # checked with the rest of the config, before any training
    with pytest.raises(ValueError, match="alpha_min"):
        train.TrainConfig(alpha_min=1.0)
    assert train.TrainConfig(alpha_min=1.01).alpha_min == 1.01


def test_exclusive_mask_or_semantics():
    # stage 2's exclusive rows: exclusive for any pair, even if co-occurring for another
    labels = np.array(
        [
            [1, 1, 0, 0],  # co-occur for (0,1)
            [1, 0, 0, 0],  # exclusive for (0,1)
            [1, 1, 1, 0],  # co-occur for (0,1), exclusive for (2,3)
            [0, 0, 0, 1],  # neither pair applies
        ]
    )
    mask = bias.pair_splits(labels, [(0, 1), (2, 3)])[1].any(axis=1)
    assert mask.tolist() == [False, True, True, False]


# ---------------------------------------------------------------------------
# peak normalization of activation maps


def test_peak_normalize_relu_passes_nothing_at_or_below_zero():
    # the relu inside map normalization passes nothing at or below zero
    x = np.array([[-1.0, 0.0, 2.0]])
    g = losses.peak_normalize(x)[1](np.full((1, 3), 1.0 / 3.0))
    assert g[0, 0] == 0.0 and g[0, 1] == 0.0
    assert g[0, 2] > 0.0


@pytest.mark.parametrize(
    "raw,expect",
    [
        ([[-1.0], [3.0]], [[0.0], [3.0 / (3.0 + 1e-8)]]),
        ([[0.0], [0.0]], [[0.0], [0.0]]),
        ([[-2.0], [-0.5]], [[0.0], [0.0]]),
    ],
)
def test_peak_normalize_clears_nonpositive_pixels(raw, expect):
    # one two-pixel map per case
    got, _ = losses.peak_normalize(np.array(raw).T)
    assert np.allclose(got, np.array(expect).T, rtol=0, atol=1e-12)


def test_peak_normalize_divides_each_map_by_its_own_max():
    # four maps of two pixels: each map by its own max
    got, _ = losses.peak_normalize(np.array([[1.0, 2.0], [8.0, 4.0], [4.0, 8.0], [1.0, 2.0]]))
    assert np.max(np.abs(got - [[0.5, 1.0], [1.0, 0.5], [0.5, 1.0], [0.5, 1.0]])) < 1e-7


def test_peak_normalize_rows_equal_single_maps():
    # stacked maps normalize exactly as each map does on its own
    rng = RNG(18)
    stacked = rng.normal(size=(3, 6))
    out, _ = losses.peak_normalize(stacked)
    for i in range(3):
        r = np.maximum(stacked[i], 0.0)
        assert np.array_equal(out[i], r / (r.max() + 1e-8))
        assert np.array_equal(out[i : i + 1], losses.peak_normalize(stacked[i : i + 1])[0])


def test_peak_normalize_splits_peak_cotangent_over_ties():
    # a map max shared by two pixels passes half of its cotangent to each
    a = np.array([[1.0, 3.0, 3.0], [2.0, 5.0, 0.0]])
    g = np.arange(1.0, 7.0).reshape(2, 3)
    got = losses.peak_normalize(a)[1](g)
    d = np.array([[3.0 + 1e-8], [5.0 + 1e-8]])
    quotient = g / d
    share = (-g * a / (d * d)).sum(axis=1, keepdims=True)
    want = quotient + np.array([[0.0, 0.5, 0.5], [0.0, 1.0, 0.0]]) * share
    want[1, 2] = 0.0  # relu kink at zero
    assert np.array_equal(got, want)


def test_peak_normalize_rejects_bad_shapes():
    with pytest.raises(ValueError):  # maps come as (n, P) rows
        losses.peak_normalize(np.ones(4))
    _, backward = losses.peak_normalize(np.ones((2, 2)))
    with pytest.raises(ValueError):  # a cotangent of another shape
        backward(np.ones((2, 3)))
    with pytest.raises(ValueError):  # not even a broadcastable one
        backward(np.ones((2, 1)))


def test_peak_normalize_gradient_checks_out_with_distinct_maxima():
    # peak normalization of six four-pixel maps; distinct positive entries
    # keep map maxima unique under perturbation (a map whose only positive
    # entry is its max has a gradient near 1e-9, below the central-difference
    # noise)
    rng = RNG(11)
    base = rng.permutation(np.linspace(0.2, 2.0, 24)).reshape(6, 4)
    weights = rng.uniform(0.5, 1.5, size=(6, 4))

    def value(p):
        return np.mean(losses.peak_normalize(p["f"])[0] * weights)

    grads = {"f": losses.peak_normalize(base)[1](weights / weights.size)}
    assert finite_diff_check(value, {"f": base}, grads, eps=1e-5) < 1e-6


def test_peak_normalize_gradient_checks_out_with_negative_pixels():
    # relu(x) / (max(relu(x)) + 1e-8) per map, the map normalization
    rng = RNG(13)
    x = rng.uniform(-2.0, 2.0, size=(2, 6))
    x[np.abs(x) < 0.1] = 0.5  # keep clear of the relu kink
    x[0, 3] = 3.0  # unique map maxima, stable under eps-perturbation
    x[1, 1] = 4.0

    def value(p):
        return np.mean(losses.peak_normalize(p["x"])[0])

    grads = {"x": losses.peak_normalize(x)[1](np.full((2, 6), 1.0 / 12))}
    assert finite_diff_check(value, {"x": x}, grads, eps=1e-5) < 1e-6


def test_peak_normalize_stack_equals_each_slice_bit_for_bit():
    # cam_terms normalizes a (2, n, P) stack of biased and context maps at
    # once; every reduction runs over the pixel axis, so each (n, P) slice
    # reads exactly as it would alone, forward and backward
    rng = RNG(41)
    raw = rng.normal(size=(2, 37, 64))
    raw[0, 3, [5, 9]] = raw[0, 3].max() + 1.0  # a tied peak
    raw[1, 4] = -np.abs(raw[1, 4])  # a map with no positive pixel
    raw[1, 5, 7] = 0.0  # a pixel on the relu kink
    g = rng.normal(size=raw.shape)
    maps, backward = losses.peak_normalize(raw)
    g_raw = backward(g)
    for role in (0, 1):
        want_maps, want_backward = losses.peak_normalize(raw[role])
        assert maps[role].tobytes() == want_maps.tobytes()
        assert g_raw[role].tobytes() == want_backward(g[role]).tobytes()


# ---------------------------------------------------------------------------
# CAM losses


def constant_map_setup(v=1.0):
    # both categories produce a flat positive map of height v
    params = model.ModelParams(
        mixer=np.eye(2),
        head=np.array([[v, v, 0.0], [0.0, 0.0, 0.0]]),
        own_rows=[0],
        context_rows=[1],
    )
    fm = np.zeros((2, 2, 2))
    fm[:, :, 0] = 1.0
    return params, fm


def stacked(feats, targets, pairs, table):
    """cam_terms' stack-ordered inputs of a batch, stated from the labels.

    Pair by pair, the samples labeled with both of its categories, in batch
    order: their pixel rows, each pair's count, and their maps from
    `table` (a CamSnapshot.table of the batch's rows, or None), biased map
    first.
    """
    segments = [np.flatnonzero((targets[:, b] == 1) & (targets[:, c] == 1)) for b, c in pairs]
    sizes = [s.size for s in segments]
    rows = np.concatenate(segments).astype(int)
    frozen = None if table is None else table[:, np.repeat(np.arange(len(pairs)), sizes), rows]
    return feats[rows], sizes, frozen


def overlap_terms(params, fm, b=0, c=1):
    """(mean overlap, g_mixer, g_head) of one map, the overlap weighted 1."""
    out = losses.cam_terms(params, [(b, c)], pixel_rows(fm), [1], None, 1.0, 0.0)
    return out[0], out[2], out[3]


def ground_terms(params, fm, frozen_b, frozen_c):
    """(mean grounding, g_mixer, g_head) of one map, the grounding weighted 1."""
    frozen = np.stack([np.reshape(frozen_b, (1, -1)), np.reshape(frozen_c, (1, -1))])
    out = losses.cam_terms(params, [(0, 1)], pixel_rows(fm), [1], frozen, 0.0, 1.0)
    return out[1], out[2], out[3]


def test_overlap_of_flat_maps_is_one():
    params, fm = constant_map_setup()
    assert overlap_terms(params, fm)[0] == pytest.approx(1.0, abs=1e-6)


def test_overlap_of_disjoint_maps_is_zero():
    params = model.ModelParams(
        mixer=np.eye(2),
        head=np.array([[1.0, 0.0], [0.0, 1.0]]),
        own_rows=[0],
        context_rows=[1],
    )
    fm = np.zeros((2, 2, 2))
    fm[0, :, 0] = 1.0  # category 0 lives in the top row
    fm[1, :, 1] = 1.0  # category 1 in the bottom row
    assert overlap_terms(params, fm)[0] == 0.0


def test_overlap_loss_nonnegative_random():
    rng = np.random.default_rng(6)
    params = make_params(seed=7)
    for _ in range(10):
        fm = rng.normal(size=(3, 3, params.d_in))
        assert overlap_terms(params, fm)[0] >= 0.0


def test_overlap_gradient_checks_out():
    rng = np.random.default_rng(8)
    fm = rng.uniform(-1.0, 1.0, size=(2, 2, 3))
    own = np.array([0, 1])
    ctx = np.array([2, 3])
    p = {
        "mixer": rng.uniform(-1.0, 1.0, size=(3, 4)),
        "head": rng.uniform(-1.0, 1.0, size=(4, 3)),
    }
    _, g_mixer, g_head = overlap_terms(at(p, own, ctx), fm)

    def value(q):
        return overlap_terms(at(q, own, ctx), fm)[0]

    assert finite_diff_check(value, p, {"mixer": g_mixer, "head": g_head}, eps=1e-5) < 1e-6


def test_ground_loss_zero_when_unchanged():
    params = make_params(seed=9)
    _, fm = one_sample_trace(params, seed=10)
    snap = losses.CamSnapshot(params, [(0, 1)])
    frozen = [snap.rows(pixel_rows(fm), k) for k in (0, 1)]
    val, g_mixer, g_head = ground_terms(params, fm, *frozen)
    assert val == 0.0
    assert not g_mixer.any() and not g_head.any()  # sign(0) = 0 at every pixel


def test_ground_loss_hand_case_two():
    # live maps all zero, frozen maps all one, single pair on a 2x2 grid
    params, fm = constant_map_setup(v=0.0)
    assert ground_terms(params, fm, np.ones(4), np.ones(4))[0] == pytest.approx(2.0, abs=1e-12)


def test_ground_gradient_checks_out_off_kinks():
    rng = np.random.default_rng(11)
    fm = rng.uniform(0.5, 1.5, size=(2, 2, 3))
    own = np.array([0, 1])
    ctx = np.array([2, 3])
    pre_b = np.full(4, 2.0)  # far from any live value, so |.| has no kink
    pre_c = np.full(4, -1.0)
    p = {
        "mixer": rng.uniform(0.5, 1.5, size=(3, 4)),
        "head": rng.uniform(0.5, 1.5, size=(4, 3)),
    }
    _, g_mixer, g_head = ground_terms(at(p, own, ctx), fm, pre_b, pre_c)

    def value(q):
        return ground_terms(at(q, own, ctx), fm, pre_b, pre_c)[0]

    assert finite_diff_check(value, p, {"mixer": g_mixer, "head": g_head}, eps=1e-5) < 1e-6


def test_total_loss_degenerates_to_bce():
    params = make_params(seed=12)
    _, fm = one_sample_trace(params, seed=13)
    rows = pixel_rows(fm)
    pooled = model.pool_pixels(rows)
    t = np.array([[1.0, 0.0, 1.0, 0.0]])
    snap = losses.CamSnapshot(params, [(0, 1)])
    cam = stacked(rows, t, [(0, 1)], snap.table(rows, 64))
    assert cam[1] == [0]  # (0, 1) does not co-occur
    plain = losses.bce_objective(params, pooled, t)
    for lam1, lam2 in ((0.0, 0.0), (0.1, 0.01)):
        total = losses.cam_objective(params, pooled, t, [(0, 1)], *cam, lam1, lam2)
        assert total[0] == plain[0]
        assert total[1].tobytes() == plain[1].tobytes()
        assert total[2].tobytes() == plain[2].tobytes()


def test_total_loss_composes_components():
    params = make_params(seed=14)
    _, fm = one_sample_trace(params, seed=15)
    rows = pixel_rows(fm)
    pooled = model.pool_pixels(rows)
    t = np.array([[1.0, 1.0, 0.0, 0.0]])
    snap = losses.CamSnapshot(
        model.init_params(params.d_in, params.d, params.m, 99), [(0, 1)]
    )
    frozen = snap.table(rows, 64)[:, 0]
    lo = overlap_terms(params, fm)[0]
    lr = ground_terms(params, fm, frozen[0], frozen[1])[0]
    lb, gb_mixer, gb_head = losses.bce_objective(params, pooled, t)
    total = losses.cam_objective(params, pooled, t, [(0, 1)], rows, [1], frozen, 0.1, 0.01)
    assert total[0] == pytest.approx(lb + 0.1 * lo + 0.01 * lr, abs=1e-14)
    # and the gradients are the sum of the parts'
    cam = losses.cam_terms(params, [(0, 1)], rows, [1], frozen, 0.1, 0.01)
    assert np.array_equal(total[1], cam[2] + gb_mixer)
    assert np.array_equal(total[2], cam[3] + gb_head)


def test_total_loss_rejects_negative_weights():
    # the loss weights are range-checked with the config, before any training
    with pytest.raises(ValueError):
        train.TrainConfig(lambda1=-0.1)
    with pytest.raises(ValueError):
        train.TrainConfig(lambda2=-0.1)
    params = make_params()
    _, fm = one_sample_trace(params)
    rows = pixel_rows(fm)
    with pytest.raises(ValueError, match="frozen"):  # grounding without frozen maps
        losses.cam_terms(params, [(0, 1)], rows, [1], None, 0.0, 0.1)


def test_cam_objective_matches_numpy_recomputation():
    rng = np.random.default_rng(30)
    params = make_params(seed=31, d_in=5, d=6, m=4)
    feats = rng.normal(size=(6, 9, 5))
    t = np.array(
        [[1, 1, 0, 0], [1, 1, 1, 1], [0, 1, 1, 1], [1, 0, 0, 0], [0, 0, 1, 1], [1, 1, 0, 1]],
        dtype=float,
    )
    pairs = [(0, 1), (2, 3)]
    snap = losses.CamSnapshot(model.init_params(5, 6, 4, 32), pairs)
    lam1, lam2 = 0.7, 0.3
    got, _, _ = losses.cam_objective(
        params, model.pool_pixels(feats), t, pairs, *stacked(feats, t, pairs, snap.table(feats, 4)),
        lam1, lam2,
    )

    def normalized(raw):
        r = np.maximum(raw, 0.0)
        return r / (r.max() + 1e-8)

    def live(i, k):
        return normalized((feats[i] @ params.mixer) @ params.head[:, k])

    def frozen_np(i, k):
        return normalized((feats[i] @ snap.params.mixer) @ snap.params.head[:, k])

    s = model.sigmoid_values((feats.mean(axis=1) @ params.mixer) @ params.head)
    want = -np.mean(t * np.log(s) + (1 - t) * np.log(1 - s))
    overlap, ground = [], []
    for b, c in pairs:
        for i in np.flatnonzero((t[:, b] == 1) & (t[:, c] == 1)):
            overlap.append(live(i, b) * live(i, c))
            ground.append(
                np.abs(frozen_np(i, b) - live(i, b)) + np.abs(frozen_np(i, c) - live(i, c))
            )
    # a snapshot of other weights makes the grounding part count
    assert np.mean(ground) > 0.0
    want += lam1 * np.mean(overlap) + lam2 * np.mean(ground)
    assert got == pytest.approx(want, abs=1e-12)


def test_snapshot_is_frozen_and_cached():
    params = make_params(seed=16)
    snap = losses.CamSnapshot(params, [(0, 1)])
    feats = np.random.default_rng(17).normal(size=(5, 4, params.d_in))
    before = snap.rows(feats, 0)
    table = snap.table(feats, 2)
    params.head[:] = 0.0  # later training must not leak into the snapshot
    assert np.array_equal(before, snap.rows(feats, 0))
    assert np.array_equal(table, snap.table(feats, 2))
    assert table.shape == (2, 1, 5, 4) and np.array_equal(table[0, 0], before)
    with pytest.raises(ValueError):
        snap.rows(feats, 3)


def test_snapshot_table_equals_rows_bit_for_bit():
    # the stage's frozen table is built in batch chunks; every sample's maps
    # must equal its own single-sample rows exactly, or the grounding term
    # is not exactly zero at the first stage-2 step
    params = make_params(seed=18, d_in=32, d=64, m=8)
    pairs = [(0, 1), (2, 3)]
    snap = losses.CamSnapshot(params, pairs)
    feats = np.random.default_rng(19).normal(size=(150, 64, 32))
    table = snap.table(feats, 64)
    assert table.shape == (2, 2, 150, 64)
    for j, pair in enumerate(pairs):
        for role, k in enumerate(pair):
            raw = np.concatenate(
                [losses.cam_maps(snap.params, feats[s : s + 64], k) for s in (0, 64, 128)]
            )
            for i in range(150):
                single = snap.rows(feats[i : i + 1], k)[0]
                assert table[role, j, i].tobytes() == single.tobytes()
                single_raw = losses.cam_maps(snap.params, feats[i : i + 1], k)[0]
                assert raw[i].tobytes() == single_raw.tobytes()


def test_grounding_is_exactly_zero_against_own_snapshot():
    params = make_params(seed=20, d_in=32, d=64, m=8)
    pairs = [(0, 1), (2, 3)]
    snap = losses.CamSnapshot(params, pairs)
    rng = np.random.default_rng(21)
    feats = rng.normal(size=(200, 64, 32))
    t = (rng.random((200, 8)) < 0.6).astype(float)
    table = snap.table(feats, 64)
    idx = rng.permutation(200)[:64]
    for j, (b, c) in enumerate(pairs):
        local = np.flatnonzero((t[idx, b] == 1) & (t[idx, c] == 1))
        assert local.size > 0
        for role, k in enumerate((b, c)):
            live, _ = losses.peak_normalize(losses.cam_maps(params, feats[idx][local], k))
            assert not (table[role, j, idx[local]] - live).any()
    cam = stacked(feats[idx], t[idx], pairs, table[:, :, idx])
    ground, _, g_mixer, g_head = losses.cam_terms(params, pairs, *cam, 0.0, 1.0)
    assert ground == 0.0 and not g_mixer.any() and not g_head.any()
    pooled = model.pool_pixels(feats)[idx]
    total = losses.cam_objective(params, pooled, t[idx], pairs, *cam, 0.0, 1.0)
    assert total[0] == losses.bce_objective(params, pooled, t[idx])[0]


def cam_terms_per_pair(params, pixel_rows, targets, pairs, frozen, lambda1, lambda2):
    """(overlap, grounding, g_mixer, g_head) of the CAM terms, pair by pair and map by map.

    The loop cam_terms replaced: `pixel_rows` and `frozen` (a CamSnapshot.table)
    hold the whole batch, each pair gathers its co-occurring rows from the
    targets and normalizes its two maps on their own, and the gradients add
    last pair first, the context map before the biased map, each outer
    product a matrix product.
    """
    maps, overlap, ground = [], [], []
    for j, (b, c) in enumerate(pairs):
        local = np.flatnonzero((targets[:, b] == 1) & (targets[:, c] == 1))
        if local.size == 0 or lambda1 == lambda2 == 0:
            continue
        x = np.asarray(pixel_rows[local], dtype=np.float64)
        live, backward = {}, {}
        for k in (b, c):
            live[k], backward[k] = losses.peak_normalize(losses.cam_maps(params, x, k))
        diff = {}
        if lambda2 > 0:
            diff = {k: frozen[role, j, local] - live[k] for role, k in enumerate((b, c))}
        if lambda1 > 0:
            overlap.append(live[b] * live[c])
        if diff:
            ground.append(np.abs(diff[b]) + np.abs(diff[c]))
        maps.append((x, (b, c), live, backward, diff))
    g_overlap = float(lambda1) / sum(o.size for o in overlap) if overlap else 0.0
    g_ground = float(lambda2) / sum(o.size for o in ground) if ground else 0.0
    g_mixer, g_head = np.zeros(params.mixer.shape), np.zeros(params.head.shape)
    for x, (b, c), live, backward, diff in reversed(maps):
        rows = x.reshape(-1, x.shape[2])
        for k, other in ((c, b), (b, c)):
            g_map = g_ground * np.sign(diff[k]) * -1.0 if diff else 0.0
            if overlap:
                g_map = g_map + g_overlap * live[other]
            g_column = rows.T @ backward[k](g_map).reshape(-1, 1)
            g_mixer += g_column @ params.head[:, [k]].T
            g_head[:, [k]] += params.mixer.T @ g_column
    means = [float(np.mean(np.concatenate(p))) if p else 0.0 for p in (overlap, ground)]
    return (*means, g_mixer, g_head)


def stage2_like_batch(seed, pairs, n=64):
    """Stage-1-sized weights, float32 maps, labels, and a snapshot of other weights."""
    rng = RNG(seed)
    params = make_params(seed=seed, d_in=32, d=64, m=6)
    feats = rng.normal(size=(n, 64, 32)).astype(np.float32)
    t = (rng.random((n, 6)) < 0.5).astype(float)
    t[:, 5] = 0.0  # category 5 never co-occurs with anything
    snap = losses.CamSnapshot(make_params(seed=seed + 100, d_in=32, d=64, m=6), pairs)
    return params, feats, t, snap


@pytest.mark.parametrize("pairs", [
    [(0, 1), (2, 3)],
    [(0, 1), (2, 1)],  # two pairs share their context category
    [(0, 1), (1, 2), (3, 4)],  # a category is biased in one pair, context in another
    [(0, 5), (2, 3)],  # the first pair has no co-occurring row
], ids=["disjoint", "shared_context", "chained", "empty_pair"])
@pytest.mark.parametrize("lambdas", [(5.0, 0.01), (0.0, 1.0), (1.0, 0.0)],
                         ids=["both", "lambda1_zero", "lambda2_zero"])
def test_cam_terms_equal_per_pair_loop_bit_for_bit(pairs, lambdas):
    params, feats, t, snap = stage2_like_batch(50, pairs)
    table = snap.table(feats, 64)
    want = cam_terms_per_pair(params, feats, t, pairs, table, *lambdas)
    got = losses.cam_terms(params, pairs, *stacked(feats, t, pairs, table), *lambdas)
    assert got[0] == want[0] and got[1] == want[1]
    assert np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3])
    assert (got[0] > 0) == (lambdas[0] > 0) and (got[1] > 0) == (lambdas[1] > 0)


def test_cam_terms_ignore_rows_that_cooccur_for_no_pair():
    # a pair in which no row of the batch co-occurs has an empty segment of
    # the stack; adding it changes no bit of the other pairs' terms
    pairs = [(0, 1), (2, 3)]
    params, feats, t, snap = stage2_like_batch(60, pairs + [(4, 5)])
    table = snap.table(feats, 64)
    kept = losses.cam_terms(params, pairs, *stacked(feats, t, pairs, table[:, :2]), 5.0, 0.01)
    cam = stacked(feats, t, pairs + [(4, 5)], table)
    assert cam[1][2] == 0
    whole = losses.cam_terms(params, pairs + [(4, 5)], *cam, 5.0, 0.01)
    assert whole[:2] == kept[:2]
    assert whole[2].tobytes() == kept[2].tobytes() and whole[3].tobytes() == kept[3].tobytes()


def test_cam_objective_reads_pixel_rows_of_the_given_samples():
    # training passes the pixel rows and maps of the co-occurring samples
    # only; BCE still sees the whole batch, and its gradient adds last
    pairs = [(0, 1), (2, 3)]
    params, feats, t, snap = stage2_like_batch(62, pairs)
    rows = np.logical_or.reduce([(t[:, b] == 1) & (t[:, c] == 1) for b, c in pairs])
    assert 0 < rows.sum() < len(t)
    cam = stacked(feats, t, pairs, snap.table(feats, 64))
    pooled = model.pool_pixels(feats)
    got = losses.cam_objective(params, pooled, t, pairs, *cam, 5.0, 0.01)
    loss, g_mixer, g_head = losses.bce_objective(params, pooled, t)
    overlap, ground, cam_mixer, cam_head = losses.cam_terms(params, pairs, *cam, 5.0, 0.01)
    assert got[0] == (loss + overlap * 5.0) + ground * 0.01
    assert got[1].tobytes() == (cam_mixer + g_mixer).tobytes()
    assert got[2].tobytes() == (cam_head + g_head).tobytes()


def test_cam_terms_refuse_pixel_rows_and_targets_of_other_samples():
    # the pixel rows must fill the pair segments, and the frozen maps hold the same rows
    pairs = [(0, 1), (2, 3)]
    params, feats, t, snap = stage2_like_batch(61, pairs, n=8)
    x, sizes, frozen = stacked(feats, t, pairs, snap.table(feats, 8))
    with pytest.raises(ValueError, match="pixel rows"):
        losses.cam_terms(params, pairs, x[1:], sizes, frozen[:, 1:], 5.0, 0.01)
    with pytest.raises(ValueError, match="frozen"):
        losses.cam_terms(params, pairs, x, sizes, frozen[:, 1:], 5.0, 0.01)


def cam_setup(seed, n=4, p=9, d_in=5, d=6, m=4):
    rng = RNG(seed)
    params = model.init_params(d_in, d, m, seed + 1)
    feats = rng.uniform(0.2, 1.0, size=(n, p, d_in))
    t = np.ones((n, m))  # every pair co-occurs in every sample
    return params, feats, t


def test_two_pair_cam_terms_are_count_weighted_mean_of_each_pair():
    # both pairs' terms share one mean, so the two-pair gradient is the
    # count-weighted mean of each pair's own gradient
    params, feats, t = cam_setup(20)
    t[:1, 3] = 0.0  # pair (2, 3) covers 3 samples, pair (0, 1) all 4

    def terms(pairs):
        return losses.cam_terms(params, pairs, *stacked(feats, t, pairs, None), 1.0, 0.0)

    both, first, second = terms([(0, 1), (2, 3)]), terms([(0, 1)]), terms([(2, 3)])
    assert both[0] == pytest.approx((4 * first[0] + 3 * second[0]) / 7, abs=1e-15)
    for i in (2, 3):
        want = (4 * first[i] + 3 * second[i]) / 7
        assert np.allclose(both[i], want, rtol=0, atol=1e-15)


def test_cam_objective_repeats_bit_for_bit():
    params, feats, t = cam_setup(7)
    pooled = model.pool_pixels(feats)
    frozen = losses.CamSnapshot(model.init_params(5, 6, 4, 8), [(0, 1)]).table(feats, 2)[:, 0]
    runs = [
        losses.cam_objective(params, pooled, t, [(0, 1)], feats, [len(feats)], frozen, 0.5, 0.5)
        for _ in range(2)
    ]
    assert runs[0][0] == runs[1][0]
    for a, b in zip(runs[0][1:], runs[1][1:]):
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# running-mean buffer


def test_running_mean_window_arithmetic():
    buf = losses.RunningMeanBuffer(width=1)
    for v in range(1, 11):
        buf.push(np.array([float(v)]))
    buf.push(np.array([11.0]))
    assert buf.mean()[0] == pytest.approx(6.5)  # mean of 2..11


def test_running_mean_single_and_empty():
    buf = losses.RunningMeanBuffer(width=3)
    assert np.array_equal(buf.mean(), np.zeros(3))
    v = np.array([1.0, 2.0, 3.0])
    buf.push(v)
    assert np.array_equal(buf.mean(), v)


def test_running_mean_rejects_bad_length():
    buf = losses.RunningMeanBuffer(width=2)
    with pytest.raises(ValueError):
        buf.push(np.ones(3))


# ---------------------------------------------------------------------------
# suppressed forward


def test_suppressed_zero_buffer_keeps_own_half_only():
    params = make_params(seed=18)
    (mixed, _), _ = one_sample_trace(params, seed=19)
    buf = losses.RunningMeanBuffer(width=params.d // 2)
    logits, _ = losses.suppressed_logits(params, mixed, [True], buf)
    own_only = mixed[:, params.own_rows] @ params.head[params.own_rows]
    assert np.allclose(logits, own_only, atol=1e-15)


def test_suppressed_nonexclusive_matches_plain_forward():
    params = make_params(seed=20)
    (mixed, plain), _ = one_sample_trace(params, seed=21)
    buf = losses.RunningMeanBuffer(width=params.d // 2)
    buf.push(np.full(params.d // 2, 9.9))  # must be ignored
    logits, _ = losses.suppressed_logits(params, mixed, [False], buf)
    assert np.max(np.abs(logits - plain)) < 1e-12


def test_suppressed_gradients_vanish_for_context_half():
    params = make_params(seed=22)
    rng = np.random.default_rng(23)
    feats = rng.normal(size=(3, 4, params.d_in))  # batch of 3, all exclusive
    buf = losses.RunningMeanBuffer(width=params.d // 2)
    buf.push(rng.normal(size=params.d // 2))
    t = (rng.random((3, params.m)) < 0.5).astype(float)
    _, g_mixer, g_head = losses.feature_split_objective(
        params, model.pool_pixels(feats), t, np.ones(t.shape), np.ones(3, bool), buf
    )
    assert np.array_equal(g_head[params.context_rows], np.zeros((params.d // 2, params.m)))
    assert np.abs(g_head[params.own_rows]).max() > 0.0
    # mixer columns feeding the context half receive nothing either
    assert np.array_equal(g_mixer[:, params.context_rows], np.zeros((params.d_in, params.d // 2)))
    assert np.abs(g_mixer[:, params.own_rows]).max() > 0.0
    assert len(buf.entries) == 1  # an all-exclusive batch pushes nothing


def test_suppressed_mixed_batch_reassembles_order():
    params = make_params(seed=24)
    rng = np.random.default_rng(25)
    feats = rng.normal(size=(4, 4, params.d_in))
    mixed, _ = model.forward_batch(params, model.pool_pixels(feats))
    buf = losses.RunningMeanBuffer(width=params.d // 2)
    mask = np.array([False, True, False, True])
    logits, _ = losses.suppressed_logits(params, mixed, mask, buf)
    for i in range(4):
        want, _ = losses.suppressed_logits(params, mixed[i : i + 1], mask[i : i + 1], buf)
        assert np.allclose(logits[i], want[0], atol=1e-12)


def test_suppressed_nonexclusive_gradients_match_plain_path():
    params = make_params(seed=26)
    rng = np.random.default_rng(27)
    feats = rng.normal(size=(2, 4, params.d_in))
    t = (rng.random((2, params.m)) < 0.5).astype(float)
    pooled = model.pool_pixels(feats)
    w = np.ones(t.shape)
    buf = losses.RunningMeanBuffer(width=params.d // 2)
    ga = losses.feature_split_objective(params, pooled, t, w, np.zeros(2, bool), buf)
    gb = losses.bce_objective(params, pooled, t, w)
    assert abs(ga[0] - gb[0]) < 1e-12
    assert np.max(np.abs(ga[1] - gb[1])) < 1e-12
    assert np.max(np.abs(ga[2] - gb[2])) < 1e-12
    # the batch's context mean went into the buffer
    assert np.array_equal(buf.mean(), np.mean(pooled @ params.mixer, axis=0)[params.context_rows])


def test_suppressed_path_gradient_checks_out():
    # finite differences over the mixer; the context head rows are
    # analytically zeroed by design, so the head is held fixed
    rng = np.random.default_rng(28)
    fm = rng.uniform(-1.0, 1.0, size=(2, 2, 3))
    own = np.array([0, 1])
    ctx = np.array([2, 3])
    t = np.array([[1.0, 0.0, 1.0]])
    xbar = rng.uniform(-1.0, 1.0, size=2)
    pooled = model.pool_pixels(pixel_rows(fm))

    def objective(point):
        buf = losses.RunningMeanBuffer(width=2)
        buf.push(xbar)
        return losses.feature_split_objective(
            at(point, own, ctx), pooled, t, np.ones(t.shape), np.ones(1, bool), buf
        )

    p = {
        "mixer": rng.uniform(-1.0, 1.0, size=(3, 4)),
        "head": rng.uniform(-1.0, 1.0, size=(4, 3)),
    }
    _, g_mixer, _ = objective(p)

    def value(q):
        return objective(q)[0]

    assert finite_diff_check(value, p, {"mixer": g_mixer}, eps=1e-5) < 1e-6
