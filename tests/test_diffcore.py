import numpy as np
import pytest

from debias import diffcore as dc

RNG = np.random.default_rng


def grads_of(root, *leaves):
    gmap = dc.eval_backward(root)
    return [gmap[l] for l in leaves]


def test_bce_terms_gradient_at_zero():
    # sigmoid(0) = 1/2: each term is ln 2 and its gradient is s - t
    x = dc.leaf(np.zeros((1, 2)))
    node = dc.bce_terms(x, np.array([[1.0, 0.0]]))
    assert np.allclose(node.value, np.log(2.0), rtol=0, atol=1e-15)
    (g,) = node.vjp(np.ones((1, 2)))
    assert np.allclose(g, [[-0.5, 0.5]], rtol=0, atol=1e-15)


def chain_reference(z, t, g):
    """The sigmoid -> guarded log -> mul -> add chain the op fuses, in numpy.

    Forward in graph order, backward in the order the reverse sweep visits
    the chain's nodes; returns (value, cotangent of z).
    """
    s = 1.0 / (1.0 + np.exp(-np.clip(z, -40.0, 40.0)))
    q = np.ones_like(t) + s * -1.0
    log_s = np.log(np.maximum(s, dc.LOG_GUARD))
    log_q = np.log(np.maximum(q, dc.LOG_GUARD))
    value = (t * log_s + (1.0 - t) * log_q) * -1.0
    g_sum = g * -1.0  # the outer scale, then add passes it to both branches
    g_log_q = g_sum * (1.0 - t)
    g_q = g_log_q * (q > dc.LOG_GUARD) / np.maximum(q, dc.LOG_GUARD)
    g_s = g_q * -1.0  # the scale inside 1 - s, reached first
    g_log_s = g_sum * t
    g_s = g_s + g_log_s * (s > dc.LOG_GUARD) / np.maximum(s, dc.LOG_GUARD)
    return value, g_s * s * (1.0 - s)


def test_bce_terms_bit_equal_to_chain():
    # both targets against logits past the +-40 clip and past the LOG_GUARD
    # floor (sigmoid(-30) < 1e-12), in both directions
    z = np.tile([-45.0, -30.0, -1.0, 0.0, 1.0, 30.0, 45.0], (2, 1))
    t = np.repeat([[1.0], [0.0]], 7, axis=1)
    g = RNG(19).normal(size=z.shape)
    want_value, want_grad = chain_reference(z, t, g)
    node = dc.bce_terms(dc.leaf(z), t)
    (got_grad,) = node.vjp(g)
    assert node.value.tobytes() == want_value.tobytes()
    assert got_grad.tobytes() == want_grad.tobytes()
    assert got_grad[0, 0] == 0.0 and got_grad[0, 1] == 0.0  # flat below the guard
    assert got_grad[1, 5] == 0.0 and got_grad[1, 6] == 0.0
    # through eval_backward, as training calls it
    x = dc.leaf(z)
    (g_mean,) = grads_of(dc.mean_all(dc.bce_terms(x, t)), x)
    _, want_mean = chain_reference(z, t, np.full(z.shape, 1.0 / z.size))
    assert g_mean.tobytes() == want_mean.tobytes()


def test_bce_terms_rejects_mismatched_targets():
    with pytest.raises(ValueError):
        dc.bce_terms(dc.leaf(np.zeros((2, 3))), np.zeros((3, 2)))


def test_linear_map_row_gradients():
    # mean(W @ x) over 3 rows, x a (2, 1) column: every row of W has gradient
    # x^T / 3, x gets the column means of W
    w = dc.leaf(RNG(0).normal(size=(3, 2)))
    x_val = RNG(1).normal(size=(2, 1))
    x = dc.leaf(x_val)
    gw, gx = grads_of(dc.mean_all(dc.matmul(w, x)), w, x)
    for row in gw:
        assert np.array_equal(row, gw[0])
        assert np.allclose(row, x_val[:, 0] / 3, rtol=0, atol=1e-15)
    assert np.allclose(gx, w.value.mean(axis=0)[:, None])


def test_matmul_rejects_1d_operands():
    with pytest.raises(ValueError):
        dc.matmul(dc.leaf(np.ones((3, 2))), dc.leaf(np.ones(2)))
    with pytest.raises(ValueError):
        dc.matmul(dc.leaf(np.ones(2)), dc.leaf(np.ones(2)))


def test_mean_gradient():
    a = dc.leaf(np.ones((2, 3)))
    (g,) = grads_of(dc.mean_all(a), a)
    assert np.array_equal(g, np.full((2, 3), 1.0 / 6.0))


def test_guarded_log_value_and_gradient():
    # sigmoid(-40) < LOG_GUARD: a positive target reads -log(LOG_GUARD) and
    # gets no gradient; at z = 0 the gradient is (1/2 - 1) / 2 = -1/4
    v = dc.leaf(np.array([[-40.0, 0.0]]))
    node = dc.bce_terms(v, np.ones((1, 2)))
    assert dc.sigmoid_values(v.value)[0, 0] < dc.LOG_GUARD
    assert node.value[0, 0] == -np.log(1e-12)
    (g,) = grads_of(dc.mean_all(node), v)
    assert g[0, 0] == 0.0  # flat below the guard
    assert abs(g[0, 1] + 0.25) < 1e-15


def test_relu_subgradient_zero_at_kink():
    # the relu inside map normalization passes nothing at or below zero
    x = dc.leaf(np.array([[-1.0], [0.0], [2.0]]))
    (g,) = grads_of(dc.mean_all(dc.normalize_blocks(x, 3)), x)
    assert g[0, 0] == 0.0 and g[1, 0] == 0.0
    assert g[2, 0] > 0.0


@pytest.mark.parametrize(
    "raw,expect",
    [
        ([[-1.0], [3.0]], [[0.0], [3.0 / (3.0 + 1e-8)]]),
        ([[0.0], [0.0]], [[0.0], [0.0]]),
        ([[-2.0], [-0.5]], [[0.0], [0.0]]),
    ],
)
def test_normalize_block_values_edges(raw, expect):
    got = dc.normalize_block_values(np.array(raw), 2)
    assert np.allclose(got, expect, rtol=0, atol=1e-12)


def test_normalize_block_values_hand_case():
    # two blocks of two rows, two columns: each column of a block by its own max
    got = dc.normalize_block_values(np.array([[1.0, 8.0], [2.0, 4.0], [4.0, 1.0], [8.0, 2.0]]), 2)
    assert np.max(np.abs(got - [[0.5, 1.0], [1.0, 0.5], [0.5, 0.5], [1.0, 1.0]])) < 1e-7


def test_normalize_blocks_matches_per_block():
    # the graph op's values are the numpy forward's, block by block, to the bit
    rng = RNG(18)
    block = 6
    stacked = rng.normal(size=(3 * block, 1))
    node = dc.normalize_blocks(dc.constant(stacked), block)
    assert node.value.tobytes() == dc.normalize_block_values(stacked, block).tobytes()
    for i in range(3):
        seg = stacked[i * block : (i + 1) * block]
        r = np.maximum(seg, 0.0)
        assert np.array_equal(node.value[i * block : (i + 1) * block], r / (r.max() + 1e-8))


def test_normalize_blocks_tie_split():
    # a block max shared by two rows passes half of its cotangent to each
    a = dc.leaf(np.array([[1.0], [3.0], [3.0], [2.0], [5.0], [0.0]]))
    g = np.arange(1.0, 7.0).reshape(6, 1)
    (got,) = dc.normalize_blocks(a, 3).vjp(g)
    r, d = a.value, np.repeat([[3.0 + 1e-8], [5.0 + 1e-8]], 3, axis=0)
    quotient = g / d
    share = (-g * r / (d * d)).reshape(2, 3, 1).sum(axis=1)
    want = quotient + np.array([[0.0], [0.5], [0.5], [0.0], [1.0], [0.0]]) * np.repeat(
        share, 3, axis=0
    )
    want[5, 0] = 0.0  # relu kink at zero
    assert np.array_equal(got, want)


def test_normalize_blocks_rejects_partial_block():
    with pytest.raises(ValueError):
        dc.normalize_blocks(dc.leaf(np.ones((5, 1))), 2)
    with pytest.raises(ValueError):
        dc.normalize_block_values(np.ones(4), 2)


def test_matmul_vjp_skips_constant_operand():
    rng = RNG(17)
    x = dc.constant(rng.normal(size=(6, 3)))
    w = dc.leaf(rng.normal(size=(3, 2)))
    g = rng.normal(size=(6, 2))
    gx, gw = dc.matmul(x, w).vjp(g)
    assert gx is None
    assert np.array_equal(gw, x.value.T @ g)
    gw2, gx2 = dc.matmul(dc.constant(w.value.T), dc.leaf(x.value.T)).vjp(g.T)
    assert gw2 is None
    assert np.array_equal(gx2, w.value @ g.T)


def test_concat_splits_gradient():
    a = dc.leaf(np.ones((2, 2)))
    b = dc.leaf(np.ones((3, 2)))
    cat = dc.concat([a, b], axis=0)
    assert cat.value.shape == (5, 2)
    root = dc.mean_all(dc.mul(cat, dc.constant(np.arange(10.0).reshape(5, 2))))
    ga, gb = grads_of(root, a, b)
    assert np.allclose(ga, np.array([[0.0, 1.0], [2.0, 3.0]]) / 10, rtol=0, atol=1e-15)
    assert np.allclose(
        gb, np.array([[4.0, 5.0], [6.0, 7.0], [8.0, 9.0]]) / 10, rtol=0, atol=1e-15
    )


def test_nonscalar_root_rejected():
    a = dc.leaf(np.ones(3))
    with pytest.raises(ValueError):
        dc.eval_backward(a)


def test_add_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        dc.add(dc.leaf(np.ones(2)), dc.leaf(np.ones(3)))


def test_mul_shape_mismatch_rejected():
    # no broadcasting, not even of a 0-d operand
    with pytest.raises(ValueError):
        dc.mul(dc.leaf(np.ones((2, 2))), dc.leaf(np.array(2.0)))


def test_matmul_inner_dim_mismatch_rejected():
    with pytest.raises(ValueError):
        dc.matmul(dc.leaf(np.ones((2, 3))), dc.leaf(np.ones((2, 2))))


def test_backward_is_deterministic():
    def build():
        w = dc.leaf(RNG(7).normal(size=(4, 3)))
        x = dc.constant(RNG(8).normal(size=(5, 4)))
        h = dc.normalize_blocks(dc.matmul(x, w), 5)
        return w, dc.mean_all(dc.mul(h, h))

    w1, r1 = build()
    w2, r2 = build()
    g1 = dc.eval_backward(r1)[w1]
    g2 = dc.eval_backward(r2)[w2]
    assert np.array_equal(g1, g2)


# ---------------------------------------------------------------------------
# finite differences


def test_quadratic_finite_diff_is_tight():
    w = RNG(9).uniform(0.5, 2.0, size=(4, 3))

    def build(lv):
        return dc.scale(dc.mean_all(dc.mul(lv["w"], lv["w"])), 0.5)

    assert dc.finite_diff_check(build, {"w": w}, eps=1e-5) < 1e-9


def test_finite_diff_dense_chain():
    rng = RNG(10)
    params = {
        "a": rng.uniform(-2.0, 2.0, size=(3, 4)),
        "b": rng.uniform(-2.0, 2.0, size=(4, 2)),
        "w": rng.uniform(-2.0, 2.0, size=(2, 1)),
    }

    targets = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])

    def build(lv):
        h = dc.bce_terms(dc.matmul(lv["a"], lv["b"]), targets)
        y = dc.matmul(h, lv["w"])
        return dc.mean_all(dc.absval(y))

    assert dc.finite_diff_check(build, params, eps=1e-5) < 1e-6


def test_finite_diff_bce_terms():
    # one logit at a time, both targets. Past |z| = 10 the loss value keeps
    # too few digits for central differences (1 - s cancels for large z, and
    # a loss near 0 carries ~1e-16 of absolute error), so the gradient over
    # the whole of |z| < 25 is checked against the closed form s - t instead
    grid = np.linspace(-24.5, 24.5, 50)
    for t in (0.0, 1.0):
        for z in grid[np.abs(grid) <= 10.0]:

            def build(lv):
                return dc.mean_all(dc.bce_terms(lv["z"], np.full((1, 1), t)))

            assert dc.finite_diff_check(build, {"z": np.full((1, 1), z)}, eps=1e-5) < 1e-6
    z = np.tile(grid, (2, 1))
    targets = np.repeat([[1.0], [0.0]], grid.size, axis=1)
    (g,) = dc.bce_terms(dc.leaf(z), targets).vjp(np.ones_like(z))
    closed = 1.0 / (1.0 + np.exp(-z)) - targets
    assert np.max(np.abs(g - closed) / np.abs(closed)) < 1e-12


def test_finite_diff_pooling_ops():
    # block-max normalization over three blocks of four rows and two columns;
    # distinct positive entries keep block maxima unique under perturbation
    # (a block whose only positive entry is its max has a gradient near 1e-9,
    # below the central-difference noise)
    rng = RNG(11)
    base = rng.permutation(np.linspace(0.2, 2.0, 24)).reshape(12, 2)
    weights = dc.constant(rng.uniform(0.5, 1.5, size=(12, 2)))

    def build(lv):
        return dc.mean_all(dc.mul(dc.normalize_blocks(lv["f"], 4), weights))

    assert dc.finite_diff_check(build, {"f": base}, eps=1e-5) < 1e-6


def test_finite_diff_normalize_shape():
    # relu(x) / (max(relu(x)) + 1e-8) per block, the map normalization
    rng = RNG(13)
    x = rng.uniform(-2.0, 2.0, size=(12, 1))
    x[np.abs(x) < 0.1] = 0.5  # keep clear of the relu kink
    x[3, 0] = 3.0  # unique block maxima, stable under eps-perturbation
    x[7, 0] = 4.0

    def build(lv):
        return dc.mean_all(dc.normalize_blocks(lv["x"], 6))

    assert dc.finite_diff_check(build, {"x": x}, eps=1e-5) < 1e-6


def test_finite_diff_wrt_subset():
    rng = RNG(14)
    params = {
        "w": rng.uniform(0.5, 1.5, size=(3,)),
        "frozen": rng.uniform(0.5, 1.5, size=(3,)),
    }

    def build(lv):
        active = dc.mean_all(dc.mul(lv["w"], lv["w"]))
        blocked = dc.mean_all(dc.mul(dc.constant(lv["frozen"].value), lv["frozen"]))
        return dc.add(active, blocked)

    # full check would flag `frozen` (the constant copy drops half of its
    # gradient), the subset form is what callers use for suppressed paths
    assert dc.finite_diff_check(build, params, eps=1e-5, wrt=["w"]) < 1e-9
    assert dc.finite_diff_check(build, params, eps=1e-5) > 1e-2


def test_finite_diff_rejects_bad_eps():
    with pytest.raises(ValueError):
        dc.finite_diff_check(lambda lv: dc.mean_all(lv["x"]), {"x": np.ones(2)}, eps=0.1)


def test_finite_diff_rejects_nonfinite_loss():
    def build(lv):
        return dc.scale(lv["x"], float("inf"))

    with pytest.raises(ValueError):
        dc.finite_diff_check(build, {"x": np.array(2.0)}, eps=1e-5)


# ---------------------------------------------------------------------------
# SGD


def test_sgd_step_hand_case():
    out = dc.sgd_step({"p": np.array(1.0)}, {"p": np.array(0.5)}, lr=0.1)
    assert np.allclose(out["p"], 0.95)


def test_sgd_step_zero_gradient_is_identity():
    p = RNG(15).normal(size=(3, 3))
    out = dc.sgd_step({"p": p}, {"p": np.zeros((3, 3))}, lr=0.5)
    assert np.array_equal(out["p"], p)


def test_sgd_step_shape_mismatch():
    with pytest.raises(ValueError):
        dc.sgd_step({"p": np.ones(2)}, {"p": np.ones(3)}, lr=0.1)


@pytest.mark.parametrize(
    "epoch,expected",
    [(0, 0.1), (9, 0.1), (10, 0.01), (19, 0.01), (20, 0.001)],
)
def test_step_decay_schedule(epoch, expected):
    cfg = dc.SgdConfig(initial_lr=0.1, decay_factor=0.1, decay_every=10)
    assert np.isclose(cfg.lr_at(epoch), expected)


def test_sgd_config_validation():
    with pytest.raises(ValueError):
        dc.SgdConfig(0.1, 1.5, 10)
    with pytest.raises(ValueError):
        dc.SgdConfig(-0.1, 0.5, 10)
    with pytest.raises(ValueError):
        dc.SgdConfig(0.1, 0.5, 0)
