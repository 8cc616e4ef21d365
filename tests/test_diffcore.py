import numpy as np
import pytest

from debias import diffcore as dc
from debias import losses
from debias import model as mdl

RNG = np.random.default_rng


def linear_setup(seed, n=3, d_in=2, d=4, m=3):
    params = mdl.init_params(d_in, d, m, seed)
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
    gz = (dc.sigmoid_values(z) - t) / t.size
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
    assert dc.sigmoid_values(v)[0, 0] < losses.LOG_GUARD
    assert losses.bce(v[:, :1], np.ones((1, 1)))[0] == -np.log(1e-12)
    _, g = losses.bce(v, np.ones((1, 2)))
    assert g[0, 0] == 0.0  # flat below the guard
    assert abs(g[0, 1] + 0.25) < 1e-15


def test_finite_diff_rejects_nonscalar_value():
    with pytest.raises(ValueError):
        dc.finite_diff_check(lambda p: p["x"] * 2.0, {"x": np.ones(3)}, {"x": np.full(3, 2.0)})


def test_finite_diff_rejects_gradient_of_other_shape():
    # an analytic gradient must match its parameter's shape
    with pytest.raises(ValueError):
        dc.finite_diff_check(lambda p: np.sum(p["x"]), {"x": np.ones(2)}, {"x": np.ones(3)})


# ---------------------------------------------------------------------------
# finite differences


def test_quadratic_finite_diff_is_tight():
    w = RNG(9).uniform(0.5, 2.0, size=(4, 3))

    def value(p):
        return 0.5 * np.mean(p["w"] * p["w"])

    assert dc.finite_diff_check(value, {"w": w}, {"w": w / w.size}, eps=1e-5) < 1e-9


def test_finite_diff_dense_chain():
    # weighted BCE of (A B) W, with the chain's gradient by hand
    rng = RNG(10)
    params = {
        "a": rng.uniform(-2.0, 2.0, size=(3, 4)),
        "b": rng.uniform(-2.0, 2.0, size=(4, 2)),
        "w": rng.uniform(-2.0, 2.0, size=(2, 2)),
    }
    targets = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    weights = rng.uniform(0.5, 2.0, size=(3, 2))

    def value(p):
        return losses.bce((p["a"] @ p["b"]) @ p["w"], targets, weights)[0]

    ab = params["a"] @ params["b"]
    g_z = losses.bce(ab @ params["w"], targets, weights)[1]
    g_ab = g_z @ params["w"].T
    grads = {"a": g_ab @ params["b"].T, "b": params["a"].T @ g_ab, "w": ab.T @ g_z}
    assert dc.finite_diff_check(value, params, grads, eps=1e-5) < 1e-6


def test_finite_diff_wrt_subset():
    rng = RNG(14)
    params = {
        "w": rng.uniform(0.5, 1.5, size=(3,)),
        "frozen": rng.uniform(0.5, 1.5, size=(3,)),
    }

    def value(p):
        return np.mean(p["w"] * p["w"]) + np.mean(p["frozen"] * p["frozen"])

    # the analytic gradient of `frozen` treats one factor as a constant copy
    # and drops its half by design; a full check flags it, the subset form
    # that callers use for suppressed paths leaves it out
    grads = {"w": 2.0 * params["w"] / 3.0, "frozen": params["frozen"] / 3.0}
    assert dc.finite_diff_check(value, params, {"w": grads["w"]}, eps=1e-5) < 1e-9
    assert dc.finite_diff_check(value, params, grads, eps=1e-5) > 1e-2


def test_finite_diff_rejects_bad_eps():
    with pytest.raises(ValueError):
        dc.finite_diff_check(lambda p: np.mean(p["x"]), {"x": np.ones(2)}, {"x": np.ones(2)}, eps=0.1)


def test_finite_diff_rejects_nonfinite_loss():
    with pytest.raises(ValueError):
        dc.finite_diff_check(
            lambda p: np.sum(p["x"]) * float("inf"), {"x": np.array(2.0)}, {"x": np.array(1.0)}
        )


# ---------------------------------------------------------------------------
# SGD


def test_sgd_step_hand_case():
    one, half = np.array(1.0), np.array(0.5)
    mixer, head = dc.sgd_step((one, 2 * one), (half, 2 * half), lr=0.1)
    assert np.allclose(mixer, 0.95) and np.allclose(head, 1.9)


def test_sgd_step_zero_gradient_is_identity():
    p = RNG(15).normal(size=(3, 3))
    out = dc.sgd_step((p, p.T), (np.zeros((3, 3)), np.zeros((3, 3))), lr=0.5)
    assert np.array_equal(out[0], p) and np.array_equal(out[1], p.T)


def test_sgd_step_shape_mismatch():
    # a mixer or head gradient of another shape, or a missing one
    for grads in [(np.ones(3), np.ones(1)), (np.ones(2), np.ones(2)), (np.ones(2),)]:
        with pytest.raises(ValueError):
            dc.sgd_step((np.ones(2), np.ones(1)), grads, lr=0.1)


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
