import numpy as np
import pytest

from debias import losses
from gradcheck import finite_diff_check

RNG = np.random.default_rng


def test_finite_diff_rejects_nonscalar_value():
    with pytest.raises(ValueError):
        finite_diff_check(lambda p: p["x"] * 2.0, {"x": np.ones(3)}, {"x": np.full(3, 2.0)})


def test_finite_diff_rejects_gradient_of_other_shape():
    # an analytic gradient must match its parameter's shape
    with pytest.raises(ValueError):
        finite_diff_check(lambda p: np.sum(p["x"]), {"x": np.ones(2)}, {"x": np.ones(3)})


def test_quadratic_finite_diff_is_tight():
    w = RNG(9).uniform(0.5, 2.0, size=(4, 3))

    def value(p):
        return 0.5 * np.mean(p["w"] * p["w"])

    assert finite_diff_check(value, {"w": w}, {"w": w / w.size}, eps=1e-5) < 1e-9


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
    assert finite_diff_check(value, params, grads, eps=1e-5) < 1e-6


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
    assert finite_diff_check(value, params, {"w": grads["w"]}, eps=1e-5) < 1e-9
    assert finite_diff_check(value, params, grads, eps=1e-5) > 1e-2


def test_finite_diff_rejects_bad_eps():
    with pytest.raises(ValueError):
        finite_diff_check(lambda p: np.mean(p["x"]), {"x": np.ones(2)}, {"x": np.ones(2)}, eps=0.1)


def test_finite_diff_rejects_nonfinite_loss():
    with pytest.raises(ValueError):
        finite_diff_check(
            lambda p: np.sum(p["x"]) * float("inf"), {"x": np.array(2.0)}, {"x": np.array(1.0)}
        )
