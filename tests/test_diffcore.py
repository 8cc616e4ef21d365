import numpy as np
import pytest

from debias import diffcore as dc

RNG = np.random.default_rng


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
