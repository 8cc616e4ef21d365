"""What training and gradient checking share: dtype coercion, the sigmoid, SGD.

The model is linear up to its loss, so every training objective writes its
loss and gradient in closed form in `losses`, and no evaluation graph is
built. What is left here serves all of them: float64 coercion, the clipped
sigmoid the loss and `model.predict` both read, one SGD step with its
step-decay schedule, and the central-difference check the gradient gate runs
against the objectives.

Values are float64 numpy arrays. Shapes are checked eagerly and violations
raise ValueError; nothing broadcasts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def sigmoid_values(v: np.ndarray) -> np.ndarray:
    # the clip (min/max, as np.clip but cheaper) keeps exp() in range;
    # inactive for |v| <= 40 so gradient checks on ordinary magnitudes are exact
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(v, -40.0), 40.0)))


# ---------------------------------------------------------------------------
# gradient checking and SGD


def finite_diff_check(value, params: dict, grads: dict, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `value` maps {name: array} to the scalar loss and must be deterministic.
    `params` holds the base point. `grads` holds the analytic gradient of
    each name to check; a name left out is held fixed, which is how a
    parameter whose gradient is dropped by design (such as the suppressed
    context rows) stays out of the check.
    """
    if not 0.0 < eps <= 1e-3:
        raise ValueError("eps must be in (0, 1e-3]")
    base = {k: as_f64(v) for k, v in params.items()}

    def value_at(point) -> float:
        v = value(point)
        if np.ndim(v) != 0:
            raise ValueError(f"the checked value must be a scalar, got shape {np.shape(v)}")
        v = float(v)
        if not math.isfinite(v):
            raise ValueError("non-finite loss during finite-difference probe")
        return v

    worst = 0.0
    for k in sorted(grads):
        analytic = as_f64(grads[k])
        if analytic.shape != base[k].shape:
            raise ValueError(f"gradient of {k!r} has shape {analytic.shape}, not {base[k].shape}")
        aflat = analytic.reshape(-1)
        for i in range(aflat.size):
            plus = base[k].copy().reshape(-1)
            plus[i] += eps
            minus = base[k].copy().reshape(-1)
            minus[i] -= eps
            fp = value_at({**base, k: plus.reshape(base[k].shape)})
            fm = value_at({**base, k: minus.reshape(base[k].shape)})
            numeric = (fp - fm) / (2.0 * eps)
            a = aflat[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
            worst = max(worst, rel)
    return worst


def sgd_step(params: tuple, grads: tuple, lr: float) -> tuple:
    """(mixer, head) <- (mixer, head) - lr * (g_mixer, g_head); shapes must line up."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    (mixer, head), (g_mixer, g_head) = params, grads
    if np.shape(g_mixer) != np.shape(mixer) or np.shape(g_head) != np.shape(head):
        raise ValueError(f"sgd_step: grad shapes {np.shape(g_mixer)}, {np.shape(g_head)} "
                         f"vs param shapes {np.shape(mixer)}, {np.shape(head)}")
    return mixer - lr * as_f64(g_mixer), head - lr * as_f64(g_head)


@dataclass(frozen=True)
class SgdConfig:
    initial_lr: float
    decay_factor: float
    decay_every: int

    def __post_init__(self):
        if not 0.0 < self.initial_lr < math.inf:  # NaN fails this too
            raise ValueError("initial_lr must be positive and finite")
        if not 0.0 < self.decay_factor < 1.0:
            raise ValueError("decay_factor must be in (0, 1)")
        if self.decay_every <= 0:
            raise ValueError("decay_every must be a positive epoch count")

    def lr_at(self, epoch: int) -> float:
        return self.initial_lr * self.decay_factor ** (epoch // self.decay_every)
