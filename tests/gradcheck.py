"""The central-difference gradient check the tests run against the objectives."""

import math

import numpy as np


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
    base = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}

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
        analytic = np.asarray(grads[k], dtype=np.float64)
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
