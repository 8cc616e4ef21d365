"""The numerics training shares: two fused value/VJP pairs, SGD and a gradient checker.

The model is linear up to its loss, so every training objective writes its
gradient in closed form (see losses) and no evaluation graph is built. What
the objectives share lives here: the per-element binary cross-entropy
(`bce_terms` and `bce_terms_vjp`) and the per-block map normalization
(`normalize_blocks` and `normalize_blocks_vjp`). Each VJP runs its arithmetic
in one fixed order, so gradients, and with them trained weights, are
reproducible bit for bit.

Values are float64 numpy arrays. Shapes are checked eagerly and violations
raise ValueError; nothing broadcasts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG_GUARD = 1e-12


def as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def sigmoid_values(v: np.ndarray) -> np.ndarray:
    # clip keeps exp() in range; inactive for |v| <= 40 so gradient checks
    # on ordinary magnitudes are exact
    return 1.0 / (1.0 + np.exp(-np.clip(v, -40.0, 40.0)))


def bce_terms(logits: np.ndarray, targets) -> np.ndarray:
    """Per-element binary cross-entropy of sigmoid(logits) against 0/1 targets.

    -(t log(max(s, LOG_GUARD)) + (1 - t) log(max(1 - s, LOG_GUARD))) with
    s = sigmoid_values(logits), so each log is flat (zero gradient) below the
    guard.
    """
    z, t = as_f64(logits), as_f64(targets)
    if t.shape != z.shape:
        raise ValueError(f"bce_terms: targets {t.shape} vs logits {z.shape}")
    s = sigmoid_values(z)
    q = 1.0 - s
    return -(t * np.log(np.maximum(s, LOG_GUARD)) + (1.0 - t) * np.log(np.maximum(q, LOG_GUARD)))


def bce_terms_vjp(logits: np.ndarray, targets, g: np.ndarray) -> np.ndarray:
    """Cotangent of `logits` from the cotangent `g` of bce_terms(logits, targets).

    The arithmetic is that of the sigmoid -> log -> mul -> add chain the
    terms fuse, run in reverse: the negation, the two guarded log branches
    (the 1 - s branch negated), their sum, then the sigmoid derivative.
    Changing that order changes the gradients' rounding, and with it trained
    weights.
    """
    z, t = as_f64(logits), as_f64(targets)
    if t.shape != z.shape or g.shape != z.shape:
        raise ValueError(f"bce_terms: targets {t.shape}, cotangent {g.shape} vs logits {z.shape}")
    s = sigmoid_values(z)
    q = 1.0 - s
    g_pos = -g * t * (s > LOG_GUARD) / np.maximum(s, LOG_GUARD)
    g_neg = -(-g * (1.0 - t) * (q > LOG_GUARD) / np.maximum(q, LOG_GUARD))
    return (g_neg + g_pos) * s * (1.0 - s)


def _blocks(v: np.ndarray, block: int):
    if v.ndim != 2 or block <= 0 or v.shape[0] % block:
        raise ValueError(f"normalize: shape {v.shape} is not blocks of {block} rows")
    return v.shape[0] // block, v.shape[1]


def normalize_blocks(v: np.ndarray, block: int) -> np.ndarray:
    """relu, then each block of `block` rows divided by its column max + 1e-8.

    Activation maps stacked one per block land in [0, 1] map by map.
    """
    v = as_f64(v)
    _blocks(v, block)
    r = np.maximum(v, 0.0).reshape(-1, block, v.shape[1])
    return (r / (r.max(axis=1, keepdims=True) + 1e-8)).reshape(v.shape)


def normalize_blocks_vjp(v: np.ndarray, block: int, g: np.ndarray) -> np.ndarray:
    """Cotangent of `v` from the cotangent `g` of normalize_blocks(v, block).

    Differentiates relu(v) / (block max of relu(v) + 1e-8) in reverse-sweep
    order: the quotient's two cotangents, the block sum of the denominator's,
    the max's share split evenly over ties, then the relu mask (subgradient
    0 at the kink). Changing that order changes the gradients' rounding, and
    with it trained weights.
    """
    v = as_f64(v)
    groups, cols = _blocks(v, block)
    if g.shape != v.shape:
        raise ValueError(f"normalize: cotangent {g.shape} vs maps {v.shape}")
    r = np.maximum(v, 0.0)
    peaks = r.reshape(groups, block, cols).max(axis=1)
    denom = np.repeat(peaks + 1e-8, block, axis=0)
    g_r = g / denom
    g_denom = (-g * r / (denom * denom)).reshape(groups, block, cols).sum(axis=1)
    ties = r == np.repeat(peaks, block, axis=0)
    counts = ties.reshape(groups, block, cols).sum(axis=1)
    g_r = g_r + ties * np.repeat(g_denom / counts, block, axis=0)
    return g_r * (v > 0.0)


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


def sgd_step(params: dict, grads: dict, lr: float) -> dict:
    """p <- p - lr * g for every entry; keys and shapes must line up."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    out = {}
    for k, p in params.items():
        g = grads[k]
        if np.shape(g) != np.shape(p):
            raise ValueError(f"sgd_step: grad shape {np.shape(g)} vs param {np.shape(p)} for {k!r}")
        out[k] = p - lr * as_f64(g)
    return out


@dataclass(frozen=True)
class SgdConfig:
    initial_lr: float
    decay_factor: float
    decay_every: int

    def __post_init__(self):
        if self.initial_lr <= 0:
            raise ValueError("initial_lr must be positive")
        if not 0.0 < self.decay_factor < 1.0:
            raise ValueError("decay_factor must be in (0, 1)")
        if self.decay_every <= 0:
            raise ValueError("decay_every must be a positive epoch count")

    def lr_at(self, epoch: int) -> float:
        return self.initial_lr * self.decay_factor ** (epoch // self.decay_every)
