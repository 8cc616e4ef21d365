"""Training objectives, each with its loss and gradient in closed form.

The model is linear up to its loss (see model): pooled rows P give logits
z = (P W) H, and the activation map of category k over a sample's pixel rows
X is X (W h_k), with h_k the head's column k. So every objective returns its
loss with the mixer and head gradients written out in numpy, and only two
pieces are nonlinear: `bce`, whose logit cotangent gz reuses its one sigmoid,
and `peak_normalize`, whose backward reuses its relu and row peaks. Then
gH = (P W)^T gz and gW = P^T (gz H^T). A CAM term with map cotangent g_map
adds (X^T g_map) h_k^T to gW and W^T (X^T g_map) to column k of gH.
Selective suppression masks gz on its way back into the context features.
The CAM terms stack all pairs' maps into one (2, n, P) array whose
reductions run over the last, contiguous axis; X (W h_k) and X^T g_map stay
one product per pair and map.

Conventions: targets and per-sample weights are fixed inputs; only the mixer
and head get gradients. Sums over contributing samples, pairs, and pixels are
realized as means, so loss scale does not drift with batch size and the
published weighting defaults stay meaningful. Where several terms reach one
weight, their gradients are summed in one fixed order (CAM: last pair first,
context map before biased map, BCE last), so a fixed config reproduces
trained weights bit for bit.
"""

from __future__ import annotations

from dataclasses import replace
from functools import reduce

import numpy as np

from . import model as mdl

LOG_GUARD = 1e-12
# the feature split's context estimate: the mean over the last 10 minibatches (the paper's window)
CONTEXT_WINDOW = 10


# ---------------------------------------------------------------------------
# cross-entropy family


def bce(logits, targets, weights=None) -> tuple:
    """(mean BCE over all elements, its logit cotangent), from one sigmoid.

    Each element's term is -log(p), p = max(s, LOG_GUARD) for target 1 and
    max(1 - s, LOG_GUARD) for target 0, with s = sigmoid(logit), so the log
    is flat (zero gradient) below the guard. With `weights`, a full (n, M)
    matrix, each element's term is scaled first; a weight per sample is tiled
    over the categories, since nothing broadcasts.

    The cotangent, -+g / p times the sigmoid derivative s (1 - s), repeats
    the sigmoid -> log -> mul -> add chain's reverse arithmetic to the bit
    (`0.0 - g_p` keeps its +0.0 where the guard clips); changing the order
    changes the gradients' rounding, and with it trained weights.
    """
    z, t = np.asarray(logits, dtype=np.float64), np.asarray(targets, dtype=np.float64)
    if t.shape != z.shape:
        raise ValueError(f"bce: targets {t.shape} vs logits {z.shape}")
    pos = t == 1.0
    if not (pos | (t == 0.0)).all():
        raise ValueError("targets must be binary")
    s = mdl.sigmoid_values(z)
    q = 1.0 - s
    p = np.maximum(np.where(pos, s, q), LOG_GUARD)
    terms = -np.log(p)
    g = 1.0 / terms.size  # the mean's cotangent; a scalar rounds as a full array of it
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != terms.shape:
            raise ValueError("weight matrix must match logits shape")
        terms, g = w * terms, g * w
    g_p = g * (p > LOG_GUARD) / p
    mean = np.add.reduce(terms, axis=None) / terms.size
    return float(mean), np.where(pos, 0.0 - g_p, g_p) * s * q


def _linear_grads(params, pooled_rows, feats, g_logits, keep=None) -> tuple:
    """(g_mixer, g_head) of logits = feats H with feats = (pooled_rows W) * keep."""
    g_feats = g_logits @ params.head.T
    if keep is not None:
        g_feats = g_feats * keep
    return np.asarray(pooled_rows, dtype=np.float64).T @ g_feats, feats.T @ g_logits


def bce_objective(params: mdl.ModelParams, pooled_rows, targets, weights=None) -> tuple:
    """(loss, g_mixer, g_head) of mean BCE, optionally weighted, on the plain forward."""
    mixed, logits = mdl.forward_batch(params, pooled_rows)
    loss, g = bce(logits, targets, weights)
    return (loss, *_linear_grads(params, pooled_rows, mixed, g))


# ---------------------------------------------------------------------------
# loss weighting for skewed pairs


def alpha_weights(pairs, cooccur, exclusive, alpha_min) -> np.ndarray:
    """Per-sample skew weights (N,) from bias.pair_splits' (N, len(pairs)) tables.

    Each pair's alpha = max(sqrt(cooccur / exclusive), alpha_min) over its
    column counts applies to its exclusive samples; a sample exclusive for
    several pairs takes the largest alpha, every other sample weighs 1.
    TrainConfig checks that alpha_min exceeds 1.
    """
    n_both, n_excl = cooccur.sum(axis=0), exclusive.sum(axis=0)
    empty = np.flatnonzero((n_both == 0) | (n_excl == 0))
    if len(empty):
        b, c = pairs[empty[0]]
        raise ValueError(f"pair ({b},{c}) has empty co-occur or exclusive set")
    alpha = np.maximum(np.sqrt(n_both / n_excl), float(alpha_min))
    return np.where(exclusive, alpha, 1.0).max(axis=1, initial=1.0)


# ---------------------------------------------------------------------------
# CAM losses


def cam_maps(params: mdl.ModelParams, pixel_rows, category: int) -> np.ndarray:
    """(n, P) raw activation maps of `category` for (n, P, D_in) pixel rows.

    Each map is X (W h_k): the mixer meets the head column first, so no
    product is wider than that column. Training and the frozen snapshot both
    form their maps here and normalize them with peak_normalize, so a
    grounding term against unchanged weights is zero to the bit.
    """
    if not 0 <= category < params.m:
        raise ValueError(f"category {category} out of range for {params.m} categories")
    feats = np.asarray(pixel_rows, dtype=np.float64)
    n, p, d_in = feats.shape
    return (feats.reshape(n * p, d_in) @ (params.mixer @ params.head[:, [category]])).reshape(n, p)


def peak_normalize(raw) -> tuple:
    """(maps, backward) of raw maps: each map, the last axis, relu'd and divided by max + 1e-8.

    `raw` is (n, P) or a stack such as cam_terms' (2, n, P); every reduction
    runs over the last, contiguous axis, so a stack gives each slice's values
    and cotangents to the bit. `backward` maps the maps' cotangent to raw's
    in reverse-sweep order: the quotient's two cotangents, the pixel sum of
    the denominator's, the max's share split evenly over ties, then the relu
    mask (subgradient 0 at the kink); another order changes trained weights.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim < 2:
        raise ValueError(f"peak_normalize: maps come as (..., n, P), got shape {raw.shape}")
    r = np.maximum(raw, 0.0)
    peaks = r.max(axis=-1, keepdims=True)
    denom = peaks + 1e-8

    def backward(g: np.ndarray) -> np.ndarray:
        if g.shape != raw.shape:
            raise ValueError(f"peak_normalize: cotangent {g.shape} vs maps {raw.shape}")
        g_denom = (-g * r / (denom * denom)).sum(axis=-1, keepdims=True)
        ties = r == peaks
        g_r = g / denom + ties * (g_denom / np.count_nonzero(ties, axis=-1, keepdims=True))
        return g_r * (raw > 0.0)

    return r / denom, backward


class CamSnapshot:
    """Normalized activation maps of the frozen stage-1 model.

    The parameters are copied at construction so later training cannot leak
    in. `table` builds the maps one training stage reads.
    """

    def __init__(self, params: mdl.ModelParams, pairs):
        self.params = replace(params, mixer=params.mixer.copy(), head=params.head.copy())
        self.pairs = [tuple(p) for p in pairs]

    def rows(self, feats: np.ndarray, category: int) -> np.ndarray:
        """(n, P) normalized maps of `category` for (n, P, D_in) pixel rows."""
        if not any(category in p for p in self.pairs):
            raise ValueError(f"category {category} not covered by the snapshot")
        return peak_normalize(cam_maps(self.params, feats, category))[0]

    def table(self, feats: np.ndarray, batch_size: int) -> np.ndarray:
        """(2, pairs, n, P) maps of (n, P, D_in) pixel rows, cam_terms' roles first.

        Entry [0, j] holds pair j's biased maps and [1, j] its context maps.
        Training passes the rows in which some pair co-occurs. Built
        `batch_size` samples at a time, so the float64 copy that cam_maps
        makes of the pixel rows never exists at once.
        """
        out = np.empty((2, len(self.pairs), *feats.shape[:2]))
        for s in range(0, len(feats), batch_size):
            for j, pair in enumerate(self.pairs):
                for role, k in enumerate(pair):
                    out[role, j, s : s + batch_size] = self.rows(feats[s : s + batch_size], k)
        return out


def cam_terms(params, pairs, pixel_rows, sizes, frozen, lambda1, lambda2) -> tuple:
    """(mean overlap, mean grounding, g_mixer, g_head) of a batch's CAM terms.

    Per pair, the terms cover the samples labeled with both categories:
    overlap is the pixelwise product of its two normalized maps, grounding
    |frozen map - live map| summed over both. The inputs come in stack
    order: `pixel_rows` (n, P, D_in) holds pair j's co-occurring samples in
    its segment of `sizes[j]` rows, pairs in order (a sample that co-occurs
    for two pairs comes twice), and `frozen` (2, n, P) the stage-1 maps of
    the same rows, biased then context map (from CamSnapshot.table; None when
    lambda2 is 0). A term with weight 0, or without samples, reads 0; the
    gradients are those of lambda1 * overlap + lambda2 * grounding. The live
    maps form the same (2, n, P) stack: one peak_normalize serves all of
    them, and overlap's cotangent is live[::-1].
    """
    if len(sizes) != len(pairs) or len(pixel_rows) != sum(sizes):
        raise ValueError(f"cam_terms: {len(pixel_rows)} pixel rows vs segments {list(sizes)}")
    if lambda2 > 0 and np.shape(frozen) != (2, *np.shape(pixel_rows)[:2]):
        raise ValueError("grounding needs the frozen stage-1 maps of the pixel rows")
    g_mixer, g_head = np.zeros(params.mixer.shape), np.zeros(params.head.shape)
    if lambda1 == lambda2 == 0 or len(pixel_rows) == 0:
        return 0.0, 0.0, g_mixer, g_head
    segments = [(b, c, slice(e - n, e)) for (b, c), n, e in zip(pairs, sizes, np.cumsum(sizes))]
    x = np.asarray(pixel_rows, dtype=np.float64)
    raw = np.empty((2, len(x), x.shape[1]))
    for b, c, seg in segments:
        raw[0, seg], raw[1, seg] = cam_maps(params, x[seg], b), cam_maps(params, x[seg], c)
    live, backward = peak_normalize(raw)
    overlap = ground = g_map = 0.0  # a mean's pixel cotangent is its weight over the count
    if lambda2 > 0:
        diff = frozen - live
        terms = np.abs(diff[0]) + np.abs(diff[1])
        ground = float(np.add.reduce(terms, axis=None) / terms.size)
        g_map = float(lambda2) / terms.size * np.sign(diff) * -1.0
    if lambda1 > 0:
        terms = live[0] * live[1]
        overlap = float(np.add.reduce(terms, axis=None) / terms.size)
        g_map = g_map + float(lambda1) / terms.size * live[::-1]
    g = backward(g_map)
    # float sums depend on their order and trained weights on rounding, so the
    # order is fixed: last pair first, context map before biased map, BCE last
    for b, c, seg in reversed(segments):
        rows = x[seg].reshape(-1, x.shape[2])
        for role, k in ((1, c), (0, b)):
            g_column = rows.T @ g[role, seg].reshape(-1, 1)
            g_mixer += g_column * params.head[:, k]
            g_head[:, k] += (params.mixer.T @ g_column)[:, 0]
    return overlap, ground, g_mixer, g_head


def cam_objective(
    params, pooled_rows, targets, pairs, pixel_rows, sizes, frozen, lambda1, lambda2
) -> tuple:
    """(loss, g_mixer, g_head) of BCE + lambda1 * mean overlap + lambda2 * mean grounding.

    `pooled_rows` and `targets` are the batch's (n, D_in) pooled rows and
    (n, M) targets; the rest are cam_terms' stack-ordered inputs for the
    same batch. Plain BCE when no sample co-occurs or both weights are 0.
    """
    loss, g_mixer, g_head = bce_objective(params, pooled_rows, targets)
    overlap, ground, cam_mixer, cam_head = cam_terms(
        params, pairs, pixel_rows, sizes, frozen, lambda1, lambda2
    )
    return (loss + overlap * lambda1) + ground * lambda2, cam_mixer + g_mixer, cam_head + g_head


# ---------------------------------------------------------------------------
# feature split with selective suppression


def suppressed_logits(params: mdl.ModelParams, mixed, excl_mask, window) -> tuple:
    """(logits, keep) of the split-head forward for a batch, as one masked product.

    `mixed` is the batch's (n, D) features. Non-exclusive samples use both
    halves. Exclusive samples have their context features masked to zero by
    `keep`; the mean of `window`'s (D/2,) context means takes their place as
    a constant (zeros while it is empty), so nothing upstream of the context
    path learns from them.
    """
    mask = np.asarray(excl_mask, dtype=bool)
    if mask.shape != (len(mixed),):
        raise ValueError("mask length must match batch size")
    cut = np.ix_(mask, params.context_rows)
    keep = np.ones(mixed.shape)
    keep[cut] = 0.0
    fill = np.zeros(mixed.shape)
    if window:
        # oldest first, as np.mean over axis 0 of the stacked entries adds
        fill[cut] = reduce(np.add, window) / len(window)
    return (mixed * keep) @ params.head + fill @ params.head, keep


def feature_split_objective(params, pooled_rows, targets, weights, excl_mask, window) -> tuple:
    """(loss, g_mixer, g_head) of weighted BCE through selective suppression.

    The logit cotangent goes back through the kept features only, so the
    context half learns from non-exclusive samples alone. Once the logits
    have read the window's mean, the batch's non-exclusive samples append
    their mean context features to `window`, a deque(maxlen=CONTEXT_WINDOW).
    """
    mixed = mdl.mix(params, pooled_rows)
    logits, keep = suppressed_logits(params, mixed, excl_mask, window)
    loss, g = bce(logits, targets, weights)
    mask = np.asarray(excl_mask, dtype=bool)
    if not mask.all():
        # np.take, not fancy indexing: the mean's rounding follows the
        # gathered array's memory layout
        ctx = np.take(mixed, params.context_rows, axis=1)
        window.append(ctx[~mask].mean(axis=0))
    return (loss, *_linear_grads(params, pooled_rows, mixed * keep, g, keep))
