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

Conventions: targets and per-sample weights are fixed inputs; only the mixer
and head get gradients. Sums over contributing samples, pairs, and pixels are
realized as means, so loss scale does not drift with batch size and the
published weighting defaults stay meaningful. Where several terms reach one
weight, their gradients are summed in one fixed order, so a fixed config
reproduces trained weights bit for bit.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import replace

import numpy as np

from . import bias as bias_mod
from . import diffcore as dc
from . import model as mdl

LOG_GUARD = 1e-12


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
    z, t = dc.as_f64(logits), dc.as_f64(targets)
    if t.shape != z.shape:
        raise ValueError(f"bce: targets {t.shape} vs logits {z.shape}")
    if not ((t == 0.0) | (t == 1.0)).all():
        raise ValueError("targets must be binary")
    s = dc.sigmoid_values(z)
    q = 1.0 - s
    pos = t == 1.0
    p = np.maximum(np.where(pos, s, q), LOG_GUARD)
    terms = -np.log(p)
    g = np.full(terms.shape, 1.0 / terms.size)  # the mean's cotangent
    if weights is not None:
        w = dc.as_f64(weights)
        if w.shape != terms.shape:
            raise ValueError("weight matrix must match logits shape")
        terms, g = w * terms, g * w
    g_p = g * (p > LOG_GUARD) / p
    return float(np.mean(terms)), np.where(pos, 0.0 - g_p, g_p) * s * q


def _linear_grads(params, pooled_rows, feats, g_logits, keep=None) -> tuple:
    """(g_mixer, g_head) of logits = feats H with feats = (pooled_rows W) * keep."""
    g_feats = g_logits @ params.head.T
    if keep is not None:
        g_feats = g_feats * keep
    return dc.as_f64(pooled_rows).T @ g_feats, feats.T @ g_logits


def bce_objective(params: mdl.ModelParams, pooled_rows, targets, weights=None) -> tuple:
    """(loss, g_mixer, g_head) of mean BCE, optionally weighted, on the plain forward."""
    mixed, logits = mdl.forward_batch(params, pooled_rows)
    loss, g = bce(logits, targets, weights)
    return (loss, *_linear_grads(params, pooled_rows, mixed, g))


# ---------------------------------------------------------------------------
# loss weighting for skewed pairs


def alpha_weights(labels, pairs, alpha_min: float = 3.0) -> np.ndarray:
    """Per-sample skew weights (N,) from training-set counts.

    Each pair's alpha = max(sqrt(cooccur / exclusive), alpha_min) applies to
    the samples where its biased category shows up without its context; a
    sample exclusive for several pairs takes the largest alpha, every other
    sample weighs 1. TrainConfig checks that alpha_min exceeds 1.
    """
    out = np.ones(len(labels))
    for b, c in pairs:
        both, excl = bias_mod.pair_masks(labels, b, c)
        if not (both.any() and excl.any()):
            raise ValueError(f"pair ({b},{c}) has empty co-occur or exclusive set")
        out[excl] = np.maximum(out[excl], max(math.sqrt(both.sum() / excl.sum()), float(alpha_min)))
    return out


def exclusive_mask(labels, pairs) -> np.ndarray:
    """True where a sample contains some biased category without its context.

    A sample exclusive for one pair counts as exclusive outright, even if it
    co-occurs for another pair: the context half must never train on context
    evidence for any biased category.
    """
    mask = np.zeros(len(labels), dtype=bool)
    for b, c in pairs:
        mask |= bias_mod.pair_masks(labels, b, c)[1]
    return mask


# ---------------------------------------------------------------------------
# CAM losses


def cam_maps(params: mdl.ModelParams, pixel_rows, category: int) -> np.ndarray:
    """(n, P) raw activation maps of `category` for (n, P, D_in) pixel rows.

    Each map is X (W h_k): the mixer meets the head column first, so no
    product is wider than that column. Training, the frozen snapshot and the
    overlap metric all form their maps here and normalize them with
    peak_normalize, so a grounding term against unchanged weights is zero to
    the bit.
    """
    if not 0 <= category < params.m:
        raise ValueError(f"category {category} out of range for {params.m} categories")
    feats = dc.as_f64(pixel_rows)
    n, p, d_in = feats.shape
    return (feats.reshape(n * p, d_in) @ (params.mixer @ params.head[:, [category]])).reshape(n, p)


def peak_normalize(raw) -> tuple:
    """(maps, backward) of (n, P) raw maps, each row relu'd and divided by its max + 1e-8.

    Every map lands in [0, 1] on its own. `backward` maps the cotangent of
    the maps to that of `raw`, reusing the forward's relu and row peaks. It
    differentiates in reverse-sweep order: the quotient's two cotangents, the
    row sum of the denominator's, the max's share split evenly over ties,
    then the relu mask (subgradient 0 at the kink). Changing that order
    changes the gradients' rounding, and with it trained weights.
    """
    raw = dc.as_f64(raw)
    r = np.maximum(raw, 0.0)
    peaks = r.max(axis=1, keepdims=True)
    denom = peaks + 1e-8

    def backward(g: np.ndarray) -> np.ndarray:
        if g.shape != raw.shape:
            raise ValueError(f"peak_normalize: cotangent {g.shape} vs maps {raw.shape}")
        g_denom = (-g * r / (denom * denom)).sum(axis=1, keepdims=True)
        ties = r == peaks
        g_r = g / denom + ties * (g_denom / ties.sum(axis=1, keepdims=True))
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
        self.categories = sorted({k for p in self.pairs for k in p})

    def rows(self, feats: np.ndarray, category: int) -> np.ndarray:
        """(n, P) normalized maps of `category` for (n, P, D_in) pixel rows."""
        if category not in self.categories:
            raise ValueError(f"category {category} not covered by the snapshot")
        return peak_normalize(cam_maps(self.params, feats, category))[0]

    def table(self, feats: np.ndarray, batch_size: int) -> dict:
        """{category: (N, P) maps} for every tracked category.

        Built `batch_size` samples at a time, so the float64 copy that
        cam_maps makes of the pixel rows (33 MB for a whole 2,000-sample
        train set of 8x8x32 maps) never exists at once.
        """
        chunks = range(0, len(feats), batch_size)
        return {
            k: np.concatenate([self.rows(feats[s : s + batch_size], k) for s in chunks])
            for k in self.categories
        }


def cam_terms(params, pixel_rows, targets, pairs, frozen, lambda1, lambda2) -> tuple:
    """(mean overlap, mean grounding, g_mixer, g_head) of a batch's CAM terms.

    Per pair, the terms cover the samples labeled with both categories, and
    each pair's two normalized maps feed both terms. Overlap is the pixelwise
    product of the maps; grounding is |frozen map - live map| summed over the
    two categories, against the snapshot's (n, P) maps of the batch in
    `frozen` (see CamSnapshot.table; None when lambda2 is 0). A term with
    weight 0, or without samples, reads 0. The gradients are those of
    lambda1 * overlap + lambda2 * grounding.
    """
    if lambda2 > 0 and frozen is None:
        raise ValueError("grounding needs the frozen stage-1 maps")
    maps, overlap, ground = [], [], []
    for b, c in pairs:
        local = np.flatnonzero(bias_mod.pair_masks(targets, b, c)[0])
        if local.size == 0 or lambda1 == lambda2 == 0:
            continue
        x = dc.as_f64(pixel_rows[local])
        live, backward = {}, {}
        for k in (b, c):
            live[k], backward[k] = peak_normalize(cam_maps(params, x, k))
        diff = {k: frozen[k][local] - live[k] for k in (b, c)} if lambda2 > 0 else {}
        if lambda1 > 0:
            overlap.append(live[b] * live[c])
        if diff:
            ground.append(np.abs(diff[b]) + np.abs(diff[c]))
        maps.append((x, (b, c), live, backward, diff))

    # each term is a mean, so every pixel's cotangent is its weight over the count
    g_overlap = float(lambda1) / sum(o.size for o in overlap) if overlap else 0.0
    g_ground = float(lambda2) / sum(o.size for o in ground) if ground else 0.0
    g_mixer, g_head = np.zeros(params.mixer.shape), np.zeros(params.head.shape)
    # Float sums depend on their order, and trained CAM weights depend on
    # rounding, so the order is fixed: last pair first, each pair's context
    # map before its biased map, at each map the grounding cotangent before
    # the overlap one, and cam_objective adds the BCE gradient last.
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


def cam_objective(
    params, pooled_rows, pixel_rows, targets, pairs, frozen, lambda1, lambda2
) -> tuple:
    """(loss, g_mixer, g_head) of BCE + lambda1 * mean overlap + lambda2 * mean grounding.

    `pooled_rows` and `pixel_rows` are the batch's (n, D_in) pooled rows and
    (n, P, D_in) maps; see cam_terms for the CAM terms. Plain BCE when no
    sample co-occurs or both weights are 0.
    """
    loss, g_mixer, g_head = bce_objective(params, pooled_rows, targets)
    overlap, ground, cam_mixer, cam_head = cam_terms(
        params, pixel_rows, targets, pairs, frozen, lambda1, lambda2
    )
    return (loss + overlap * lambda1) + ground * lambda2, cam_mixer + g_mixer, cam_head + g_head


# ---------------------------------------------------------------------------
# feature split with selective suppression


class RunningMeanBuffer:
    """Mean of the pooled context features over the last few minibatches."""

    def __init__(self, width: int, window: int = 10):
        if width <= 0 or window <= 0:
            raise ValueError("width and window must be positive")
        self.width = width
        self.entries = deque(maxlen=window)

    def push(self, batch_mean):
        """Append one batch's (width,) mean; the oldest entry drops out."""
        v = dc.as_f64(batch_mean)
        if v.shape != (self.width,):
            raise ValueError(f"expected vector of length {self.width}, got {v.shape}")
        self.entries.append(v.copy())

    def mean(self) -> np.ndarray:
        if not self.entries:
            return np.zeros(self.width)
        return np.mean(np.stack(self.entries), axis=0)


def suppressed_logits(
    params: mdl.ModelParams, mixed, excl_mask, buffer: RunningMeanBuffer
) -> tuple:
    """(logits, keep) of the split-head forward for a batch, as one masked product.

    `mixed` is the batch's (n, D) features. Non-exclusive samples use both
    halves. Exclusive samples have their context features masked to zero by
    `keep`; the running-mean context vector takes their place as a constant,
    so nothing upstream of the context path learns from them.
    """
    mask = np.asarray(excl_mask, dtype=bool)
    if mask.shape != (len(mixed),):
        raise ValueError("mask length must match batch size")
    cut = np.ix_(mask, params.context_rows)
    keep = np.ones(mixed.shape)
    keep[cut] = 0.0
    fill = np.zeros(mixed.shape)
    fill[cut] = buffer.mean()
    return (mixed * keep) @ params.head + fill @ params.head, keep


def feature_split_objective(params, pooled_rows, targets, weights, excl_mask, buffer) -> tuple:
    """(loss, g_mixer, g_head) of weighted BCE through selective suppression.

    The logit cotangent goes back through the kept features only, so the
    context half learns from non-exclusive samples alone. Once the logits
    have read the running mean, the batch's non-exclusive samples push their
    mean context features into `buffer`.
    """
    mixed, _ = mdl.forward_batch(params, pooled_rows)
    logits, keep = suppressed_logits(params, mixed, excl_mask, buffer)
    loss, g = bce(logits, targets, weights)
    mask = np.asarray(excl_mask, dtype=bool)
    if not mask.all():
        # np.take, not fancy indexing: the mean's rounding follows the
        # gathered array's memory layout
        ctx = np.take(mixed, params.context_rows, axis=1)
        buffer.push(ctx[~mask].mean(axis=0))
    return (loss, *_linear_grads(params, pooled_rows, mixed * keep, g, keep))
