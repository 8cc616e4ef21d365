"""Training objectives and the selective-suppression forward rule.

Conventions: targets and per-sample weights enter the graph as constants;
only mixer and head leaves carry gradient. Sums over contributing samples,
pairs, and pixels are realized as means, so loss scale does not drift with
batch size and the published weighting defaults stay meaningful.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from . import diffcore as dc
from . import model as mdl


# ---------------------------------------------------------------------------
# cross-entropy family


def bce_elements(logits: dc.DiffNode, targets) -> dc.DiffNode:
    """Per-element BCE terms (same shape as logits), guarded logs inside."""
    t = dc.as_f64(targets)
    if not ((t == 0.0) | (t == 1.0)).all():
        raise ValueError("targets must be binary")
    return dc.bce_terms(logits, t)


def bce(logits: dc.DiffNode, targets) -> dc.DiffNode:
    """Mean BCE over all categories (and samples, when batched)."""
    return dc.mean_all(bce_elements(logits, targets))


def elementwise_weighted_bce(logits: dc.DiffNode, targets, weights) -> dc.DiffNode:
    """Mean of per-element BCE scaled by a full weight matrix."""
    w = dc.as_f64(weights)
    if w.shape != logits.value.shape:
        raise ValueError("weight matrix must match logits shape")
    return dc.mean_all(dc.mul(dc.constant(w), bce_elements(logits, targets)))


# ---------------------------------------------------------------------------
# loss weighting for skewed pairs


def alpha_weights(labels, pairs, alpha_min: float = 3.0) -> np.ndarray:
    """Per-sample skew weights (N,) from training-set counts.

    Each pair's alpha = max(sqrt(cooccur / exclusive), alpha_min) applies to
    the samples where its biased category shows up without its context; a
    sample exclusive for several pairs takes the largest alpha, every other
    sample weighs 1.
    """
    if alpha_min <= 1.0:
        raise ValueError("alpha_min must exceed 1")
    labels = np.asarray(labels)
    out = np.ones(len(labels))
    for b, c in pairs:
        has_b = labels[:, b] == 1
        co = int(np.sum(has_b & (labels[:, c] == 1)))
        ex = int(has_b.sum()) - co
        if ex == 0 or co == 0:
            raise ValueError(f"pair ({b},{c}) has empty co-occur or exclusive set")
        excl = has_b & (labels[:, c] == 0)
        out[excl] = np.maximum(out[excl], max(math.sqrt(co / ex), float(alpha_min)))
    return out


def exclusive_mask(labels, pairs) -> np.ndarray:
    """True where a sample contains some biased category without its context.

    A sample exclusive for one pair counts as exclusive outright, even if it
    co-occurs for another pair: the context half must never train on context
    evidence for any biased category.
    """
    labels = np.asarray(labels)
    mask = np.zeros(len(labels), dtype=bool)
    for b, c in pairs:
        mask |= (labels[:, b] == 1) & (labels[:, c] == 0)
    return mask


# ---------------------------------------------------------------------------
# CAM losses


class CamSnapshot:
    """Normalized activation maps of the frozen stage-1 model.

    The parameters are copied at construction so later training cannot leak
    in. `table` builds the maps one training stage reads.
    """

    def __init__(self, params: mdl.ModelParams, pairs):
        self.params = mdl.ModelParams(
            mixer=params.mixer.copy(),
            head=params.head.copy(),
            own_rows=params.own_rows.copy(),
            context_rows=params.context_rows.copy(),
        )
        self.pairs = [tuple(p) for p in pairs]
        self.categories = sorted({k for p in self.pairs for k in p})

    def rows(self, feats: np.ndarray, category: int, normalized: bool = True) -> np.ndarray:
        """(n, P) maps of `category` for (n, P, D_in) pixel rows."""
        if category not in self.categories:
            raise ValueError(f"category {category} not covered by the snapshot")
        feats = dc.as_f64(feats)
        n, p, d_in = feats.shape
        # the same (n*P, D_in) @ ((D_in, D) @ (D, 1)) products as the graph's
        # cam_maps, so a grounding loss against an unchanged model is zero
        # to the bit
        column = self.params.mixer @ self.params.head[:, [category]]
        raw = feats.reshape(n * p, d_in) @ column
        return (dc.normalize_block_values(raw, p) if normalized else raw).reshape(n, p)

    def table(self, feats: np.ndarray, batch_size: int, normalized: bool = True) -> dict:
        """{category: (N, P) maps} for every tracked category.

        Built `batch_size` samples at a time, so the (N*P, D) mixed rows
        never exist at once.
        """
        chunks = range(0, len(feats), batch_size)
        return {
            k: np.concatenate(
                [self.rows(feats[s : s + batch_size], k, normalized) for s in chunks]
            )
            for k in self.categories
        }


def cam_maps(trace: mdl.ForwardTrace, pixel_rows, categories, normalized=True) -> list:
    """(k*P, 1) activation maps per category of (k, P, D_in) pixel rows, in the graph.

    The caller gathers only the samples whose maps it needs; their rows enter
    as a constant. Each map is X (W h_k): the mixer meets one head column
    first, so no product is wider than that column. The column is H e_k for
    a one-hot e_k, which reads it out exactly.
    """
    sub = dc.as_f64(pixel_rows)
    rows = dc.constant(sub.reshape(-1, sub.shape[2]))
    m = trace.head_node.shape[1]
    maps = []
    for k in categories:
        if not 0 <= k < m:
            raise ValueError(f"category {k} out of range for {m} categories")
        pick = np.zeros((m, 1))
        pick[k] = 1.0
        column = dc.matmul(trace.mixer_node, dc.matmul(trace.head_node, dc.constant(pick)))
        raw = dc.matmul(rows, column)
        maps.append(dc.normalize_blocks(raw, sub.shape[1]) if normalized else raw)
    return maps


def cam_overlap_terms(map_b: dc.DiffNode, map_c: dc.DiffNode) -> dc.DiffNode:
    """Pixelwise product of two activation maps."""
    return dc.mul(map_b, map_c)


def cam_ground_terms(map_b, map_c, frozen_b, frozen_c) -> dc.DiffNode:
    """|frozen map - live map| summed over the two categories, per pixel."""
    ref_b = dc.constant(dc.as_f64(frozen_b).reshape(-1, 1))
    ref_c = dc.constant(dc.as_f64(frozen_c).reshape(-1, 1))
    return dc.add(
        dc.absval(dc.sub(ref_b, map_b)), dc.absval(dc.sub(ref_c, map_c))
    )


def cam_objective(
    trace, pixel_rows, targets, pairs, frozen, lambda1, lambda2
) -> dc.DiffNode:
    """BCE + lambda1 * mean overlap + lambda2 * mean grounding, for a batch.

    `pixel_rows` are the batch's (n, P, D_in) maps. The CAM terms cover, per
    pair, the samples labeled with both categories; each pair's live maps are
    built once and feed both terms. `frozen` maps each tracked category to
    the snapshot's (n, P) maps of the batch (see CamSnapshot.table); it may
    be None when lambda2 is 0. Plain BCE when no sample co-occurs or both
    weights are 0.
    """
    if lambda1 < 0 or lambda2 < 0:
        raise ValueError("loss weights must be nonnegative")
    if lambda2 > 0 and frozen is None:
        raise ValueError("grounding needs the frozen stage-1 maps")
    t = dc.as_f64(targets)
    root = bce(trace.logits, t)
    if lambda1 == 0 and lambda2 == 0:
        return root
    overlap_parts, ground_parts = [], []
    for b, c in pairs:
        local = np.flatnonzero((t[:, b] == 1) & (t[:, c] == 1))
        if local.size == 0:
            continue
        map_b, map_c = cam_maps(trace, pixel_rows[local], (b, c))
        if lambda1 > 0:
            overlap_parts.append(cam_overlap_terms(map_b, map_c))
        if lambda2 > 0:
            ground_parts.append(
                cam_ground_terms(map_b, map_c, frozen[b][local], frozen[c][local])
            )
    for parts, lam in ((overlap_parts, lambda1), (ground_parts, lambda2)):
        if parts:
            root = dc.add(root, dc.scale(dc.mean_all(dc.concat(parts, axis=0)), lam))
    return root


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

    def snapshot(self) -> list:
        return [e.copy() for e in self.entries]


def suppressed_logits(params: mdl.ModelParams, trace: mdl.ForwardTrace, excl_mask, buffer: RunningMeanBuffer) -> dc.DiffNode:
    """Split-head forward for a batch, as one masked product.

    Non-exclusive samples use both halves with gradients everywhere.
    Exclusive samples have their context features masked to zero; the
    running-mean context vector takes their place through a constant copy
    of the head, so nothing upstream of the context path learns from them.
    """
    mask = np.asarray(excl_mask, dtype=bool)
    if mask.shape != (trace.n,):
        raise ValueError("mask length must match batch size")
    cut = np.ix_(mask, params.context_rows)
    keep = np.ones(trace.pooled.shape)
    keep[cut] = 0.0
    fill = np.zeros(trace.pooled.shape)
    fill[cut] = buffer.mean()
    live = dc.matmul(dc.mul(trace.pooled, dc.constant(keep)), trace.head_node)
    frozen = dc.matmul(dc.constant(fill), dc.constant(trace.head_node.value))
    return dc.add(live, frozen)
