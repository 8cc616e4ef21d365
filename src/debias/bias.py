"""Directional bias score and selection of the most biased category pairs.

The score for (b, z) is the mean predicted probability of b over samples
where z is present, divided by the mean over samples where z is absent
(both restricted to samples containing b). A score well above 1 means the
model leans on z to predict b. The relation is directional: a high (b, z)
score says nothing about (z, b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BiasPair:
    biased: int
    context: int
    score: float


@dataclass
class BiasPairSet:
    pairs: list  # BiasPair, sorted by descending score
    shortfall: bool = False  # true when fewer valid pairs exist than requested

    def as_tuples(self):
        return [(p.biased, p.context) for p in self.pairs]


def check_pairs(pairs, m: int) -> None:
    """Refuse a pair outside m categories, of one category or listed twice; (c, b) is not (b, c)."""
    seen = set()
    for b, c in pairs:
        if not (0 <= b < m and 0 <= c < m):
            raise ValueError(f"pair ({b}, {c}) outside {m} categories")
        if b == c:
            raise ValueError(f"pair ({b}, {c}) repeats a category")
        if (b, c) in seen:
            raise ValueError(f"pair ({b}, {c}) listed twice")
        seen.add((b, c))


def pair_splits(labels, pairs) -> tuple:
    """(cooccur, exclusive) (N, len(pairs)) row masks: column j marks pair j = (b, c)'s
    samples labeled b with c, and b without c. Any label but 1 reads as absent."""
    labels = np.asarray(labels)
    bc = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    has_b, has_c = labels[:, bc[:, 0]] == 1, labels[:, bc[:, 1]] == 1
    return has_b & has_c, has_b & ~has_c


def bias_score(preds: np.ndarray, labels: np.ndarray, b: int, z: int) -> float:
    """Ratio of mean predicted probability for b with z present vs absent."""
    preds = np.asarray(preds, dtype=np.float64)
    both, excl = (split[:, 0] for split in pair_splits(labels, [(b, z)]))
    if not both.any() or not excl.any():
        raise ValueError(
            f"bias({b},{z}) undefined: needs samples with and without {z}"
        )
    without = preds[excl, b].mean()
    if without == 0.0:
        raise ValueError(f"bias({b},{z}) undefined: mean prediction of {b} without {z} is 0")
    return float(preds[both, b].mean() / without)


def select_biased_pairs(
    preds: np.ndarray,
    labels: np.ndarray,
    k: int = 20,
    freq_threshold: float = 0.2,
) -> BiasPairSet:
    """Top-k (biased, context) pairs.

    For each category b, context candidates are the z co-occurring with b in
    at least `freq_threshold` of b's samples (and for which the score is
    defined at all); the best-scoring candidate survives, ties going to the
    lowest category index. The per-category winners are then ranked globally
    by score. Fewer than k valid winners sets the shortfall flag.
    Predictions must match the labels' shape and lie in [0, 1].
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0.0 < freq_threshold < 1.0:
        raise ValueError("freq_threshold must be in (0, 1)")
    labels = np.asarray(labels)
    preds = np.asarray(preds, dtype=np.float64)
    if preds.shape != labels.shape:
        raise ValueError(f"preds shape {preds.shape} does not match labels {labels.shape}")
    if not np.isfinite(preds).all():
        raise ValueError("preds contain non-finite values")
    if preds.size and (preds.min() < 0.0 or preds.max() > 1.0):
        raise ValueError(
            f"preds must lie in [0, 1], got values from {preds.min():g} to {preds.max():g}"
        )
    counts = labels.T @ labels
    n_b = np.diag(counts)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 for a category with no samples
        # z seen with b and without it (which rules out z = b), often enough
        candidates = (counts >= 1) & (n_b - counts >= 1) & (counts / n_b >= freq_threshold)
    winners = []
    for b, row in enumerate(candidates):
        zs = np.flatnonzero(row)
        if zs.size:
            scores = [bias_score(preds, labels, b, z) for z in zs]
            best = int(np.argmax(scores))  # the first maximum: ties go to the lowest z
            winners.append(BiasPair(biased=b, context=int(zs[best]), score=scores[best]))
    winners.sort(key=lambda p: (-p.score, p.biased))
    return BiasPairSet(pairs=winners[:k], shortfall=len(winners) < k)


def audit_report(pair_set: BiasPairSet, labels: np.ndarray) -> list:
    """Rows for the audit JSON: score plus the raw counts behind it."""
    both, excl = pair_splits(labels, pair_set.as_tuples())
    return [
        {"b": p.biased, "c": p.context, "score": p.score,
         "cooccur_count": int(n_both), "exclusive_count": int(n_excl)}
        for p, n_both, n_excl in zip(pair_set.pairs, both.sum(axis=0), excl.sum(axis=0))
    ]
