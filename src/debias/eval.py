"""Exclusive/co-occur evaluation protocol and ranking metrics.

Per biased pair, the test set is cut three ways: exclusive positives (b
without c), co-occurring positives (b with c), and a shared negative pool
(samples without b). AP over exclusive-plus-negatives vs co-occur-plus-
negatives isolates how much of b's score depends on c being in the image.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import bias as bias_mod
from . import data
from . import model as mdl


def average_precision(scores, labels) -> float:
    """AP with stable tie handling: equal scores keep original sample order."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have equal length")
    if not np.isfinite(scores).all():
        raise ValueError("scores contain non-finite values")
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be binary")
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValueError("average_precision needs at least one positive")
    order = np.argsort(-scores, kind="stable")
    ranked = labels[order]
    hits = np.cumsum(ranked)
    ranks = np.arange(1, len(ranked) + 1)
    # fsum: exactly-rounded, so the value is independent of summation order
    return math.fsum(hits[ranked == 1] / ranks[ranked == 1]) / n_pos


def topk_recall(scores, labels, k: int) -> dict:
    """Per-class fraction of positives ranked in their sample's top k.

    Classes without positives are omitted entirely rather than reported as 0.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have equal shape")
    n, m = scores.shape
    top = np.argsort(-scores, axis=1, kind="stable")[:, : min(k, m)]
    in_top = np.zeros((n, m), dtype=bool)
    np.put_along_axis(in_top, top, True, axis=1)
    out = {}
    for j in range(m):
        pos = labels[:, j] == 1
        if not pos.any():
            continue
        out[j] = float(in_top[pos, j].mean())
    return out


def weight_cosine(params: mdl.ModelParams, pair) -> float:
    b, c = pair
    u, v = params.head[:, b], params.head[:, c]
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine undefined for a zero-norm weight column")
    return float(u @ v / (nu * nv))


# ---------------------------------------------------------------------------
# full-report evaluation


@dataclass
class _PairRow:
    """The keys of one report row; an invalid split has no AP or bias keys."""

    b: int
    c: int
    valid: bool
    cosine: float | None = None
    ap_exclusive: float | None = None
    ap_cooccur: float | None = None
    bias: float | None = None


@dataclass
class EvalReport:
    method: str
    seed: int | None
    config_hash: str
    k: int
    pairs: list  # one _PairRow dict per pair, in input order
    map_exclusive: float | None
    map_cooccur: float | None
    mean_cosine: float | None
    topk_recall: dict  # str(class index) -> recall

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        """Inverse of to_dict; unknown, missing or mistyped keys raise ValueError."""
        rep = cls(**data._checked_fields(cls, d, "report"))
        for i, row in enumerate(rep.pairs):
            data._checked_fields(_PairRow, row, f"report pair {i}")
        return rep


def adapted_scores(preds: np.ndarray, m: int, category_map) -> np.ndarray:
    """Scores over the original m categories.

    For a split-biased model the biased category is scored as the max of its
    two columns (with-context and solo), so both halves count as b.
    """
    preds = np.asarray(preds, dtype=np.float64)
    scores = preds[:, :m].copy()
    for b, solo in category_map:
        scores[:, b] = np.maximum(scores[:, b], preds[:, solo])
    return scores


def evaluate(
    params: mdl.ModelParams,
    manifest: data.DatasetManifest,
    pooled,
    pairs,
    method: str = "",
    seed=None,
    config_hash: str = "",
    k: int = 3,
    category_map=None,
) -> EvalReport:
    """Score a checkpoint on the exclusive/co-occur protocol.

    `pooled` holds the manifest's pooled rows (data.load_pooled), which a
    caller that evaluates several checkpoints on one set reads once.
    `pairs` are (b, c) tuples over the ORIGINAL categories; for split-biased
    checkpoints pass the training category_map so b is scored as the max of
    its two split columns; the head must hold the manifest's categories plus
    one solo column per map entry. Pure: identical inputs give identical
    reports.
    """
    m = len(manifest.categories)
    category_map = category_map or []
    if params.m != m + len(category_map) or not all(
        0 <= b < m <= solo < params.m for b, solo in category_map
    ):
        raise ValueError(
            f"head has {params.m} columns, but {m} categories and category map "
            f"{[list(e) for e in category_map]} need {m + len(category_map)}, "
            f"with every solo column in [{m}, {params.m})"
        )
    labels = manifest.label_matrix()
    if len(pooled) != len(manifest.samples):
        raise ValueError(f"{len(pooled)} pooled rows for {len(manifest.samples)} samples")
    scores = adapted_scores(mdl.predict(params, pooled), m, category_map)

    rows = []
    for b, c in pairs:
        co, excl = bias_mod.pair_masks(labels, b, c)
        # the cosine only involves weights, so an invalid split still gets one
        row = {"b": b, "c": c, "valid": bool(excl.any() and co.any()),
               "cosine": weight_cosine(params, (b, c))}
        if row["valid"]:
            neg = scores[labels[:, b] != 1, b]
            for key, pos in (("ap_exclusive", excl), ("ap_cooccur", co)):
                row[key] = average_precision(
                    np.concatenate([scores[pos, b], neg]),
                    np.concatenate([np.ones(pos.sum()), np.zeros(neg.size)]),
                )
            row["bias"] = bias_mod.bias_score(scores, labels, b, c)
        else:
            warnings.warn(f"pair ({b},{c}) has an empty split; excluded from aggregates")
        rows.append(row)

    def valid_mean(key):
        vals = [row[key] for row in rows if row["valid"]]
        return float(np.mean(vals)) if vals else None

    topk = topk_recall(scores, labels, k)
    return EvalReport(
        method=method,
        seed=seed,
        config_hash=config_hash,
        k=k,
        pairs=rows,
        map_exclusive=valid_mean("ap_exclusive"),
        map_cooccur=valid_mean("ap_cooccur"),
        mean_cosine=valid_mean("cosine"),
        topk_recall={str(j): v for j, v in topk.items()},
    )


def save_report(report: EvalReport, path):
    data.dump_json(report.to_dict(), path)


def write_comparison_csv(reports: dict, path):
    """One row per pair: bias plus each method's exclusive/co-occur AP.

    `reports` maps method name to EvalReport, each on the same pairs in the
    same order; the bias column comes from the standard method when present,
    else the alphabetically first.
    """
    if not reports:
        raise ValueError("no reports to tabulate")
    methods = sorted(reports)
    anchor = reports.get("standard", reports[methods[0]])
    header = ["biased", "cooccur", "bias"]
    for name in methods:
        header += [f"{name}_exclusive", f"{name}_cooccur"]
    lines = [",".join(header)]
    for i, row in enumerate(anchor.pairs):
        cells = [str(row["b"]), str(row["c"]), _fmt(row.get("bias"))]
        for name in methods:
            other = reports[name].pairs[i]
            cells += [_fmt(other.get("ap_exclusive")), _fmt(other.get("ap_cooccur"))]
        lines.append(",".join(cells))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _fmt(v) -> str:
    return "" if v is None else f"{v:.6f}"
