"""Recomputations made apart from the debias package, for the output checks.

Nothing here imports debias. Stores and checkpoints are read with
`np.fromfile` from the documented layout (4-byte magic, then little-endian
float32, row-major), features are pooled over the pixels before the
matmuls (pooling is linear, so GAP(X W) H = GAP(X) W H up to rounding), and
average precision comes from a rank oracle of its own.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

MAGIC = b"DBL1"
F32 = np.dtype("<f4")
CHUNK = 2048  # samples per read, so the check's memory stays small

AP_TOL = 1e-9  # APs from the same ranking agree to float rounding


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_manifest(path):
    """(manifest dict, (N, M) int label matrix, store path)."""
    man = load_json(path)
    labels = np.array([s["labels"] for s in man["samples"]], dtype=np.int64)
    return man, labels, os.path.join(os.path.dirname(path), man["store"])


def expected_store_bytes(n, man):
    return len(MAGIC) + n * man["h"] * man["w"] * man["d_in"] * F32.itemsize


def store_layout_ok(man, store_path) -> bool:
    """Size is exactly magic + N*P*D_in float32 and samples sit back to back."""
    n = len(man["samples"])
    per = man["h"] * man["w"] * man["d_in"] * F32.itemsize
    offsets = [s["offset"] for s in man["samples"]]
    with open(store_path, "rb") as fh:
        magic = fh.read(len(MAGIC))
    return (
        magic == MAGIC
        and os.path.getsize(store_path) == expected_store_bytes(n, man)
        and offsets == [len(MAGIC) + i * per for i in range(n)]
    )


def read_store_rows(man, store_path, rows):
    """(len(rows), P, D_in) float64 feature maps of the given sample rows."""
    p = man["h"] * man["w"]
    d = man["d_in"]
    flat = np.fromfile(store_path, dtype=F32, offset=len(MAGIC)).reshape(-1, p, d)
    return flat[np.asarray(rows, dtype=np.intp)].astype(np.float64)


def pooled_store(man, store_path):
    """(N, D_in) pixel means of every sample, read in chunks."""
    n = len(man["samples"])
    p = man["h"] * man["w"]
    d = man["d_in"]
    out = np.empty((n, d))
    with open(store_path, "rb") as fh:
        fh.seek(len(MAGIC))
        for lo in range(0, n, CHUNK):
            k = min(CHUNK, n - lo)
            block = np.fromfile(fh, dtype=F32, count=k * p * d)
            if block.size != k * p * d:
                raise ValueError(f"{store_path}: short read at sample {lo}")
            out[lo:lo + k] = block.reshape(k, p, d).astype(np.float64).mean(axis=1)
    return out


def read_checkpoint(path):
    """(mixer, head) from a checkpoint header and its float32 store."""
    header = load_json(path)
    store = os.path.join(os.path.dirname(path), header["store"])
    d_in, d, m = header["d_in"], header["d"], header["m"]
    with open(store, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise ValueError(f"{store}: bad magic")

    def tensor(offset, shape):
        count = int(np.prod(shape))
        out = np.fromfile(store, dtype=F32, count=count, offset=offset)
        if out.size != count:
            raise ValueError(f"{store}: short read at offset {offset}")
        return out.reshape(shape).astype(np.float64)

    offs = header["offsets"]
    return tensor(offs[0], (d_in, d)), tensor(offs[1], (d, m))


def sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def predictions(pooled, mixer, head):
    return sigmoid((pooled @ mixer) @ head)


def adapted(preds, m, solo_of):
    """Scores over the m original categories; b scores max(b, its solo column)."""
    scores = preds[:, :m].copy()
    for b, solo in solo_of.items():
        scores[:, b] = np.maximum(scores[:, b], preds[:, solo])
    return scores


def rank_ap(scores, labels) -> float:
    """AP with ties broken by input position: precision at each positive's rank."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    order = np.lexsort((np.arange(scores.size), -scores))
    pos_rank = np.flatnonzero(labels[order] == 1) + 1  # 1-based ranks of positives
    hits = np.arange(1, pos_rank.size + 1)
    return math.fsum(hits / pos_rank) / pos_rank.size


def pair_metrics(scores, labels, pairs):
    """Per pair: exclusive AP, co-occur AP and the co/exclusive mean ratio.

    Positives are the exclusive (b without c) or co-occurring (b with c)
    samples; the negatives are every sample without b, listed after the
    positives in sample order.
    """
    rows = []
    for b, c in pairs:
        has_b, has_c = labels[:, b] == 1, labels[:, c] == 1
        ex, co, neg = (np.flatnonzero(has_b & ~has_c), np.flatnonzero(has_b & has_c),
                       np.flatnonzero(~has_b))
        s = scores[:, b]
        ap = {}
        for name, pos in (("ex", ex), ("co", co)):
            idx = np.concatenate([pos, neg])
            ap[name] = rank_ap(s[idx], np.r_[np.ones(pos.size), np.zeros(neg.size)])
        rows.append({"b": b, "c": c, "ap_exclusive": ap["ex"], "ap_cooccur": ap["co"],
                     "bias": float(s[co].mean() / s[ex].mean())})
    return rows


def map_pair(rows):
    return (float(np.mean([r["ap_exclusive"] for r in rows])),
            float(np.mean([r["ap_cooccur"] for r in rows])))


def report_matches(report: dict, rows) -> bool:
    """The report's per-pair APs and bias ratios and its two mAPs equal `rows`."""
    got = report["pairs"]
    if [(r["b"], r["c"]) for r in got] != [(r["b"], r["c"]) for r in rows]:
        return False
    for g, w in zip(got, rows):
        for key in ("ap_exclusive", "ap_cooccur"):
            if abs(g[key] - w[key]) > AP_TOL:
                return False
        if abs(g["bias"] - w["bias"]) > 1e-9 * abs(w["bias"]):
            return False
    ex, co = map_pair(rows)
    return abs(report["map_exclusive"] - ex) <= AP_TOL and abs(
        report["map_cooccur"] - co) <= AP_TOL


def cooccur_overlap(feats, labels, mixer, head, pairs) -> float:
    """Mean product of the two normalized maps over each pair's co-occurring samples.

    A map is relu(X W h_k) per pixel, scaled by its own max plus 1e-8.
    """
    parts = []
    for b, c in pairs:
        rows = np.flatnonzero((labels[:, b] == 1) & (labels[:, c] == 1))
        mixed = feats[rows] @ mixer  # (n, P, D)
        maps = []
        for k in (b, c):
            r = np.maximum(mixed @ head[:, k], 0.0)  # (n, P)
            maps.append(r / (r.max(axis=1, keepdims=True) + 1e-8))
        parts.append((maps[0] * maps[1]).ravel())
    return float(np.mean(np.concatenate(parts)))


def select_pairs(preds, labels, k, freq_threshold):
    """Brute-force biased-pair selection: per b the best-scoring context z
    (ties to the lower z) among those seen with b in at least freq_threshold
    of b's samples, then ranked by score, ties to the lower b."""
    winners = []
    m = labels.shape[1]
    for b in range(m):
        has_b = labels[:, b] == 1
        n_b = int(has_b.sum())
        best = None
        for z in range(m):
            if z == b or n_b == 0:
                continue
            both = has_b & (labels[:, z] == 1)
            excl = has_b & (labels[:, z] == 0)
            nb, ne = int(both.sum()), int(excl.sum())
            if nb < 1 or ne < 1 or nb / n_b < freq_threshold:
                continue
            score = float(preds[both, b].mean() / preds[excl, b].mean())
            if best is None or score > best[0]:
                best = (score, z, nb, ne)
        if best is not None:
            winners.append({"b": b, "c": best[1], "score": best[0],
                            "cooccur_count": best[2], "exclusive_count": best[3]})
    winners.sort(key=lambda w: (-w["score"], w["b"]))
    return winners[:k]


def stage2_rows(labels, method, pairs) -> int:
    """Training rows stage 2 sees: remove_cooccur_images drops every sample
    holding both members of some pair; the other methods keep them all."""
    if method != "remove_cooccur_images":
        return len(labels)
    co = np.zeros(len(labels), dtype=bool)
    for b, c in pairs:
        co |= (labels[:, b] == 1) & (labels[:, c] == 1)
    return int((~co).sum())


def steps(epochs, rows, batch) -> int:
    return epochs * -(-rows // batch)
