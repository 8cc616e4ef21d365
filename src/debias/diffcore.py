"""Reverse-mode automatic differentiation over dense float64 arrays.

The graph is built eagerly: every operation allocates a DiffNode holding the
computed value, references to its parents, and a vector-Jacobian callback.
Values are numpy float64 arrays treated as immutable once wrapped. A node can
only reference nodes created before it, so graphs are acyclic by construction,
and the backward pass walks nodes in descending creation order. That fixes the
reduction order and makes runs bit-reproducible.

Shapes are checked eagerly and violations raise ValueError. Elementwise ops
require identical shapes; matmul takes 2-d operands only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

LOG_GUARD = 1e-12

_counter = itertools.count()


def as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class DiffNode:
    """One value in the evaluation graph.

    `vjp` maps the cotangent arriving at this node to a tuple of cotangents
    for the parents (None entries carry no gradient). `requires` is true when
    some tracked leaf is reachable through differentiable edges.
    """

    __slots__ = ("value", "parents", "vjp", "requires", "idx")

    def __init__(self, value, parents=(), vjp=None, requires=False):
        self.value = as_f64(value)
        self.parents = tuple(parents)
        self.vjp = vjp
        self.requires = bool(requires)
        self.idx = next(_counter)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"DiffNode(shape={self.value.shape}, idx={self.idx})"


def leaf(value) -> DiffNode:
    """Gradient-tracked input."""
    return DiffNode(value, requires=True)


def constant(value) -> DiffNode:
    """Input that never receives gradient."""
    return DiffNode(value, requires=False)


def _node(value, parents, vjp) -> DiffNode:
    req = any(p.requires for p in parents)
    return DiffNode(value, parents=parents, vjp=vjp, requires=req)


def _same_shape(a: DiffNode, b: DiffNode, opname: str):
    if a.value.shape != b.value.shape:
        raise ValueError(
            f"{opname}: shape mismatch {a.value.shape} vs {b.value.shape}"
        )


# ---------------------------------------------------------------------------
# ops


def matmul(a: DiffNode, b: DiffNode) -> DiffNode:
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2:
        raise ValueError("matmul supports 2-d operands only")
    if av.shape[1] != bv.shape[0]:
        raise ValueError(f"matmul: inner dims {av.shape} @ {bv.shape}")
    need_a, need_b = a.requires, b.requires

    def vjp(g):
        # skip the product for a parent that needs no gradient, such as the
        # constant pixel rows
        return (g @ bv.T if need_a else None), (av.T @ g if need_b else None)

    return _node(av @ bv, (a, b), vjp)


def add(a: DiffNode, b: DiffNode) -> DiffNode:
    _same_shape(a, b, "add")
    return _node(a.value + b.value, (a, b), lambda g: (g, g))


def scale(a: DiffNode, s: float) -> DiffNode:
    s = float(s)
    return _node(a.value * s, (a,), lambda g: (g * s,))


def sub(a: DiffNode, b: DiffNode) -> DiffNode:
    return add(a, scale(b, -1.0))


def mul(a: DiffNode, b: DiffNode) -> DiffNode:
    _same_shape(a, b, "mul")
    av, bv = a.value, b.value
    return _node(av * bv, (a, b), lambda g: (g * bv, g * av))


def sigmoid_values(v: np.ndarray) -> np.ndarray:
    # clip keeps exp() in range; inactive for |v| <= 40 so gradient checks
    # on ordinary magnitudes are exact
    return 1.0 / (1.0 + np.exp(-np.clip(v, -40.0, 40.0)))


def bce_terms(logits: DiffNode, targets) -> DiffNode:
    """Per-element binary cross-entropy of sigmoid(logits) against 0/1 targets.

    -(t log(max(s, LOG_GUARD)) + (1 - t) log(max(1 - s, LOG_GUARD))) with
    s = sigmoid_values(logits), so each log is flat (zero gradient) below the
    guard. The VJP does the arithmetic of the sigmoid -> log -> mul -> add
    chain in the order eval_backward ran it: the negation, the two guarded
    log branches (the 1 - s branch negated), their sum, then the sigmoid
    derivative. Changing that order changes the gradients' rounding, and
    with it trained weights.
    """
    t = as_f64(targets)
    if t.shape != logits.value.shape:
        raise ValueError(f"bce_terms: targets {t.shape} vs logits {logits.value.shape}")
    s = sigmoid_values(logits.value)
    q = 1.0 - s
    out = -(t * np.log(np.maximum(s, LOG_GUARD)) + (1.0 - t) * np.log(np.maximum(q, LOG_GUARD)))

    def vjp(g):
        g_pos = -g * t * (s > LOG_GUARD) / np.maximum(s, LOG_GUARD)
        g_neg = -(-g * (1.0 - t) * (q > LOG_GUARD) / np.maximum(q, LOG_GUARD))
        return ((g_neg + g_pos) * s * (1.0 - s),)

    return _node(out, (logits,), vjp)


def absval(a: DiffNode) -> DiffNode:
    av = a.value
    return _node(np.abs(av), (a,), lambda g: (g * np.sign(av),))


def mean_all(a: DiffNode) -> DiffNode:
    av = a.value
    n = av.size
    return _node(
        np.mean(av), (a,), lambda g: (np.broadcast_to(g / n, av.shape).copy(),)
    )


def normalize_block_values(v: np.ndarray, block: int) -> np.ndarray:
    """relu, then each block of `block` rows divided by its column max + 1e-8."""
    v = as_f64(v)
    if v.ndim != 2 or block <= 0 or v.shape[0] % block:
        raise ValueError(f"normalize: shape {v.shape} is not blocks of {block} rows")
    r = np.maximum(v, 0.0).reshape(-1, block, v.shape[1])
    return (r / (r.max(axis=1, keepdims=True) + 1e-8)).reshape(v.shape)


def normalize_blocks(a: DiffNode, block: int) -> DiffNode:
    """normalize_block_values in the graph, so maps land in [0, 1] per block.

    The VJP differentiates relu(x) / (block max of relu(x) + 1e-8) in
    reverse-sweep order: the quotient's two cotangents, the block sum of the
    denominator's, the max's share split evenly over ties, then the relu
    mask (subgradient 0 at the kink). Changing that order changes the
    gradients' rounding, and with it trained weights.
    """
    av = a.value
    out = normalize_block_values(av, block)
    groups, cols = av.shape[0] // block, av.shape[1]

    def vjp(g):
        r = np.maximum(av, 0.0)
        peaks = r.reshape(groups, block, cols).max(axis=1)
        denom = np.repeat(peaks + 1e-8, block, axis=0)
        g_r = g / denom
        g_denom = (-g * r / (denom * denom)).reshape(groups, block, cols).sum(axis=1)
        ties = r == np.repeat(peaks, block, axis=0)
        counts = ties.reshape(groups, block, cols).sum(axis=1)
        g_r = g_r + ties * np.repeat(g_denom / counts, block, axis=0)
        return (g_r * (av > 0.0),)

    return _node(out, (a,), vjp)


def concat(nodes, axis: int = 0) -> DiffNode:
    nodes = list(nodes)
    if not nodes:
        raise ValueError("concat of zero nodes")
    vals = [n.value for n in nodes]
    out = np.concatenate(vals, axis=axis)
    sizes = [v.shape[axis] for v in vals]
    bounds = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.array(p) for p in np.split(g, bounds, axis=axis))

    return _node(out, tuple(nodes), vjp)


# ---------------------------------------------------------------------------
# backward pass


def eval_backward(root: DiffNode) -> dict:
    """Reverse-mode sweep from a scalar root.

    Returns {leaf DiffNode: gradient array} for every gradient-tracked leaf
    reachable from the root. Gradients of interior nodes are dropped once
    propagated.
    """
    if root.value.ndim != 0:
        raise ValueError(f"backward root must be scalar, got shape {root.value.shape}")

    reachable = []
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        reachable.append(node)
        stack.extend(node.parents)

    # parents always precede children in creation order
    reachable.sort(key=lambda n: n.idx, reverse=True)

    # an op node requires grad iff some parent does, so every node that
    # requires it is reached through nodes that do and receives a gradient
    grads: dict[int, np.ndarray] = {id(root): np.ones(())}
    for node in reachable:
        if node.vjp is None or not node.requires:
            continue
        g = grads.pop(id(node))
        for parent, pg in zip(node.parents, node.vjp(g)):
            if not parent.requires:  # matmul's VJP gives None for these
                continue
            prev = grads.get(id(parent))
            grads[id(parent)] = pg if prev is None else prev + pg

    return {node: grads[id(node)] for node in reachable if node.requires and not node.parents}


# ---------------------------------------------------------------------------
# gradient checking and SGD


def finite_diff_check(build, params: dict, eps: float = 1e-5, wrt=None) -> float:
    """Max relative error between analytic and central-difference gradients.

    `build` maps {name: DiffNode} to a scalar DiffNode and must be
    deterministic. `params` holds the base point as float64 arrays. `wrt`
    restricts the check to a subset of names (useful when some parameter
    also enters through a constant copy of its value, so part of its
    gradient is dropped by design rather than by calculus).
    """
    if not 0.0 < eps <= 1e-3:
        raise ValueError("eps must be in (0, 1e-3]")
    base = {k: as_f64(v) for k, v in params.items()}
    names = sorted(base) if wrt is None else list(wrt)

    leaves = {k: leaf(v) for k, v in base.items()}
    root = build(leaves)
    gmap = eval_backward(root)
    analytic = {k: gmap[leaves[k]] for k in names}

    def value_at(point) -> float:
        r = build({k: leaf(v) for k, v in point.items()})
        v = float(r.value)
        if not math.isfinite(v):
            raise ValueError("non-finite loss during finite-difference probe")
        return v

    worst = 0.0
    for k in names:
        flat = base[k].reshape(-1)
        aflat = as_f64(analytic[k]).reshape(-1)
        for i in range(flat.size):
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
