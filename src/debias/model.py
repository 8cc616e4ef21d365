"""The classifier: parameters, the batched forward pass, and checkpoints.

Architecture: a trainable 1x1 channel mixer (D_in -> D linear map applied at
every spatial position), global average pooling, and a bias-free linear head
(D -> M). The head rows are split once, randomly, into an "own" half and a
"context" half; the context half is the part selective suppression freezes
during stage-2 training.

A batch of n feature maps is an (n, P, D_in) array with P = H*W pixel rows
per sample. Pooling is linear, so the logits pool the pixel rows before the
mixer; per-pixel rows are formed only where an activation map is needed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import data
from . import diffcore as dc


@dataclass
class ModelParams:
    mixer: np.ndarray  # (D_in, D)
    head: np.ndarray  # (D, M), no bias term
    own_rows: np.ndarray  # indices of head rows carrying category evidence
    context_rows: np.ndarray  # the suppressible half

    def __post_init__(self):
        self.mixer = dc.as_f64(self.mixer)
        self.head = dc.as_f64(self.head)
        self.own_rows = np.asarray(self.own_rows, dtype=np.intp)
        self.context_rows = np.asarray(self.context_rows, dtype=np.intp)
        d = self.head.shape[0]
        if self.mixer.shape[1] != d:
            raise ValueError("mixer output width must match head input")
        merged = np.sort(np.concatenate([self.own_rows, self.context_rows]))
        if d % 2 or len(self.own_rows) != d // 2 or not np.array_equal(merged, np.arange(d)):
            raise ValueError("own/context rows must partition 0..D-1 into equal halves")

    @property
    def d_in(self):
        return self.mixer.shape[0]

    @property
    def d(self):
        return self.head.shape[0]

    @property
    def m(self):
        return self.head.shape[1]


def split_weights(d: int, seed) -> tuple:
    """Uniform random equal partition of head row indices, fixed by seed."""
    if d % 2:
        raise ValueError("head width must be even to split")
    perm = np.random.default_rng(seed).permutation(d)
    return np.sort(perm[: d // 2]), np.sort(perm[d // 2 :])


def init_params(d_in: int, d: int, m: int, seed) -> ModelParams:
    ss = np.random.SeedSequence(seed)
    s_weights, s_split = ss.spawn(2)
    rng = np.random.default_rng(s_weights)
    mixer = rng.uniform(-1.0, 1.0, size=(d_in, d)) / np.sqrt(d_in)
    head = rng.uniform(-1.0, 1.0, size=(d, m)) / np.sqrt(d)
    own, ctx = split_weights(d, s_split)
    return ModelParams(mixer=mixer, head=head, own_rows=own, context_rows=ctx)


@dataclass
class ForwardTrace:
    """Graph handles for one batched forward pass."""

    h: int
    w: int
    n: int
    mixer_node: dc.DiffNode  # leaf
    head_node: dc.DiffNode  # leaf
    feats: np.ndarray  # (n, P, D_in) pixel rows, constant
    pooled: dc.DiffNode  # (n, D)
    logits: dc.DiffNode  # (n, M)

    @property
    def pixels(self):
        return self.h * self.w


def forward_batch(
    params: ModelParams, feats: np.ndarray, h: int, w: int, mixer_node=None, head_node=None
) -> ForwardTrace:
    """Forward a batch of (n, P, D_in) pixel rows, P = h*w.

    Pooling comes first: GAP(X W) = GAP(X) W, so only the pooled (n, D_in)
    rows meet the mixer. `mixer_node`/`head_node` reuse existing leaves (for
    gradient checks); by default fresh leaves are made from `params`.
    """
    feats = dc.as_f64(feats)
    if feats.ndim != 3 or feats.shape[1:] != (h * w, params.d_in):
        raise ValueError(f"bad feature shape {feats.shape} for {h * w} pixels x {params.d_in}")
    if mixer_node is None:
        mixer_node = dc.leaf(params.mixer)
    if head_node is None:
        head_node = dc.leaf(params.head)
    pooled = dc.matmul(dc.constant(feats.mean(axis=1)), mixer_node)
    return ForwardTrace(
        h=h,
        w=w,
        n=feats.shape[0],
        mixer_node=mixer_node,
        head_node=head_node,
        feats=feats,
        pooled=pooled,
        logits=dc.matmul(pooled, head_node),
    )


def logit_values(params: ModelParams, feats: np.ndarray) -> np.ndarray:
    """Plain-numpy logits for (n, P, D_in) features, pooled first."""
    return (np.mean(feats, axis=1, dtype=np.float64) @ params.mixer) @ params.head


def predict(params: ModelParams, feats: np.ndarray) -> np.ndarray:
    return dc.sigmoid_values(logit_values(params, feats))


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path: str, params: ModelParams, buffer_window=None, meta=None):
    """JSON header next to a DBL1 tensor store.

    `buffer_window` is the running-mean window (list of (D/2,) vectors) so a
    feature-split run can be resumed with its context estimate intact.
    """
    buffer_window = [] if buffer_window is None else list(buffer_window)
    store_name = os.path.basename(path) + ".store"
    store_path = os.path.join(os.path.dirname(os.path.abspath(path)), store_name)
    tensors = [params.mixer, params.head] + buffer_window
    offsets = data.write_store(store_path, tensors)
    header = {
        "d_in": params.d_in,
        "d": params.d,
        "m": params.m,
        "own_rows": params.own_rows.tolist(),
        "context_rows": params.context_rows.tolist(),
        "store": store_name,
        "offsets": offsets,
        "buffer_len": len(buffer_window),
        "meta": meta or {},
    }
    data.dump_json(header, path)


def load_checkpoint(path: str):
    """Returns (params, buffer_window, meta). Values are float32-widened."""
    with open(path, "r", encoding="utf-8") as fh:
        header = json.load(fh)
    store = os.path.join(os.path.dirname(os.path.abspath(path)), header["store"])
    d_in, d, m = header["d_in"], header["d"], header["m"]
    offs = header["offsets"]
    mixer = data.read_tensor(store, offs[0], (d_in, d))
    head = data.read_tensor(store, offs[1], (d, m))
    window = [
        data.read_tensor(store, o, (d // 2,)) for o in offs[2 : 2 + header["buffer_len"]]
    ]
    params = ModelParams(
        mixer=mixer,
        head=head,
        own_rows=header["own_rows"],
        context_rows=header["context_rows"],
    )
    return params, window, header.get("meta", {})
