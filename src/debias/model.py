"""The classifier: parameters, the batched forward pass, and checkpoints.

Architecture: a trainable 1x1 channel mixer (D_in -> D linear map applied at
every spatial position), global average pooling, and a bias-free linear head
(D -> M). The head rows are split once, randomly, into an "own" half and a
"context" half; the context half is the part selective suppression freezes
during stage-2 training.

A feature map is a (P, D_in) block of pixel rows, P = H*W. Pooling is linear,
so data.load_pooled pools each store as it reads it, and training and
evaluation forward (n, D_in) pooled rows; pixel rows meet the weights only
where an activation map is needed. Everything here is plain numpy: the
objectives in losses take the gradients of this forward pass in closed form.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import asdict, dataclass

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


def pool_pixels(feats: np.ndarray) -> np.ndarray:
    """(N, D_in) float64 mean of each sample's (P, D_in) pixel rows."""
    return np.mean(feats, axis=1, dtype=np.float64)


def mix(params: ModelParams, pooled_rows: np.ndarray) -> np.ndarray:
    """(n, D) features rows W of (n, D_in) pooled rows: GAP(X W) = GAP(X) W (see pool_pixels)."""
    pooled_rows = dc.as_f64(pooled_rows)
    if pooled_rows.ndim != 2 or pooled_rows.shape[1] != params.d_in:
        raise ValueError(f"bad pooled shape {pooled_rows.shape} for {params.d_in} channels")
    return pooled_rows @ params.mixer


def forward_batch(params: ModelParams, pooled_rows: np.ndarray) -> tuple:
    """(mixed, logits) of a batch of pooled rows: mix's (n, D) features and (n, M) mixed H."""
    mixed = mix(params, pooled_rows)
    return mixed, mixed @ params.head


def predict(params: ModelParams, pooled_rows: np.ndarray) -> np.ndarray:
    """Sigmoid scores of (n, D_in) pooled rows."""
    return dc.sigmoid_values(forward_batch(params, pooled_rows)[1])


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_FORMAT = 2


@dataclass
class _Header:
    """A checkpoint's JSON header; the store holds the mixer, then the head."""

    format: int
    store: str  # store filename, next to the header
    store_bytes: int
    store_sha256: str
    offsets: list  # byte offsets of the mixer and the head
    d_in: int
    d: int
    m: int
    own_rows: list
    context_rows: list
    meta: dict  # a RunRecord


@dataclass
class RunRecord:
    """The training run a checkpoint came from, kept in its header's `meta`."""

    method: str
    seed: int
    config_hash: str
    pairs: list  # [b, c, score] rows
    category_map: list | None  # split_biased: [b, solo] rows


def save_checkpoint(path: str, params: ModelParams, run: RunRecord):
    """JSON header (format version, store length and sha256) next to a DBL1 store."""
    store_name = os.path.basename(path) + ".store"
    store_path = os.path.join(os.path.dirname(os.path.abspath(path)), store_name)
    offsets = data.write_store(store_path, [params.mixer, params.head])
    with open(store_path, "rb") as fh:
        raw = fh.read()
    header = _Header(
        format=CHECKPOINT_FORMAT,
        store=store_name,
        store_bytes=len(raw),
        store_sha256=hashlib.sha256(raw).hexdigest(),
        offsets=offsets,
        d_in=params.d_in,
        d=params.d,
        m=params.m,
        own_rows=params.own_rows.tolist(),
        context_rows=params.context_rows.tolist(),
        meta=asdict(run),
    )
    data.dump_json(asdict(header), path)


def load_checkpoint(path: str):
    """(params, RunRecord), float32-widened, from a store matching its header."""
    doc = data.load_json(path)
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: checkpoint format {fmt!r}, expected {CHECKPOINT_FORMAT}")
    h = _Header(**data._checked_fields(_Header, doc, f"{path}: checkpoint header"))
    for name in ("offsets", "own_rows", "context_rows"):
        if not all(type(v) is int for v in getattr(h, name)):
            raise ValueError(f"{path}: {name} must be a list of integers")
    run = RunRecord(**data._checked_fields(RunRecord, h.meta, f"{path}: checkpoint meta"))
    for name, width in (("pairs", 3), ("category_map", 2)):
        for row in getattr(run, name) or []:
            if not (isinstance(row, list) and len(row) == width
                    and all(type(v) is int for v in row[:2])):
                raise ValueError(
                    f"{path}: meta {name} row {row!r} is not {width} entries led by 2 ints")
    # the hash covers the store, not how the header slices it, so the slices
    # must be the ones write_store gives a (d_in, d) mixer and a (d, m) head
    n_magic = len(data.STORE_MAGIC)
    n_mixer, n_head = 4 * h.d_in * h.d, 4 * h.d * h.m  # float32 bytes
    want = ([n_magic, n_magic + n_mixer], n_magic + n_mixer + n_head)
    if min(h.d_in, h.d, h.m) < 1 or (h.offsets, h.store_bytes) != want:
        raise ValueError(
            f"{path}: offsets {h.offsets} and store_bytes {h.store_bytes} are not the layout "
            f"of a {h.d_in}x{h.d} mixer and a {h.d}x{h.m} head"
        )
    store = os.path.join(os.path.dirname(os.path.abspath(path)), h.store)
    with data._open_input(store) as fh:
        raw = fh.read()
    if len(raw) != h.store_bytes:
        raise ValueError(f"{store}: {len(raw)} bytes, header says {h.store_bytes}")
    if hashlib.sha256(raw).hexdigest() != h.store_sha256:
        raise ValueError(f"{store}: sha256 does not match the checkpoint header")
    if raw[:n_magic] != data.STORE_MAGIC:
        raise ValueError(f"{store}: bad store magic {raw[:n_magic]!r}")

    def tensor(offset, shape):  # float32 from the verified bytes, widened
        flat = np.frombuffer(raw, dtype=data.F32, count=math.prod(shape), offset=offset)
        return flat.reshape(shape).astype(np.float64)

    params = ModelParams(
        mixer=tensor(h.offsets[0], (h.d_in, h.d)),
        head=tensor(h.offsets[1], (h.d, h.m)),
        own_rows=h.own_rows,
        context_rows=h.context_rows,
    )
    return params, run
