"""Synthetic biased multi-label datasets, tensor stores, and manifests.

A dataset is a JSON manifest plus a flat binary tensor store. Each sample is
an H x W x D_in feature map (a planted rectangular region per present
category times that category's channel signature, plus Gaussian noise) and a
binary label vector. Co-occurrence skew is planted explicitly: each
(biased, context) pair gets `cooccur_count` samples labeled with both and
`exclusive_count` labeled with the biased category alone, so the skew is
countable after the fact.

Store format: 4-byte magic ``DBL1`` then raw little-endian float32 values,
row-major, one slot per sample. A manifest file gives each sample's byte
offset and label list; in memory a sample is its id and store row, and the
labels are one (N, M) array. Stores are written and pooled BLOCK samples at
a time: training and evaluation read pooled rows (load_pooled), and only the
CAM terms read pixel maps (load_maps), of the samples they need, so no code
path holds a whole store.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import model as mdl

STORE_MAGIC = b"DBL1"
F32 = np.dtype("<f4")
BLOCK = 256  # samples per store read or write


# ---------------------------------------------------------------------------
# tensor store


def _open_input(path):
    """Open an input file for binary reading; a missing one is a ValueError naming it."""
    try:
        return open(path, "rb")
    except FileNotFoundError:
        raise ValueError(f"no file at {path}") from None


def _open_store(path):
    """Open a store for reading, after checking its magic."""
    fh = _open_input(path)
    magic = fh.read(len(STORE_MAGIC))
    if magic != STORE_MAGIC:
        fh.close()
        raise ValueError(f"{path}: bad store magic {magic!r}")
    return fh


def _read_into(fh, path, offset: int, buf: np.ndarray):
    fh.seek(offset)
    if fh.readinto(buf) != buf.nbytes:
        raise ValueError(f"{path}: truncated read at offset {offset}")


def write_store(path, arrays) -> list:
    """Write `arrays` as one store; returns each array's byte offset."""
    offsets = []
    with open(path, "wb") as fh:
        fh.write(STORE_MAGIC)
        for a in arrays:
            offsets.append(fh.tell())
            fh.write(np.ascontiguousarray(a, dtype=F32).tobytes())
    return offsets


# ---------------------------------------------------------------------------
# manifest types

NOT_JSON = {"json": False}  # metadata of a field that no document holds


@dataclass
class SampleRef:
    id: str
    row: int  # the sample's slot in the store


@dataclass
class DatasetManifest:
    categories: list
    h: int
    w: int
    d_in: int
    samples: list
    labels: np.ndarray = field(metadata=NOT_JSON)  # (N, M) int64 0/1, row i is samples[i]'s
    generator_config: dict | None = None
    split_tag: str = "train"
    store: str | None = None  # store filename, relative to the manifest dir
    root: str | None = field(default=None, metadata=NOT_JSON)  # directory of the manifest file

    def store_path(self):
        if self.store is None:
            raise ValueError("manifest has no tensor store")
        return os.path.join(self.root or ".", self.store)

    def to_dict(self) -> dict:
        slot = self.h * self.w * self.d_in * F32.itemsize
        return {
            "categories": list(self.categories),
            "h": self.h,
            "w": self.w,
            "d_in": self.d_in,
            "samples": [
                {"id": s.id, "offset": len(STORE_MAGIC) + s.row * slot, "labels": row}
                for s, row in zip(self.samples, self.labels.tolist())
            ],
            "generator_config": self.generator_config,
            "split_tag": self.split_tag,
            "store": self.store,
        }

    @classmethod
    def from_dict(cls, d: dict, root=None) -> "DatasetManifest":
        """Inverse of to_dict with sample i in store row i; unknown, missing or mistyped
        keys or samples, repeated ids and labels other than M integers 0 or 1 raise ValueError."""
        kwargs = _checked_fields(cls, d, "manifest")
        try:  # a sample lacking any of the three keys is refused; load_manifest checks offsets
            parsed = [(s["id"], s["offset"], s["labels"]) for s in d["samples"]]
        except (KeyError, TypeError) as e:
            raise ValueError(f"manifest: malformed sample: {type(e).__name__} {e}") from None
        if min(d["h"], d["w"], d["d_in"]) < 1:
            raise ValueError(f"h, w, d_in must be positive integers, got {d['h']}, {d['w']}, "
                             f"{d['d_in']}")
        ids = [sid for sid, _, _ in parsed]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate sample ids in manifest")
        n_cat = len(d["categories"])
        for sid, _, labels in parsed:
            if len(labels) != n_cat:
                raise ValueError(f"sample {sid}: {len(labels)} labels, expected {n_cat}")
        # pair splits read any label but 1 as absent (one pass: a set per sample is slower)
        flat = [v for _, _, labels in parsed for v in labels]
        if not set(map(type, flat)) <= {int} or not set(flat) <= {0, 1}:
            i = next(i for i, v in enumerate(flat) if type(v) is not int or v not in (0, 1))
            sid, _, labels = parsed[i // n_cat]
            raise ValueError(f"sample {sid}: labels must be the integers 0 or 1, got {labels}")
        kwargs["samples"] = [SampleRef(sid, i) for i, sid in enumerate(ids)]
        kwargs["labels"] = np.array(flat, dtype=np.int64).reshape(len(parsed), n_cat)
        return cls(**kwargs, root=root)


def dump_json(obj, path):
    # compact on purpose: with `indent` set, json falls back to its pure-Python encoder
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")


def load_json(path):
    with _open_input(path) as fh:
        return json.load(fh)


def load_manifest(path) -> DatasetManifest:
    """A checked manifest whose store holds sample i's maps in slot i, as written."""
    doc = load_json(path)
    m = DatasetManifest.from_dict(doc, root=os.path.dirname(os.path.abspath(path)))
    if m.store is not None:
        slot = m.h * m.w * m.d_in * F32.itemsize
        want = len(STORE_MAGIC) + len(m.samples) * slot
        with _open_input(m.store_path()) as fh:
            got = fh.seek(0, os.SEEK_END)
        if got != want:
            raise ValueError(
                f"{m.store_path()}: {got} bytes, expected {want} for "
                f"{len(m.samples)} samples of {m.h}x{m.w}x{m.d_in}"
            )
        offsets = [s["offset"] for s in doc["samples"]]
        slots = len(STORE_MAGIC) + slot * np.arange(len(offsets))
        if not set(map(type, offsets)) <= {int} or not np.array_equal(offsets, slots):
            i = next(i for i, o in enumerate(offsets) if type(o) is not int or o != slots[i])
            raise ValueError(
                f"sample {m.samples[i].id}: offset {offsets[i]!r}, expected {slots[i]} (slot {i})"
            )
    return m


def _read_rows(fh, path, rows, buf: np.ndarray) -> np.ndarray:
    """The maps of store `rows` in buf's leading rows, one read per run of consecutive rows."""
    out, rows = buf[: len(rows)], np.asarray(rows, dtype=np.int64)
    # a run starts at every row that does not follow the one before it
    starts = np.flatnonzero(np.diff(rows, prepend=-2) != 1)
    for lo, hi in zip(starts, [*starts[1:], len(out)]):
        _read_into(fh, path, len(STORE_MAGIC) + int(rows[lo]) * buf.strides[0], out[lo:hi])
    return out


def load_pooled(manifest: DatasetManifest) -> np.ndarray:
    """(N, D_in) float64 pooled rows (model.pool_pixels) of every sample.

    The maps pass BLOCK samples at a time through one reused float32 buffer,
    so memory grows with N * D_in, not with the store. Pooling a block gives
    each sample the bytes that pooling all maps at once gives. A sample with a
    non-finite value raises a ValueError that names the store and the sample.
    """
    path, rows = manifest.store_path(), [s.row for s in manifest.samples]
    # the kept rows first, so the scratch buffer sits above them on the heap
    # and its memory can be given back once it is freed
    pooled = np.empty((len(rows), manifest.d_in))
    buf = np.empty((min(BLOCK, len(rows)), manifest.h * manifest.w, manifest.d_in), dtype=F32)
    with _open_store(path) as fh:
        for s in range(0, len(rows), BLOCK):
            pooled[s : s + BLOCK] = mdl.pool_pixels(_read_rows(fh, path, rows[s : s + BLOCK], buf))
    bad = np.flatnonzero(~np.isfinite(pooled).all(axis=1))
    if len(bad):
        raise ValueError(f"{path}: sample {manifest.samples[bad[0]].id} has non-finite values")
    return pooled


def load_maps(manifest: DatasetManifest, indices) -> np.ndarray:
    """(len(indices), H*W, D_in) float32 pixel maps of the samples at `indices`, as stored."""
    path, rows = manifest.store_path(), [manifest.samples[i].row for i in indices]
    maps = np.empty((len(rows), manifest.h * manifest.w, manifest.d_in), dtype=F32)
    with _open_store(path) as fh:
        return _read_rows(fh, path, rows, maps)


# ---------------------------------------------------------------------------
# generator config


@dataclass(frozen=True)
class PlantedPair:
    biased: int
    context: int
    exclusive_fraction: float
    cooccur_count: int
    exclusive_count: int


@dataclass
class GenConfig:
    m: int
    h: int
    w: int
    d_in: int
    planted_pairs: list
    regions: list  # per category: (r0, c0, r1, c1), half-open
    signatures: list  # per category: unit-norm vector of length d_in
    noise_std: float
    seed: int
    n_filler: int = 0
    filler_max_labels: int = 3
    # categories filler samples may draw labels from; None = every category
    # that is not the biased member of a planted pair. Restricting the pool
    # to categories outside all pairs keeps context categories from ever
    # appearing alone, which is what makes the planted shortcut attractive.
    filler_pool: list | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        d["regions"] = [list(map(int, r)) for r in self.regions]
        d["signatures"] = [[float(v) for v in s] for s in self.signatures]
        if self.filler_pool is not None:
            d["filler_pool"] = [int(k) for k in self.filler_pool]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GenConfig":
        """Inverse of to_dict; unknown, missing or mistyped keys raise ValueError."""
        kwargs = _checked_fields(cls, d, "gen config")
        kwargs["planted_pairs"] = [
            PlantedPair(**_checked_fields(PlantedPair, p, "planted pair"))
            for p in kwargs["planted_pairs"]
        ]
        for k, (r, sig) in enumerate(zip(kwargs["regions"], kwargs["signatures"])):
            if not (isinstance(r, list) and len(r) == 4 and all(type(v) is int for v in r)):
                raise ValueError(f"gen config: region {k} must be a list of 4 integers")
            if not (isinstance(sig, list) and all(type(v) in (int, float) for v in sig)):
                raise ValueError(f"gen config: signature {k} must be a list of numbers")
        if not all(type(k) is int for k in kwargs.get("filler_pool") or ()):
            raise ValueError("gen config: filler_pool must list integers")
        kwargs["regions"] = [tuple(r) for r in kwargs["regions"]]
        return cls(**kwargs)


# JSON types accepted for each annotated field type of a parsed document
# (a nested dc.SgdConfig arrives as an object and is checked on its own)
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool, "list": list,
               "dict": dict, "dc.SgdConfig": dict,
               "int | None": (int, type(None)), "float | None": (int, float, type(None)),
               "str | None": (str, type(None)), "list | None": (list, type(None)),
               "dict | None": (dict, type(None))}


def _checked_fields(cls, d, what) -> dict:
    """`d` as keyword arguments of dataclass `cls`, each key known, present and typed."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object")
    known = {f.name: f for f in fields(cls) if f.metadata.get("json", True)}
    unknown = sorted(set(d) - set(known))
    missing = [k for k, f in known.items() if f.default is MISSING and k not in d]
    for label, keys in (("unknown", unknown), ("missing", missing)):
        if keys:
            raise ValueError(f"{what}: {label} keys {keys}")
    for k, v in d.items():
        want = _JSON_TYPES[known[k].type]
        if (isinstance(v, bool) and want is not bool) or not isinstance(v, want):
            raise ValueError(f"{what}: {k} must be {known[k].type}, not {type(v).__name__}")
    return dict(d)


def _check_config(cfg: GenConfig):
    if len(cfg.regions) != cfg.m or len(cfg.signatures) != cfg.m:
        raise ValueError("need one region and one signature per category")
    for k, (r0, c0, r1, c1) in enumerate(cfg.regions):
        if not (0 <= r0 < r1 <= cfg.h and 0 <= c0 < c1 <= cfg.w):
            raise ValueError(f"category {k}: region {(r0, c0, r1, c1)} out of bounds")
    for s in cfg.signatures:
        if len(s) != cfg.d_in:
            raise ValueError("signature length must equal d_in")
    if cfg.n_filler < 0:
        raise ValueError(f"n_filler must be nonnegative, got {cfg.n_filler}")
    if cfg.filler_max_labels < 1:
        raise ValueError(f"filler_max_labels must be at least 1, got {cfg.filler_max_labels}")
    if not cfg.planted_pairs and cfg.n_filler < 1:
        raise ValueError("config makes no samples: no planted pairs and no filler")
    biased_seen = set()
    for p in cfg.planted_pairs:
        if p.biased == p.context:
            raise ValueError("planted pair must use two distinct categories")
        if not (0 <= p.biased < cfg.m and 0 <= p.context < cfg.m):
            raise ValueError("planted pair category out of range")
        if p.biased in biased_seen:
            raise ValueError("a category may be the biased member of one pair only")
        biased_seen.add(p.biased)
        if p.cooccur_count < 1 or p.exclusive_count < 1:
            raise ValueError("planted pair needs at least one sample of each kind")
        if not 0.0 < p.exclusive_fraction < 1.0:
            raise ValueError("exclusive_fraction must be in (0, 1)")
        if _rects_overlap(cfg.regions[p.biased], cfg.regions[p.context]):
            raise ValueError("planted pair regions must be disjoint")
    if cfg.noise_std < 0:
        raise ValueError("noise_std must be nonnegative")
    if cfg.seed < 0:
        raise ValueError(f"seed must be nonnegative, got {cfg.seed}")
    if cfg.filler_pool is not None:
        pool = set(cfg.filler_pool)
        if not all(0 <= k < cfg.m for k in pool):
            raise ValueError("filler_pool category out of range")
        if pool & biased_seen:
            # filler adding biased labels would falsify the planted skew counts
            raise ValueError("filler_pool may not contain a biased category")


def _rects_overlap(a, b) -> bool:
    ar0, ac0, ar1, ac1 = a
    br0, bc0, br1, bc1 = b
    return ar0 < br1 and br0 < ar1 and ac0 < bc1 and bc0 < ac1


def build_layout(m, h, w, d_in, seed):
    """Disjoint per-category regions plus unit-norm channel signatures.

    The grid is cut into m equal blocks (largest, squarest blocks that fit)
    and every category fills one whole block. Equal evidence per category
    keeps the planted pairs symmetric in signal strength; the co-occurrence
    skew alone is what creates the bias.
    """
    best = None
    for nr in range(1, h + 1):
        for nc in range(1, w + 1):
            if nr * nc < m:
                continue
            bh, bw = h // nr, w // nc
            if bh < 1 or bw < 2:
                continue
            score = (bh * bw, -abs(bh - bw), -(nr * nc))
            if best is None or score > best[:3]:
                best = (*score, nr, nc)
    if best is None:
        raise ValueError(f"no block layout fits {m} categories on {h}x{w}")
    _, _, _, nr, nc = best
    bh, bw = h // nr, w // nc
    rng = np.random.default_rng(seed)
    chosen = rng.choice(nr * nc, size=m, replace=False)
    regions = []
    for t in chosen:
        r0, c0 = int(bh * (t // nc)), int(bw * (t % nc))
        regions.append((r0, c0, r0 + bh, c0 + bw))
    sigs = rng.normal(size=(m, d_in))
    sigs /= np.linalg.norm(sigs, axis=1, keepdims=True)
    return regions, [list(map(float, s)) for s in sigs]


# ---------------------------------------------------------------------------
# generation


def generate_dataset(cfg: GenConfig, out_dir, split_tag="train") -> DatasetManifest:
    """Write `<split_tag>.store` and `<split_tag>.manifest.json` under out_dir.

    Deterministic: identical cfg (seed included) gives byte-identical files.
    """
    _check_config(cfg)
    rng = np.random.default_rng(cfg.seed)

    # label plan first, into the array the manifest keeps, then noise, so rng use is fixed
    n_planted = sum(p.cooccur_count + p.exclusive_count for p in cfg.planted_pairs)
    labels = np.zeros((n_planted + cfg.n_filler, cfg.m), dtype=np.int64)
    at = 0
    for p in cfg.planted_pairs:
        labels[at : at + p.cooccur_count + p.exclusive_count, p.biased] = 1
        labels[at : at + p.cooccur_count, p.context] = 1
        at += p.cooccur_count + p.exclusive_count
    if cfg.filler_pool is not None:
        allowed = sorted(set(cfg.filler_pool))
    else:
        blocked = {p.biased for p in cfg.planted_pairs}
        allowed = [k for k in range(cfg.m) if k not in blocked]
    if cfg.n_filler > 0 and not allowed:
        raise ValueError("filler samples need at least one non-biased category")
    os.makedirs(out_dir, exist_ok=True)
    for i in range(n_planted, len(labels)):
        count = int(rng.integers(1, min(cfg.filler_max_labels, len(allowed)) + 1))
        labels[i, rng.choice(allowed, size=count, replace=False)] = 1

    sigs = np.array(cfg.signatures, dtype=np.float64)
    store_name = f"{split_tag}.store"
    with open(os.path.join(out_dir, store_name), "wb") as store:
        store.write(STORE_MAGIC)
        for s in range(0, len(labels), BLOCK):
            has = labels[s : s + BLOCK] == 1
            fmaps = np.zeros((len(has), cfg.h, cfg.w, cfg.d_in))
            # each pixel adds its signatures in ascending category order, then
            # its noise, drawn in sample order: the per-sample sums and stream
            for k, (r0, c0, r1, c1) in enumerate(cfg.regions):
                fmaps[has[:, k], r0:r1, c0:c1, :] += sigs[k]
            if cfg.noise_std > 0:
                fmaps += rng.normal(0.0, cfg.noise_std, size=fmaps.shape)
            store.write(fmaps.astype(F32))
    manifest = DatasetManifest(
        categories=[f"cat{k}" for k in range(cfg.m)],
        h=cfg.h,
        w=cfg.w,
        d_in=cfg.d_in,
        samples=[SampleRef(f"s{i:06d}", i) for i in range(len(labels))],
        labels=labels,
        generator_config=cfg.to_dict(),
        split_tag=split_tag,
        store=store_name,
        root=os.path.abspath(out_dir),
    )
    dump_json(manifest.to_dict(), os.path.join(out_dir, f"{split_tag}.manifest.json"))
    return manifest


# benchmark defaults: 8 categories, two planted pairs, 2000 train samples
BENCH_M = 8
BENCH_H = 8
BENCH_W = 8
BENCH_D_IN = 32
BENCH_PAIRS = ((0, 1), (2, 3))
BENCH_PER_PAIR = 500
BENCH_FILLER = 1000
BENCH_NOISE = 0.25
BENCH_TEST_EXCL = 200
BENCH_TEST_CO = 200
BENCH_TEST_FILLER = 400


def benchmark_configs(exclusive_fraction, layout_seed, train_seed, test_seed):
    """Paired train/test GenConfigs sharing one spatial layout.

    Train skew follows `exclusive_fraction` with the total per-pair sample
    count held fixed; the test set is balanced so both evaluation splits have
    equal support. Train filler draws only from categories outside every
    planted pair, so a context category never appears without its partner at
    train time and the co-occurrence shortcut stays attractive; test filler
    keeps context categories in the pool, which puts context-without-subject
    negatives in the ranking pool exactly where the shortcut misfires.
    """
    if not 0.0 < exclusive_fraction < 1.0:  # NaN fails it too, and inf would not round
        raise ValueError(f"exclusive_fraction must be in (0, 1), got {exclusive_fraction:g}")
    regions, sigs = build_layout(BENCH_M, BENCH_H, BENCH_W, BENCH_D_IN, layout_seed)
    excl = round(exclusive_fraction * BENCH_PER_PAIR)
    if not 0 < excl < BENCH_PER_PAIR:
        raise ValueError("exclusive_fraction leaves an empty split")
    train_pairs = [
        PlantedPair(b, c, exclusive_fraction, BENCH_PER_PAIR - excl, excl)
        for b, c in BENCH_PAIRS
    ]
    test_pairs = [
        PlantedPair(b, c, 0.5, BENCH_TEST_CO, BENCH_TEST_EXCL) for b, c in BENCH_PAIRS
    ]
    common = dict(
        m=BENCH_M,
        h=BENCH_H,
        w=BENCH_W,
        d_in=BENCH_D_IN,
        regions=regions,
        signatures=sigs,
        noise_std=BENCH_NOISE,
    )
    paired = {k for bc in BENCH_PAIRS for k in bc}
    train = GenConfig(
        planted_pairs=train_pairs,
        seed=train_seed,
        n_filler=BENCH_FILLER,
        filler_pool=[k for k in range(BENCH_M) if k not in paired],
        **common,
    )
    test = GenConfig(
        planted_pairs=test_pairs, seed=test_seed, n_filler=BENCH_TEST_FILLER, **common
    )
    return train, test


# ---------------------------------------------------------------------------
# splits


def split_80_20(n: int, seed):
    """Sorted row indices of a random 80/20 partition of range(n), fixed per seed."""
    if n < 5:
        raise ValueError("need at least 5 samples to split")
    perm = np.random.default_rng(seed).permutation(n)
    cut = int(0.8 * n)
    return np.sort(perm[:cut]), np.sort(perm[cut:])

