"""Two-stage training for the proposed methods and the designed baselines.

Stage 1 trains a standard classifier with BCE on an 80% slice of the
training data and picks the biased pairs on the held-out 20% (or scores a
pinned pair set on all of it). Stage 2 continues from those weights with
the method-specific objective, on the full (possibly transformed) training
set; it builds the method's state (the CAM snapshot, the loss weights, the
feature split's context window) from the weights and pairs it starts from.
Every random draw comes from a seed tree derived from the config seed, so a
fixed config reproduces runs bit for bit.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import bias as bias_mod
from . import data
from . import diffcore as dc
from . import losses
from . import model as mdl

METHODS = (
    "standard",
    "ours_cam",
    "ours_feature_split",
    "remove_cooccur_labels",
    "remove_cooccur_images",
    "weighted_loss",
    "negative_penalty",
    "split_biased",
)

TRANSFORM_METHODS = ("remove_cooccur_labels", "remove_cooccur_images", "split_biased")


@dataclass
class TrainConfig:
    method: str = "standard"
    stage1_epochs: int = 30
    stage2_epochs: int = 30
    batch_size: int = 64
    sgd_stage1: dc.SgdConfig = dc.SgdConfig(0.1, 0.1, 15)
    sgd_stage2: dc.SgdConfig = dc.SgdConfig(0.01, 0.1, 15)
    lambda1: float = 0.1
    lambda2: float = 0.01
    alpha_min: float = 3.0
    k: int = 20
    freq_threshold: float = 0.2
    seed: int = 0
    mixer_width: int = 64
    weighted_factor: float = 10.0
    negative_penalty_weight: float = 10.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.stage1_epochs < 0 or self.stage2_epochs < 0:
            raise ValueError("epoch counts must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.mixer_width < 2 or self.mixer_width % 2:
            raise ValueError("mixer_width must be even and at least 2 (the head rows get halved)")
        # range checks (finite first: a NaN fails every comparison below), so a
        # value only stage 2 or pair selection reads stops the run before stage 1
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not 0.0 < self.freq_threshold < 1.0:
            raise ValueError("freq_threshold must be in (0, 1)")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("loss weights lambda1 and lambda2 must be nonnegative")
        if self.alpha_min <= 1.0:
            raise ValueError("alpha_min must exceed 1")
        if self.weighted_factor <= 0 or self.negative_penalty_weight <= 0:
            raise ValueError("weighted_factor and negative_penalty_weight must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Inverse of to_dict; unknown or mistyped keys raise ValueError."""
        kwargs = data._checked_fields(cls, d, "train config")
        for name in ("sgd_stage1", "sgd_stage2"):
            if name in kwargs:
                sgd = data._checked_fields(dc.SgdConfig, kwargs[name], name)
                kwargs[name] = dc.SgdConfig(**sgd)
        return cls(**kwargs)


@dataclass
class TrainArtifacts:
    params: mdl.ModelParams
    pairs: bias_mod.BiasPairSet | None = None
    loss_curve: list = field(default_factory=list)
    step_log: list = field(default_factory=list)
    seeds: dict = field(default_factory=dict)
    category_map: list | None = None  # split_biased: (biased col, solo col) pairs
    pooled: np.ndarray | None = None  # the pooled rows stage 1 read, which stage 2 reuses


def _derive_seeds(seed) -> dict:
    rng = np.random.default_rng(seed)
    names = ("init", "split", "shuffle1", "shuffle2", "extra")
    draws = rng.integers(0, 2**63, size=len(names))
    out = {k: int(v) for k, v in zip(names, draws)}
    out["root"] = int(seed)
    return out


def _sgd_loop(
    params, rows, epochs, sgd, batch_size, seed, tags, objective, after_step=None
) -> tuple:
    """Minibatch SGD on (mixer, head) over the sample indices `rows`.

    Each step's log entry starts from `tags` (the stage, and stage 2's
    method). `objective(params, idx, entry)` gives the batch's loss and its
    mixer and head gradients and may add fields to the entry, as may
    `after_step(entry, head_before, head_after)` once the step is taken. A
    non-finite loss stops the run with FloatingPointError. Returns the
    trained params, the per-epoch mean losses and one log entry per step.
    """
    shuffle_rng = np.random.default_rng(seed)
    # a copy the loop steps, so the params passed in stay intact even after
    # zero steps
    params = replace(params, mixer=params.mixer.copy(), head=params.head.copy())
    curve, step_log = [], []
    # a diverging run overflows before its loss turns non-finite; the loss
    # check below reports that in one line, so numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            lr = sgd.lr_at(epoch)
            order = shuffle_rng.permutation(len(rows))
            batch_losses = []
            for start in range(0, len(order), batch_size):
                idx = rows[order[start : start + batch_size]]
                entry = {**tags, "epoch": epoch, "lr": lr}
                loss, g_mixer, g_head = objective(params, idx, entry)
                if not math.isfinite(loss):
                    raise FloatingPointError(
                        f"stage {tags['stage']} diverged: loss {loss} at step {len(step_log)} "
                        f"(epoch {epoch}, lr {lr:g})"
                    )
                head_before = params.head
                params.mixer, params.head = dc.sgd_step(
                    (params.mixer, params.head), (g_mixer, g_head), lr
                )
                entry["loss"] = loss
                if after_step is not None:
                    after_step(entry, head_before, params.head)
                batch_losses.append(loss)
                step_log.append(entry)
            curve.append(float(np.mean(batch_losses)))
    return params, curve, step_log


def _bce_objective(pooled, labels, weights=None, excl=None):
    """Batch BCE; with (n, M) `weights`, each step logs its `excl` row count and largest weight."""
    def objective(params, idx, entry):
        w = None
        if weights is not None:
            w = weights[idx]
            entry["n_exclusive"] = int(excl[idx].sum())
            entry["max_weight"] = float(w.max())
        return losses.bce_objective(params, pooled[idx], labels[idx], w)
    return objective


def train_stage1(
    manifest: data.DatasetManifest, cfg: TrainConfig, pinned=None
) -> TrainArtifacts:
    """BCE training on the 80% slice, then the stage-2 pairs.

    Without `pinned` the pairs are selected on the 20% slice. Fixed
    (biased, context) pairs are checked before any training (bias.check_pairs,
    and for split_biased one per biased category), then scored under the
    trained weights on all of `manifest`; a pair whose co-occur or exclusive
    split is empty keeps a NaN score.
    """
    if not manifest.samples:
        raise ValueError("empty dataset")
    m = len(manifest.categories)
    bias_mod.check_pairs(pinned or (), m)
    biased = [b for b, _ in pinned or ()]
    if cfg.method == "split_biased" and len(set(biased)) < len(biased):
        # each pair gets its own solo column, named after its biased category
        raise ValueError(f"split_biased needs one pinned pair per biased category, got {pinned}")
    pooled, labels = data.load_pooled(manifest), manifest.label_matrix()
    seeds = _derive_seeds(cfg.seed)
    rows80, rows20 = data.split_80_20(len(manifest.samples), seeds["split"])
    params, curve, step_log = _sgd_loop(
        mdl.init_params(manifest.d_in, cfg.mixer_width, m, seeds["init"]),
        rows80, cfg.stage1_epochs, cfg.sgd_stage1, cfg.batch_size, seeds["shuffle1"],
        {"stage": 1}, _bce_objective(pooled, np.asarray(labels, dtype=np.float64)),
    )

    if pinned is None:
        pair_set = bias_mod.select_biased_pairs(
            mdl.predict(params, pooled[rows20]), labels[rows20],
            k=cfg.k, freq_threshold=cfg.freq_threshold,
        )
    else:
        preds = mdl.predict(params, pooled)
        scored = []
        for b, c in pinned:
            try:
                score = bias_mod.bias_score(preds, labels, b, c)
            except ValueError:  # a split is empty; keep the pair, skip the score
                score = float("nan")
            scored.append(bias_mod.BiasPair(b, c, score))
        pair_set = bias_mod.BiasPairSet(scored)
    return TrainArtifacts(
        params=params,
        pairs=pair_set,
        loss_curve=curve,
        step_log=step_log,
        seeds=seeds,
        pooled=pooled,
    )


# ---------------------------------------------------------------------------
# dataset transforms for the designed baselines


def split_biased_map(pairs, m: int) -> list:
    """(original column, appended solo column) per pair."""
    return [(b, m + j) for j, (b, _) in enumerate(pairs)]


def transform_dataset(
    manifest: data.DatasetManifest, method: str, pairs
) -> data.DatasetManifest:
    """Label/image surgery behind the removal and split baselines.

    Pairs apply in order, each to the labels the earlier ones left, and each
    splits its rows with its bias.pair_splits column. remove_cooccur_labels
    clears the context label on the co-occurring rows. remove_cooccur_images
    drops them. split_biased appends one solo category per pair and moves the
    exclusive rows' biased label there, turning the original column into
    "biased with its context".
    """
    if method not in TRANSFORM_METHODS:
        raise ValueError(f"no dataset transform for method {method!r}")
    pairs = [tuple(p) for p in pairs]
    labels = manifest.label_matrix()
    keep = np.ones(len(labels), dtype=bool)
    cats = list(manifest.categories)
    solo_of = split_biased_map(pairs, len(cats))
    if method == "split_biased":
        labels = np.pad(labels, ((0, 0), (0, len(pairs))))
        cats += [f"{cats[b]}_solo" for b, _ in pairs]
    for (b, c), (_, solo) in zip(pairs, solo_of):
        co, excl = (split[:, 0] for split in bias_mod.pair_splits(labels, [(b, c)]))
        if method == "remove_cooccur_labels":
            labels[co, c] = 0
        elif method == "remove_cooccur_images":
            keep &= ~co
        else:
            labels[excl, b], labels[excl, solo] = 0, 1
    samples = [
        data.SampleRef(s.id, s.offset, row)
        for s, row, kept in zip(manifest.samples, labels.tolist(), keep)
        if kept
    ]
    return replace(manifest, categories=cats, samples=samples)


# ---------------------------------------------------------------------------
# stage 2


def train_stage2(
    artifacts: TrainArtifacts, manifest: data.DatasetManifest, cfg: TrainConfig
) -> TrainArtifacts:
    """Continue from stage-1 weights and pooled rows with the method-specific objective."""
    pair_tuples = artifacts.pairs.as_tuples() if artifacts.pairs else []
    if cfg.method != "standard" and not pair_tuples:
        raise ValueError(f"{cfg.method} needs the stage-1 biased pairs")
    if artifacts.pooled is None or len(artifacts.pooled) != len(manifest.samples):
        raise ValueError("stage 2 needs the pooled rows stage 1 read from the same manifest")

    params = artifacts.params
    work, pooled = manifest, artifacts.pooled
    category_map = None
    if cfg.method in TRANSFORM_METHODS:
        work = transform_dataset(manifest, cfg.method, pair_tuples)
        row_of = {s.id: i for i, s in enumerate(manifest.samples)}
        pooled = pooled[[row_of[s.id] for s in work.samples]]
    if cfg.method == "split_biased":
        category_map = split_biased_map(pair_tuples, len(manifest.categories))
        extra_rng = np.random.default_rng(artifacts.seeds["extra"])
        extra = extra_rng.uniform(-1.0, 1.0, size=(params.d, len(pair_tuples))) / np.sqrt(params.d)
        params = replace(params, head=np.concatenate([params.head, extra], axis=1))

    # the objectives' targets, converted once
    labels = np.asarray(work.label_matrix(), dtype=np.float64)
    n, m = labels.shape

    # one split of the rows serves every method for the stage. A row exclusive
    # for one pair is exclusive even if it co-occurs for another: the context
    # half must never train on any biased category's context
    cooccur, exclusive = bias_mod.pair_splits(labels, pair_tuples)
    excl_all = exclusive.any(axis=1)

    # each weighted method's (n, M) loss-weight matrix, built before any objective reads it
    weights_all = None
    if cfg.method == "ours_feature_split":
        alpha = losses.alpha_weights(pair_tuples, cooccur, exclusive, cfg.alpha_min)
        weights_all = np.repeat(alpha[:, None], m, axis=1)
    elif cfg.method == "weighted_loss":
        factor = np.where(excl_all, float(cfg.weighted_factor), 1.0)
        weights_all = np.repeat(factor[:, None], m, axis=1)
    elif cfg.method == "negative_penalty":
        weights_all = np.ones((n, m))
        for j, (_, c) in enumerate(pair_tuples):
            weights_all[exclusive[:, j], c] = cfg.negative_penalty_weight

    # the method's objective, chosen once: BCE (weighted if weights_all is set) or CAM or split
    objective, after_step = _bce_objective(pooled, labels, weights_all, excl_all), None
    if cfg.method == "ours_cam":
        # the CAM plan: only the rows in which some pair co-occurs have their
        # maps loaded, and slot[i] is row i's place in maps (-1 for the rest)
        rows = np.flatnonzero(cooccur.any(axis=1))
        maps = data.load_maps(work, rows)
        slot = np.full(n, -1)
        slot[rows] = np.arange(len(rows))
        frozen_all = None
        if cfg.lambda2 > 0:
            # grounding compares against the maps of the weights stage 2 starts from
            snapshot = losses.CamSnapshot(artifacts.params, pair_tuples)
            frozen_all = snapshot.table(maps, cfg.batch_size)

        def objective(params, idx, entry):
            # the batch's pair segments in stack order: pair by pair, batch order within
            pair, at = np.nonzero(cooccur[idx].T)
            at = slot[idx[at]]
            frozen = None if frozen_all is None else frozen_all[:, pair, at]
            return losses.cam_objective(
                params, pooled[idx], labels[idx], pair_tuples, maps[at],
                np.bincount(pair, minlength=len(pair_tuples)), frozen, cfg.lambda1, cfg.lambda2,
            )
    elif cfg.method == "ours_feature_split":
        window = deque(maxlen=losses.CONTEXT_WINDOW)  # the batches' (D/2,) context means

        def objective(params, idx, entry):
            mask = excl_all[idx]
            entry["all_exclusive"] = bool(mask.all())
            entry["n_exclusive"] = int(mask.sum())
            entry["max_weight"] = float(weights_all[idx].max())
            return losses.feature_split_objective(
                params, pooled[idx], labels[idx], weights_all[idx], mask, window
            )

        def after_step(entry, head_before, head_after):
            rows = params.context_rows
            entry["ctx_rows_delta"] = float(np.linalg.norm(head_after[rows] - head_before[rows]))

    params, curve, step_log = _sgd_loop(
        params, np.arange(n), cfg.stage2_epochs, cfg.sgd_stage2,
        cfg.batch_size, artifacts.seeds["shuffle2"], {"stage": 2, "method": cfg.method},
        objective, after_step,
    )
    return TrainArtifacts(
        params=params,
        pairs=artifacts.pairs,
        loss_curve=artifacts.loss_curve + curve,
        step_log=artifacts.step_log + step_log,
        seeds=artifacts.seeds,
        category_map=category_map,
    )


def run_training(
    manifest: data.DatasetManifest, cfg: TrainConfig, pinned=None
) -> TrainArtifacts:
    """Both stages end to end; `pinned` pairs replace the selected ones."""
    return train_stage2(train_stage1(manifest, cfg, pinned), manifest, cfg)
