"""One-step oracle: every method's stage-2 SGD step, written from its definition.

The oracle never pools before the mixer and never forms a batched product: each
sample's logits are the pixel mean of its mixed pixel rows times the head, each
CAM is the per-pixel map of the unpooled features, suppression takes an
explicit exclusive / non-exclusive branch per sample, the skew weight is
worked out per row, and the baselines' label surgery is redone from the labels.
Stage 2 runs on one full-set batch per epoch, so each step sees every sample;
the steps are captured at `diffcore.sgd_step` and compared with the oracle's
`W - lr * gW`, `H - lr * gH` from the same starting weights.
"""

import dataclasses
import math

import numpy as np
import pytest

from debias import data, train
from debias import diffcore as dc

PAIRS = [(0, 1), (2, 3)]
M = 6
H = W = 4
P = H * W
D_IN = 8
REL = 1e-12  # stepped weights, relative to their largest entry
GRAD_REL = 1e-9  # gradients, relative to their largest entry
FULL_BATCH = 4096


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    """A two-pair dataset and stage-1 weights with those pairs pinned.

    The last three samples are relabeled to be exclusive for both pairs, so
    their skew weight is the larger of the two pairs' alphas.
    """
    regions, sigs = data.build_layout(M, H, W, D_IN, seed=21)
    gen = data.GenConfig(
        m=M, h=H, w=W, d_in=D_IN,
        planted_pairs=[data.PlantedPair(0, 1, 0.25, 18, 6), data.PlantedPair(2, 3, 0.3, 14, 6)],
        regions=regions, signatures=sigs, noise_std=0.2, seed=22, n_filler=16,
    )
    manifest = data.generate_dataset(gen, str(tmp_path_factory.mktemp("oracle")))
    labels = manifest.labels.copy()
    labels[-3:] = [1, 0, 1, 0] + [0] * (M - 4)
    manifest = dataclasses.replace(manifest, labels=labels)
    arts = train.train_stage1(manifest, config("standard", stage2_epochs=0), PAIRS)
    return manifest, arts


@pytest.fixture(scope="module")
def both_pairs_setup(setup):
    """setup's dataset with its first four samples relabeled to co-occur for
    both pairs, and stage-1 weights trained on it. Each such sample fills a
    row of both pairs' segments of the CAM stack."""
    manifest, _ = setup
    labels = manifest.labels.copy()
    labels[:4] = [1, 1, 1, 1] + [0] * (M - 4)
    manifest = dataclasses.replace(manifest, labels=labels)
    arts = train.train_stage1(manifest, config("standard", stage2_epochs=0), PAIRS)
    return manifest, arts


def config(method, **over):
    base = dict(
        method=method, stage1_epochs=2, stage2_epochs=2, batch_size=FULL_BATCH,
        sgd_stage1=dc.SgdConfig(2.0, 0.5, 1), sgd_stage2=dc.SgdConfig(1.5, 0.5, 1),
        lambda1=3.0, lambda2=0.5, alpha_min=1.1, mixer_width=8, seed=3,
        weighted_factor=10.0, negative_penalty_weight=7.0,
    )
    base.update(over)
    return train.TrainConfig(**base)


def captured_steps(monkeypatch, run):
    """(weights before, gradients, lr, weights after) of every sgd_step call in run()."""
    steps = []
    real = dc.sgd_step

    def named(pair):  # the (mixer, head) pair as the dict the cases read
        return {k: np.array(v, dtype=float) for k, v in zip(("mixer", "head"), pair)}

    def record(params, grads, lr):
        out = real(params, grads, lr)
        steps.append((named(params), named(grads), lr, named(out)))
        return out

    monkeypatch.setattr(dc, "sgd_step", record)
    result = run()
    monkeypatch.setattr(dc, "sgd_step", real)
    return result, steps


# ---------------------------------------------------------------------------
# the oracle, one sample and one pixel row at a time


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


def pixel_features(x, mixer):
    """(P, D) mixed features, one pixel row at a time."""
    return np.array([row @ mixer for row in x])


def exclusive_for(row, pairs):
    return [j for j, (b, c) in enumerate(pairs) if row[b] == 1 and row[c] == 0]


def cooccurs(row, b, c):
    return row[b] == 1 and row[c] == 1


def bce_step(feats, labels, weights, mixer, head, suppress=None):
    """(g_mixer, g_head) of mean_{i,j} weights[i,j] * BCE(z_ij, t_ij).

    z_i = mean_p(x_ip W) H. `suppress` is (context rows, context fill,
    exclusive flags): an exclusive sample's context features are replaced by
    the fill, a constant, so neither the context head rows nor the mixer
    columns feeding them see that sample.
    """
    n, m = labels.shape
    g_mixer, g_head = np.zeros_like(mixer), np.zeros_like(head)
    for i in range(n):
        pix = pixel_features(feats[i], mixer)
        f = pix.mean(axis=0)
        if suppress is not None and suppress[2][i]:
            ctx, fill, _ = suppress
            used = f.copy()
            used[ctx] = fill
            live = np.ones(len(f), dtype=bool)
            live[ctx] = False
        else:
            used = f
            live = np.ones(len(f), dtype=bool)
        z = used @ head
        g_z = np.zeros(m)
        for j in range(m):
            g_z[j] = weights[i, j] * (sigmoid(z[j]) - labels[i, j]) / (n * m)
        for d in range(head.shape[0]):
            if live[d]:
                g_head[d] += f[d] * g_z
        g_f = (head @ g_z) * live  # cotangent of the pooled features
        for p in range(P):  # GAP: each pixel row carries 1/P of it
            g_mixer += np.outer(feats[i, p], g_f / P)
    return g_mixer, g_head


def cam_map(x, mixer, head, k):
    """(raw, normalized) activation map of category k over one sample's pixels."""
    raw = np.array([(row @ mixer) @ head[:, k] for row in x])
    r = np.maximum(raw, 0.0)
    return raw, r / (r.max() + 1e-8)


def normalize_backward(raw, g):
    """Cotangent of raw pixels from that of relu(raw)/(max relu(raw) + 1e-8)."""
    r = np.maximum(raw, 0.0)
    peak = r.max()
    denom = peak + 1e-8
    ties = [q for q in range(len(r)) if r[q] == peak]
    share = sum(-g[p] * r[p] / denom**2 for p in range(len(r)))
    out = np.zeros(len(r))
    for q in range(len(r)):
        if raw[q] <= 0.0:
            continue  # relu: no gradient at or below zero
        out[q] = g[q] / denom
        if q in ties:
            out[q] += share / len(ties)
    return out


def cam_step(feats, labels, mixer, head, frozen_params, lambda1, lambda2):
    """Gradients of lambda1 * mean overlap + lambda2 * mean grounding."""
    g_mixer, g_head = np.zeros_like(mixer), np.zeros_like(head)
    terms = []  # (sample, b, c)
    for b, c in PAIRS:
        terms += [(i, b, c) for i in range(len(labels)) if cooccurs(labels[i], b, c)]
    count = len(terms) * P  # pixels per term: one overlap and one grounding term each
    for i, b, c in terms:
        maps = {k: cam_map(feats[i], mixer, head, k) for k in (b, c)}
        frozen = {k: cam_map(feats[i], *frozen_params, k)[1] for k in (b, c)}
        for k, other in ((b, c), (c, b)):
            raw, norm = maps[k]
            g_norm = lambda1 / count * maps[other][1]
            g_norm = g_norm + lambda2 / count * -np.sign(frozen[k] - norm)
            g_raw = normalize_backward(raw, g_norm)
            pix = pixel_features(feats[i], mixer)
            for p in range(P):
                g_mixer += g_raw[p] * np.outer(feats[i, p], head[:, k])
                g_head[:, k] += g_raw[p] * pix[p]
    return g_mixer, g_head


def alpha_per_row(labels, pairs, alpha_min):
    alphas = []
    for b, c in pairs:
        co = sum(1 for row in labels if cooccurs(row, b, c))
        ex = sum(1 for row in labels if row[b] == 1 and row[c] == 0)
        alphas.append(max(math.sqrt(co / ex), alpha_min))
    return np.array([max([1.0] + [alphas[j] for j in exclusive_for(row, pairs)]) for row in labels])


def surgery(method, feats, labels):
    """The baselines' label and image edits, sample by sample."""
    rows, keep = [], []
    for i, row in enumerate(labels):
        row = list(row)
        if method == "remove_cooccur_images" and any(cooccurs(row, b, c) for b, c in PAIRS):
            continue
        if method == "remove_cooccur_labels":
            for b, c in PAIRS:
                if cooccurs(row, b, c):
                    row[c] = 0
        if method == "split_biased":
            solo = [0] * len(PAIRS)
            for j, (b, c) in enumerate(PAIRS):
                if row[b] == 1 and row[c] == 0:
                    row[b] = 0
                    solo[j] = 1
            row = row + solo
        rows.append(row)
        keep.append(i)
    return feats[keep], np.array(rows, dtype=float)


def oracle_gradients(method, cfg, feats, labels, mixer, head, stage1, suppress):
    n = len(labels)
    ones = np.ones((n, head.shape[1]))
    if method == "standard":
        return bce_step(feats, labels, ones, mixer, head)
    if method in ("remove_cooccur_labels", "remove_cooccur_images", "split_biased"):
        f2, y2 = surgery(method, feats, labels)
        return bce_step(f2, y2, np.ones(y2.shape), mixer, head)
    if method == "weighted_loss":
        w = np.array([[cfg.weighted_factor if exclusive_for(row, PAIRS) else 1.0] * M
                      for row in labels])
        return bce_step(feats, labels, w, mixer, head)
    if method == "negative_penalty":
        w = ones.copy()
        for i, row in enumerate(labels):
            for b, c in PAIRS:
                if row[b] == 1 and row[c] == 0:
                    w[i, c] = cfg.negative_penalty_weight
        return bce_step(feats, labels, w, mixer, head)
    if method == "ours_feature_split":
        alpha = alpha_per_row(labels, PAIRS, cfg.alpha_min)
        w = np.repeat(alpha[:, None], M, axis=1)
        ctx, fill = suppress
        excl = [bool(exclusive_for(row, PAIRS)) for row in labels]
        return bce_step(feats, labels, w, mixer, head, (ctx, fill, excl))
    if method == "ours_cam":
        gw, gh = bce_step(feats, labels, ones, mixer, head)
        cw, ch = cam_step(feats, labels, mixer, head, stage1, cfg.lambda1, cfg.lambda2)
        return gw + cw, gh + ch
    raise AssertionError(method)


def rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("method", train.METHODS)
def test_first_steps_match_oracle(setup, monkeypatch, method):
    manifest, arts1 = setup
    cfg = config(method)
    out, steps = captured_steps(
        monkeypatch, lambda: train.train_stage2(arts1, manifest, cfg)
    )
    feats = data.load_maps(manifest, range(len(manifest.samples))).astype(np.float64)
    labels = manifest.labels.astype(float)
    assert len(steps) == cfg.stage2_epochs  # one full-set batch per epoch
    stage1 = (arts1.params.mixer, arts1.params.head)

    before0 = steps[0][0]
    assert np.array_equal(before0["mixer"], arts1.params.mixer)
    assert np.array_equal(before0["head"][:, :M], arts1.params.head)

    fill = np.zeros(arts1.params.d // 2)  # the running mean starts empty
    for epoch, (before, grads, lr, after) in enumerate(steps):
        assert lr == cfg.sgd_stage2.lr_at(epoch)
        mixer, head = before["mixer"], before["head"]
        g_mixer, g_head = oracle_gradients(
            method, cfg, feats, labels, mixer, head, stage1, (arts1.params.context_rows, fill)
        )
        assert rel_err(grads["mixer"], g_mixer) < GRAD_REL, (method, epoch)
        assert rel_err(grads["head"], g_head) < GRAD_REL, (method, epoch)
        assert rel_err(after["mixer"], mixer - lr * g_mixer) < REL, (method, epoch)
        assert rel_err(after["head"], head - lr * g_head) < REL, (method, epoch)
        if method == "ours_feature_split":
            # this step's non-exclusive samples are the next step's context estimate
            plain = [i for i, row in enumerate(labels) if not exclusive_for(row, PAIRS)]
            means = [pixel_features(feats[i], mixer).mean(axis=0) for i in plain]
            fill = np.mean(means, axis=0)[arts1.params.context_rows]
    assert np.array_equal(out.params.mixer, steps[-1][3]["mixer"])
    assert np.array_equal(out.params.head, steps[-1][3]["head"])


def test_cam_step_on_samples_cooccurring_for_both_pairs_matches_oracle(
    both_pairs_setup, monkeypatch
):
    manifest, arts1 = both_pairs_setup
    cfg = config("ours_cam")
    labels = manifest.labels.astype(float)
    assert sum(all(cooccurs(row, b, c) for b, c in PAIRS) for row in labels) == 4
    out, steps = captured_steps(
        monkeypatch, lambda: train.train_stage2(arts1, manifest, cfg)
    )
    feats = data.load_maps(manifest, range(len(manifest.samples))).astype(np.float64)
    stage1 = (arts1.params.mixer, arts1.params.head)
    assert len(steps) == cfg.stage2_epochs
    for epoch, (before, grads, lr, after) in enumerate(steps):
        mixer, head = before["mixer"], before["head"]
        g_mixer, g_head = oracle_gradients("ours_cam", cfg, feats, labels, mixer, head, stage1, None)
        assert rel_err(grads["mixer"], g_mixer) < GRAD_REL, epoch
        assert rel_err(grads["head"], g_head) < GRAD_REL, epoch
        assert rel_err(after["mixer"], mixer - lr * g_mixer) < REL, epoch
        assert rel_err(after["head"], head - lr * g_head) < REL, epoch
    assert np.array_equal(out.params.head, steps[-1][3]["head"])


def test_all_exclusive_batches_leave_context_rows_unchanged(setup, monkeypatch):
    # The exclusive subspace must learn without the context: a batch of
    # exclusive samples only must not move the context half of the head at
    # all, even once the running context estimate is nonzero.
    manifest, arts1 = setup
    cfg = config("ours_feature_split", batch_size=1, stage2_epochs=1)
    _, steps = captured_steps(monkeypatch, lambda: train.train_stage2(arts1, manifest, cfg))
    labels = manifest.labels
    order = np.random.default_rng(arts1.seeds["shuffle2"]).permutation(len(labels))
    assert len(steps) == len(labels)
    ctx, own = arts1.params.context_rows, arts1.params.own_rows
    seen_plain = checked = 0
    for s, (before, _, _, after) in zip(order, steps):
        if not exclusive_for(labels[s], PAIRS):
            seen_plain += 1
            continue
        assert after["head"][ctx].tobytes() == before["head"][ctx].tobytes()
        assert not np.array_equal(after["head"][own], before["head"][own])
        checked += seen_plain > 0  # the buffer holds a context estimate by now
    assert checked > 5
