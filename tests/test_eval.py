import json
import math

import numpy as np
import pytest

from debias import data
from debias import eval as ev
from debias import model as mdl


# ---------------------------------------------------------------------------
# average precision


def ap_oracle(scores, labels):
    """O(N^2) rank walk with the stable tie policy, no sorting shortcuts."""
    n = len(scores)
    precs = []
    for i in range(n):
        if labels[i] != 1:
            continue
        # position of i under stable descending order
        ahead = sum(
            1
            for j in range(n)
            if scores[j] > scores[i] or (scores[j] == scores[i] and j < i)
        )
        rank = ahead + 1
        hits = sum(
            1
            for j in range(n)
            if labels[j] == 1
            and (scores[j] > scores[i] or (scores[j] == scores[i] and j <= i))
        )
        precs.append(hits / rank)
    return math.fsum(precs) / len(precs)


def test_ap_hand_cases():
    assert ev.average_precision([0.9, 0.8, 0.7], [1, 0, 1]) == pytest.approx(
        (1.0 + 2.0 / 3.0) / 2.0
    )
    # perfect ranking
    assert ev.average_precision([5, 4, 3, 2], [1, 1, 0, 0]) == 1.0
    # all-equal scores: stable order decides
    assert ev.average_precision([0.5, 0.5], [1, 0]) == 1.0
    assert ev.average_precision([0.5, 0.5], [0, 1]) == 0.5


def test_ap_errors():
    with pytest.raises(ValueError, match="positive"):
        ev.average_precision([0.1, 0.2], [0, 0])
    with pytest.raises(ValueError, match="binary"):
        ev.average_precision([0.1, 0.2], [1, 2])
    with pytest.raises(ValueError, match="length"):
        ev.average_precision([0.1], [1, 0])


def test_ap_rejects_nonfinite_scores():
    # a NaN score would otherwise rank like any other value
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="non-finite"):
            ev.average_precision([0.9, bad, 0.1], [1, 0, 1])


def test_ap_matches_oracle_on_random_instances():
    rng = np.random.default_rng(42)
    for trial in range(200):
        n = int(rng.integers(2, 501))
        # quantized scores force plenty of ties
        scores = np.round(rng.random(n), 2)
        labels = (rng.random(n) < 0.3).astype(int)
        if labels.sum() == 0:
            labels[int(rng.integers(n))] = 1
        got = ev.average_precision(scores, labels)
        want = ap_oracle(scores.tolist(), labels.tolist())
        assert got == want, f"trial {trial}"


def test_ap_permutation_invariant_without_ties():
    rng = np.random.default_rng(7)
    scores = rng.permutation(np.linspace(0.0, 1.0, 40))
    labels = (rng.random(40) < 0.4).astype(int)
    labels[0] = 1
    base = ev.average_precision(scores, labels)
    for _ in range(5):
        perm = rng.permutation(40)
        assert ev.average_precision(scores[perm], labels[perm]) == pytest.approx(
            base, abs=1e-15
        )


# ---------------------------------------------------------------------------
# top-k recall


def topk_oracle(scores, labels, k):
    n, m = scores.shape
    out = {}
    for j in range(m):
        pos_rows = [i for i in range(n) if labels[i][j] == 1]
        if not pos_rows:
            continue
        hits = 0
        for i in pos_rows:
            better = sum(
                1
                for q in range(m)
                if scores[i][q] > scores[i][j]
                or (scores[i][q] == scores[i][j] and q < j)
            )
            hits += better < k
        out[j] = hits / len(pos_rows)
    return out


def test_topk_hand_cases():
    scores = np.array([[0.9, 0.5, 0.4, 0.35]])
    labels = np.array([[0, 0, 0, 1]])
    assert ev.topk_recall(scores, labels, 3) == {3: 0.0}
    assert ev.topk_recall(scores, labels, 4) == {3: 1.0}
    # zero-positive classes are absent, not zero
    assert 0 not in ev.topk_recall(scores, labels, 2)


def test_topk_matches_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n, m = int(rng.integers(1, 8)), int(rng.integers(2, 6))
        scores = np.round(rng.random((n, m)), 1)
        labels = (rng.random((n, m)) < 0.5).astype(int)
        for k in (1, 2, m):
            assert ev.topk_recall(scores, labels, k) == topk_oracle(
                scores, labels.tolist(), k
            )


def test_topk_k_validation():
    with pytest.raises(ValueError):
        ev.topk_recall(np.zeros((1, 2)), np.ones((1, 2)), 0)


# ---------------------------------------------------------------------------
# cosine and heatmap export


def make_params(head):
    d = head.shape[0]
    return mdl.ModelParams(
        mixer=np.eye(d),
        head=np.asarray(head, dtype=np.float64),
        own_rows=np.arange(d // 2),
        context_rows=np.arange(d // 2, d),
    )


def test_weight_cosine():
    params = make_params(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 2.0]]))
    assert ev.weight_cosine(params, (0, 1)) == pytest.approx(1.0)
    assert ev.weight_cosine(params, (0, 2)) == pytest.approx(0.0)
    zero = make_params(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        ev.weight_cosine(zero, (0, 1))


# ---------------------------------------------------------------------------
# splits and full report


def hand_manifest(tmp_path, rows, xs):
    """Manifest of 1x1 maps: sample i's one pixel is (xs[i], 1), its labels rows[i]."""
    data.write_store(tmp_path / "hand.store", [[[x, 1.0]] for x in xs])
    return data.DatasetManifest(
        categories=[f"cat{k}" for k in range(len(rows[0]))], h=1, w=1, d_in=2,
        samples=[data.SampleRef(f"s{i}", i) for i in range(len(rows))],
        labels=np.array(rows, dtype=np.int64), store="hand.store", root=str(tmp_path),
    )


# category 0 scores sigmoid(x), so a sample's rank follows its pixel value
HAND_HEAD = np.array([[1.0, 0.0, 0.5, 0.5], [0.0, 1.0, 0.5, 0.5]])


def test_evaluate_splits_pair_by_masks(tmp_path):
    rows = [
        [1, 0, 0, 0],  # exclusive
        [1, 1, 0, 0],  # cooccur
        [0, 1, 0, 0],  # negative (no b)
        [0, 0, 1, 0],  # negative
        [1, 0, 0, 1],  # exclusive
        [1, 1, 1, 0],  # cooccur
    ]
    manifest = hand_manifest(tmp_path, rows, [3.0, 1.0, 0.0, 2.0, -1.0, 4.0])
    rep = ev.evaluate(make_params(HAND_HEAD), manifest, data.load_pooled(manifest), [(0, 1)])
    (row,) = rep.pairs
    assert row["valid"]
    # exclusive ranking 0+ 3- 2- 4+; co-occur ranking 5+ 3- 1+ 2-. Moving any
    # one sample to another split, or out of all three, changes an AP.
    assert row["ap_exclusive"] == (1.0 + 2.0 / 4.0) / 2.0
    assert row["ap_cooccur"] == (1.0 + 2.0 / 3.0) / 2.0
    assert rep.map_exclusive == row["ap_exclusive"]
    assert rep.map_cooccur == row["ap_cooccur"]


def test_evaluate_flags_empty_split(tmp_path):
    rows = [[1, 1, 0, 0], [0, 0, 1, 0]]
    manifest = hand_manifest(tmp_path, rows, [1.0, 0.0])
    with pytest.warns(UserWarning, match="empty split"):
        rep = ev.evaluate(make_params(HAND_HEAD), manifest, data.load_pooled(manifest), [(0, 1)])
    (row,) = rep.pairs
    assert not row["valid"]
    assert not {"ap_exclusive", "ap_cooccur", "bias"} & set(row)
    assert rep.map_exclusive is None and rep.map_cooccur is None


def test_adapted_scores_takes_max_of_split_columns():
    preds = np.array([[0.2, 0.9, 0.7], [0.8, 0.1, 0.3]])
    scores = ev.adapted_scores(preds, 2, category_map=[(0, 2)])
    assert scores.tolist() == [[0.7, 0.9], [0.8, 0.1]]


def test_evaluate_report(tmp_path):
    # plant category signals so the report is fully deterministic
    regions, sigs = data.build_layout(4, 4, 4, 8, seed=2)
    gen = data.GenConfig(
        m=4,
        h=4,
        w=4,
        d_in=8,
        planted_pairs=[data.PlantedPair(0, 1, 0.5, 6, 6)],
        regions=regions,
        signatures=sigs,
        noise_std=0.05,
        seed=9,
        n_filler=8,
    )
    manifest = data.generate_dataset(gen, str(tmp_path), "test")
    params = mdl.init_params(8, 8, 4, seed=1)
    pooled = data.load_pooled(manifest)
    rep = ev.evaluate(params, manifest, pooled, [(0, 1)], method="standard", seed=1)
    assert rep.map_exclusive is not None and 0.0 <= rep.map_exclusive <= 1.0
    assert rep.map_cooccur is not None and 0.0 <= rep.map_cooccur <= 1.0
    assert -1.0 <= rep.mean_cosine <= 1.0
    assert rep.pairs[0]["valid"]

    again = ev.evaluate(params, manifest, pooled, [(0, 1)], method="standard", seed=1)
    assert rep.to_dict() == again.to_dict()

    out = tmp_path / "report.json"
    ev.save_report(rep, out)
    back = ev.EvalReport.from_dict(json.loads(out.read_text()))
    assert back == rep
    assert back.to_dict() == rep.to_dict()
    with pytest.raises(ValueError):
        ev.EvalReport.from_dict({**rep.to_dict(), "extra": 1})
    with pytest.raises(ValueError):
        ev.EvalReport.from_dict({k: v for k, v in rep.to_dict().items() if k != "k"})


def test_comparison_csv(tmp_path):
    row_a = {"b": 0, "c": 1, "valid": True, "cosine": 0.1, "ap_exclusive": 0.5,
             "ap_cooccur": 0.8, "bias": 1.5}
    row_b = dict(row_a, ap_exclusive=0.6, bias=1.2)
    rep_a = ev.EvalReport("standard", 0, "", 3, [row_a], 0.5, 0.8, 0.1, {})
    rep_b = ev.EvalReport("ours_feature_split", 0, "", 3, [row_b], 0.6, 0.8, 0.1, {})
    path = tmp_path / "table.csv"
    ev.write_comparison_csv({"standard": rep_a, "ours_feature_split": rep_b}, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == (
        "biased,cooccur,bias,ours_feature_split_exclusive,ours_feature_split_cooccur,"
        "standard_exclusive,standard_cooccur"
    )
    # bias column comes from the standard report
    assert lines[1].startswith("0,1,1.500000,0.600000")
