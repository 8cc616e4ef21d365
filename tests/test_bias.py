import numpy as np
import pytest

from debias import bias


def test_hand_case_ratio_two():
    # co-occur probs {0.8, 0.6}, exclusive probs {0.2, 0.5} -> 0.7/0.35
    labels = np.array([[1, 1], [1, 1], [1, 0], [1, 0]])
    preds = np.array([[0.8, 0.9], [0.6, 0.9], [0.2, 0.0], [0.5, 0.0]])
    assert bias.bias_score(preds, labels, 0, 1) == pytest.approx(2.0)


def test_equal_means_score_one():
    labels = np.array([[1, 1], [1, 0]])
    preds = np.array([[0.4, 0.5], [0.4, 0.5]])
    assert bias.bias_score(preds, labels, 0, 1) == pytest.approx(1.0)


def test_scale_invariance():
    rng = np.random.default_rng(0)
    labels = (rng.random((50, 3)) < 0.5).astype(int)
    labels[:, 0] = 1  # keep both sets populated
    labels[0, 1] = 1
    labels[1, 1] = 0
    preds = rng.random((50, 3))
    s1 = bias.bias_score(preds, labels, 0, 1)
    scaled = preds.copy()
    scaled[:, 0] *= 0.5
    assert bias.bias_score(scaled, labels, 0, 1) == pytest.approx(s1)


def test_undefined_when_a_set_is_empty():
    labels = np.array([[1, 1], [1, 1]])  # no exclusive samples
    preds = np.full((2, 2), 0.5)
    with pytest.raises(ValueError):
        bias.bias_score(preds, labels, 0, 1)


def brute_force(preds, labels, k, thr):
    n, m = labels.shape
    winners = []
    for b in range(m):
        ib = labels[:, b] == 1
        nb = int(ib.sum())
        if nb == 0:
            continue
        best = None
        for z in range(m):
            if z == b:
                continue
            both = ib & (labels[:, z] == 1)
            excl = ib & (labels[:, z] == 0)
            if both.sum() < 1 or excl.sum() < 1:
                continue
            if both.sum() / nb < thr:
                continue
            s = float(preds[both, b].mean() / preds[excl, b].mean())
            if best is None or s > best[0]:
                best = (s, z)
        if best is not None:
            winners.append((best[0], b, best[1]))
    winners.sort(key=lambda t: (-t[0], t[1]))
    return winners[:k], len(winners) < k


def test_zero_exclusive_mean_is_undefined():
    labels = np.array([[1, 1], [1, 0], [1, 0]])
    preds = np.array([[0.6, 0.5], [0.0, 0.5], [0.0, 0.5]])
    with pytest.raises(ValueError, match="is 0"):
        bias.bias_score(preds, labels, 0, 1)


def test_selection_rejects_mismatched_shape():
    labels = np.array([[1, 1], [1, 0]])
    with pytest.raises(ValueError, match="shape"):
        bias.select_biased_pairs(np.full((2, 3), 0.5), labels, k=1)


def test_selection_rejects_nonfinite_predictions():
    labels = np.array([[1, 1], [1, 0], [1, 1], [1, 0]])
    preds = np.full((4, 2), 0.5)
    preds[0, 0] = np.nan  # would otherwise rank first
    with pytest.raises(ValueError, match="non-finite"):
        bias.select_biased_pairs(preds, labels, k=1)


@pytest.mark.parametrize("bad", [1.5, -0.25])
def test_selection_rejects_out_of_range_predictions(bad):
    labels = np.array([[1, 1], [1, 0], [1, 1], [1, 0]])
    preds = np.full((4, 2), 0.5)
    preds[2, 1] = bad
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        bias.select_biased_pairs(preds, labels, k=1)


def test_selection_matches_brute_force():
    rng = np.random.default_rng(1)
    for trial in range(30):
        m = int(rng.integers(2, 12)) if trial < 25 else 50
        n = int(rng.integers(10, 120))
        labels = (rng.random((n, m)) < 0.4).astype(int)
        labels[labels.sum(axis=1) == 0, 0] = 1
        preds = rng.random((n, m))
        k = int(rng.integers(1, m + 2))
        got = bias.select_biased_pairs(preds, labels, k=k, freq_threshold=0.2)
        want, short = brute_force(preds, labels, k, 0.2)
        assert [(p.score, p.biased, p.context) for p in got.pairs] == want
        assert got.shortfall == short


def test_planted_pair_ranked_first():
    # p(b | with c) = 0.9, p(b | without c) = 0.3, 95% co-occurrence
    rng = np.random.default_rng(2)
    n, m = 200, 6
    labels = (rng.random((n, m)) < 0.3).astype(int)
    labels[:, 0] = 1
    labels[:190, 1] = 1
    labels[190:, 1] = 0
    preds = np.clip(rng.random((n, m)), 0.05, 1.0)
    preds[:190, 0] = 0.9
    preds[190:, 0] = 0.3
    got = bias.select_biased_pairs(preds, labels, k=3, freq_threshold=0.2)
    assert got.pairs[0].biased == 0
    assert got.pairs[0].context == 1
    assert got.pairs[0].score == pytest.approx(3.0)


def test_directional_construction_only_forward_pair():
    # bias(b, c) >> 1 while bias(c, b) stays near 1
    labels = np.zeros((100, 2), dtype=int)
    labels[:40, 0] = 1
    labels[:40, 1] = 1  # b with c
    labels[40:50, 0] = 1  # b alone
    labels[50:, 1] = 1  # c alone
    preds = np.zeros((100, 2))
    preds[:40, 0] = 0.9
    preds[40:50, 0] = 0.1
    preds[:, 1] = 0.8
    assert bias.bias_score(preds, labels, 0, 1) == pytest.approx(9.0)
    assert bias.bias_score(preds, labels, 1, 0) == pytest.approx(1.0)
    got = bias.select_biased_pairs(preds, labels, k=1, freq_threshold=0.2)
    assert got.as_tuples() == [(0, 1)]


def test_shortfall_flag():
    # category 2 has no samples, so it yields no winner
    labels = np.array([[1, 1, 0], [1, 0, 0], [0, 1, 0]])
    preds = np.array([[0.9, 0.8, 0.1], [0.3, 0.1, 0.1], [0.2, 0.6, 0.1]])
    got = bias.select_biased_pairs(preds, labels, k=20, freq_threshold=0.2)
    assert got.shortfall
    assert got.as_tuples() == [(0, 1), (1, 0)]


def test_frequency_filter_excludes_rare_context():
    # z co-occurs with b once out of ten: below a 0.2 threshold; twice out of
    # ten is exactly the threshold and admitted; ten out of ten leaves b no
    # exclusive sample, so the score is undefined and z is not a candidate
    for n_with, admitted in ((1, False), (2, True), (10, False)):
        labels = np.zeros((20, 2), dtype=int)
        labels[:10, 0] = 1
        labels[:n_with, 1] = 1
        labels[10:, 1] = 1
        preds = np.full((20, 2), 0.5)
        preds[0, 0] = 1.0  # would give a big score if admitted
        got = bias.select_biased_pairs(preds, labels, k=5, freq_threshold=0.2)
        assert ((0, 1) in got.as_tuples()) == admitted, n_with


def test_argmax_tie_breaks_to_lowest_index():
    labels = np.array(
        [
            [1, 1, 0],
            [1, 0, 1],
            [1, 1, 1],
            [1, 0, 0],
        ]
    )
    preds = np.full((4, 3), 0.5)  # every defined score is exactly 1.0
    got = bias.select_biased_pairs(preds, labels, k=1, freq_threshold=0.2)
    assert got.pairs[0].biased == 0
    assert got.pairs[0].context == 1


def test_audit_report_rows():
    labels = np.array([[1, 1], [1, 1], [1, 0], [0, 1]])
    preds = np.array([[0.8, 0.5], [0.6, 0.5], [0.1, 0.5], [0.0, 0.5]])
    pairs = bias.select_biased_pairs(preds, labels, k=2, freq_threshold=0.2)
    rows = bias.audit_report(pairs, labels)
    top = rows[0]
    assert top["b"] == 0 and top["c"] == 1
    assert top["cooccur_count"] == 2 and top["exclusive_count"] == 1
    assert top["score"] == pytest.approx(7.0)
    scores = [r["score"] for r in rows]
    assert scores == sorted(scores, reverse=True)
