"""Binary classification metrics against hand counts, brute-force counts
and all-pairs AUC."""
from __future__ import annotations

import sys
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from knowfuse.metrics import accuracy, auc, evaluate


def _oracle_auc(labels, scores) -> float:
    """All-pairs comparison, ties worth one half."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def _loop_midrank_auc(labels, scores) -> float:
    """Rank-sum AUC with the tie groups walked one by one in Python."""
    y, s = np.asarray(labels), np.asarray(scores, dtype=np.float64)
    order = np.argsort(s, kind="stable")
    sorted_s = s[order]
    ranks = np.empty(s.shape[0], dtype=np.float64)
    i = 0
    while i < sorted_s.shape[0]:
        j = i
        while j + 1 < sorted_s.shape[0] and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n_pos, n_neg = int(np.sum(y == 1)), int(np.sum(y == 0))
    return (float(np.sum(ranks[y == 1])) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


class TestClassifyMetrics:
    """evaluate's confusion counts and the ratios taken from them."""

    def test_hand_confusion(self):
        # tp=3 fp=1 fn=2 tn=4
        labels = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
        preds_ = [1, 1, 1, 0, 0, 1, 0, 0, 0, 0]
        r = evaluate(labels, preds_, np.linspace(0.0, 1.0, 10))
        assert (r.tp, r.fp) == (3, 1)
        assert (r.fn, r.tn) == (2, 4)
        assert r.accuracy == 0.7
        assert_allclose(r.precision, 0.75, rtol=1e-12)
        assert_allclose(r.recall, 0.6, rtol=1e-12)
        assert_allclose(r.f1, 2.0 / 3.0, rtol=1e-12)

    def test_perfect(self):
        r = evaluate([0, 1, 1], [0, 1, 1], [0.1, 0.8, 0.9])
        assert (r.accuracy, r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_missed_positives_score_zero(self):
        r = evaluate([1, 1, 0], [0, 0, 0], [0.3, 0.2, 0.1])
        assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="differ"):
            evaluate([0, 1], [0, 1, 1], [0.1, 0.9])
        with pytest.raises(ValueError, match="differ"):
            evaluate([0, 1], [0, 1], [0.1, 0.9, 0.5])
        with pytest.raises(ValueError, match="both classes"):
            evaluate([], [], [])
        with pytest.raises(ValueError, match="labels"):
            evaluate([0, 2], [0, 1], [0.1, 0.9])
        with pytest.raises(ValueError, match="predictions"):
            evaluate([0, 1], [0, 3], [0.1, 0.9])
        with pytest.raises(ValueError, match="finite"):
            evaluate([0, 1], [0, 1], [0.1, np.inf])


class TestAuc:
    def test_hand_value(self):
        # one concordant and one discordant pair
        assert_allclose(auc([1, 0, 1], [0.9, 0.8, 0.4]), 0.5, rtol=1e-12)

    def test_perfect_and_inverted(self):
        assert auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0
        assert auc([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0

    def test_all_tied_scores(self):
        assert_allclose(auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]), 0.5, rtol=1e-12)

    def test_matches_all_pairs_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(4, 40))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # quantised scores force plenty of exact ties
            scores = np.round(rng.normal(size=n), 1)
            assert_allclose(
                auc(labels, scores), _oracle_auc(labels, scores), rtol=1e-12
            )

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), levels=st.integers(1, 6))
    def test_heavy_ties_match_pair_count_oracle(self, data, levels):
        # scores drawn from a handful of values, so most of them tie
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, levels - 1)), min_size=2, max_size=60,
        ).filter(lambda rows: len({label for label, _ in rows}) == 2))
        labels = [label for label, _ in pairs]
        scores = [level / 8.0 - 0.3 for _, level in pairs]
        got = auc(labels, scores)
        assert got == _loop_midrank_auc(labels, scores)
        assert_allclose(got, _oracle_auc(labels, scores), rtol=1e-12)

    def test_lines_run_do_not_grow_with_tie_groups(self):
        # a Python walk over the tie groups runs more lines the more groups
        # there are; the vectorised midranks run the same lines for any input
        def lines_run(n):
            rng = np.random.default_rng(0)
            count = 0

            def tracer(frame, event, arg):
                nonlocal count
                if frame.f_code is not auc.__code__:
                    return None
                count += event == "line"
                return tracer

            previous = sys.gettrace()
            sys.settrace(tracer)
            try:
                auc(np.arange(n) % 2, rng.random(n))
            finally:
                sys.settrace(previous)
            return count

        assert lines_run(10) == lines_run(1000)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            auc([1, 1, 1], [0.1, 0.2, 0.3])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            auc([0, 1], [0.1, np.nan])


class TestAccuracy:
    def test_one_class_is_scored(self):
        # predict's records file may hold one label, so accuracy needs neither both
        # classes nor scores.
        assert accuracy([1, 1, 1, 1], [1, 0, 1, 1]) == 0.75
        assert accuracy(np.array([0]), np.array([0])) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="differ"):
            accuracy([0, 1], [0, 1, 1])
        with pytest.raises(ValueError, match="at least one"):
            accuracy([], [])
        with pytest.raises(ValueError, match="labels"):
            accuracy([0, 2], [0, 1])
        with pytest.raises(ValueError, match="predictions"):
            accuracy([0, 1], [0, 3])

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1,
                          max_size=3000))
    def test_is_the_exact_share(self, pairs):
        # bit-equal to the correctly rounded ratio of matches to records
        labels, preds = np.array(pairs).T
        assert accuracy(labels, preds) == sum(y == p for y, p in pairs) / len(pairs)


class TestEvaluate:
    def test_with_scores(self):
        r = evaluate([0, 1, 1], [0, 1, 0], scores=[0.2, 0.9, 0.4])
        assert r.auc == 1.0
        assert_allclose(r.recall, 0.5, rtol=1e-12)

    def test_asdict_keys(self):
        # the keys and values one metrics.json split holds
        d = asdict(evaluate([0, 1], [0, 1], scores=[0.1, 0.9]))
        assert set(d) == {
            "accuracy", "precision", "recall", "f1", "auc", "tp", "fp", "tn", "fn"
        }
        assert d["tp"] == 1 and d["tn"] == 1 and d["accuracy"] == 1.0

    @pytest.mark.parametrize("labels", [[0, 0, 0], [1, 1]])
    def test_single_class_rejected(self, labels):
        n = len(labels)
        with pytest.raises(ValueError, match="both classes"):
            evaluate(labels, [0, 1, 0][:n], np.linspace(0.0, 1.0, n))

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 5)), min_size=2, max_size=50,
    ).filter(lambda rows: len({label for label, _, _ in rows}) == 2))
    def test_matches_brute_force_oracle(self, rows):
        labels = np.array([label for label, _, _ in rows])
        preds = np.array([pred for _, pred, _ in rows])
        scores = [level / 4.0 for _, _, level in rows]  # a few levels, so ties are common
        r = evaluate(labels, preds, scores)

        counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
        for label, pred, _ in rows:
            counts[("t" if label == pred else "f") + ("p" if pred else "n")] += 1
        assert (r.tp, r.fp, r.tn, r.fn) == (counts["tp"], counts["fp"], counts["tn"], counts["fn"])
        precision = r.tp / (r.tp + r.fp) if r.tp + r.fp else 0.0
        recall = r.tp / (r.tp + r.fn)
        f1 = 2 * precision * recall / (precision + recall) if r.tp else 0.0
        assert (r.precision, r.recall, r.f1) == (precision, recall, f1)
        assert r.accuracy == float(np.mean(labels == preds))
        assert r.auc == auc(labels, scores)
        assert_allclose(r.auc, _oracle_auc(labels, scores), rtol=1e-12)
