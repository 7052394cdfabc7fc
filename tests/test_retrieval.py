"""Cosine top-k retrieval against a brute-force oracle."""
from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from knowfuse.retrieval import (
    ConceptIndex,
    combine_text_caption,
    top_k,
)
from knowfuse.stores import EmbeddingStore


def _index(n: int = 50, dim: int = 16, seed: int = 0) -> ConceptIndex:
    rng = np.random.default_rng(seed)
    store = EmbeddingStore(
        dim=dim,
        names=[f"c{i}" for i in range(n)],
        vectors=rng.normal(size=(n, dim)).astype(np.float32),
    )
    return ConceptIndex(store)


def _oracle_top_k(store: EmbeddingStore, query: np.ndarray, k: int):
    """Per-candidate scalar cosine, sorted by (-score, insertion order)."""
    q = np.asarray(query, dtype=np.float64)
    scored = []
    for i, name in enumerate(store.names):
        v = store.vectors[i].astype(np.float64)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            continue
        scored.append((name, float(np.dot(v, q) / (nv * np.linalg.norm(q))), i))
    scored.sort(key=lambda t: (-t[1], t[2]))
    return [(name, s) for name, s, _ in scored[:k]]


class TestTopK:
    def test_self_match_scores_one(self):
        index = _index()
        for i in (0, 17, 49):
            query = index.store.vectors[i]
            name, sim = top_k(index, query, 1)[0]
            assert name == f"c{i}"
            assert_allclose(sim, 1.0, atol=1e-6)

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        store = EmbeddingStore(
            dim=32,
            names=[f"c{i}" for i in range(1000)],
            vectors=rng.normal(size=(1000, 32)).astype(np.float32),
        )
        index = ConceptIndex(store)
        for _ in range(100):
            query = rng.normal(size=32)
            got = top_k(index, query, 10)
            want = _oracle_top_k(store, query, 10)
            assert [n for n, _ in got] == [n for n, _ in want]
            assert_allclose(
                [s for _, s in got], [s for _, s in want], atol=1e-12
            )

    @pytest.mark.parametrize("alpha", [0.5, 3.0])
    def test_scale_invariance(self, alpha):
        index = _index(seed=4)
        rng = np.random.default_rng(5)
        for _ in range(20):
            query = rng.normal(size=16)
            base = top_k(index, query, 5)
            scaled = top_k(index, alpha * query, 5)
            assert [n for n, _ in base] == [n for n, _ in scaled]
            assert_allclose(
                [s for _, s in base], [s for _, s in scaled], atol=1e-12
            )

    def test_scores_clipped_and_sorted(self):
        index = _index(seed=6)
        rng = np.random.default_rng(7)
        for _ in range(20):
            got = top_k(index, rng.normal(size=16), 50)
            scores = [s for _, s in got]
            assert all(-1.0 <= s <= 1.0 for s in scores)
            assert scores == sorted(scores, reverse=True)

    def test_exact_ties_keep_insertion_order(self):
        # rows 0 and 2 are identical, row 1 is scaled: all three tie at 1.0
        vecs = np.array(
            [[1.0, 0.0], [2.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=np.float32
        )
        store = EmbeddingStore(dim=2, names=["a", "b", "c", "d"], vectors=vecs)
        got = top_k(ConceptIndex(store), np.array([1.0, 0.0]), 3)
        assert [n for n, _ in got] == ["a", "b", "c"]

    def test_zero_rows_excluded(self):
        vecs = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        store = EmbeddingStore(dim=2, names=["a", "zero", "b"], vectors=vecs)
        index = ConceptIndex(store)
        assert index.num_usable == 2
        names = [n for n, _ in top_k(index, np.array([1.0, 1.0]), 10)]
        assert names == ["a", "b"]

    def test_k_larger_than_store_returns_all(self):
        index = _index(n=5)
        assert len(top_k(index, np.ones(16), 99)) == 5

    def test_validation(self):
        index = _index()
        with pytest.raises(ValueError, match="k"):
            top_k(index, np.ones(16), 0)
        with pytest.raises(ValueError, match="dim"):
            top_k(index, np.ones(8), 3)
        with pytest.raises(ValueError, match="zero"):
            top_k(index, np.zeros(16), 3)


class TestCombineTextCaption:
    def test_hand_value(self):
        got = combine_text_caption(np.array([2.0, 0.0]), np.array([0.0, 5.0]))
        assert_allclose(got, [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)], rtol=1e-12)

    def test_unit_norm_output(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            out = combine_text_caption(rng.normal(size=12), rng.normal(size=12))
            assert_allclose(np.linalg.norm(out), 1.0, rtol=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(9)
        t, c = rng.normal(size=6), rng.normal(size=6)
        assert_allclose(
            combine_text_caption(t, c), combine_text_caption(c, t), rtol=1e-12
        )

    def test_errors(self):
        with pytest.raises(ValueError, match="text"):
            combine_text_caption(np.zeros(4), np.ones(4))
        with pytest.raises(ValueError, match="caption"):
            combine_text_caption(np.ones(4), np.zeros(4))
        with pytest.raises(ValueError, match="dim"):
            combine_text_caption(np.ones(4), np.ones(5))
        with pytest.raises(ValueError, match="cancel"):
            combine_text_caption(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
