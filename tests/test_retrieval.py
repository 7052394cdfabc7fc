"""Cosine top-k retrieval against a brute-force oracle."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from knowfuse.retrieval import (
    SCORE_BLOCK_BYTES,
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

    @pytest.mark.parametrize("zero_row", [None, 7])
    def test_index_holds_one_float64_copy(self, zero_row):
        n, dim = 8000, 256
        vecs = np.random.default_rng(12).normal(size=(n, dim)).astype(np.float32)
        if zero_row is not None:
            vecs[zero_row] = 0.0
        store = EmbeddingStore(dim=dim, names=[f"c{i}" for i in range(n)], vectors=vecs)
        tracemalloc.start()
        try:
            index = ConceptIndex(store)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        norms = np.linalg.norm(vecs.astype(np.float64), axis=1)
        usable = norms > 0.0
        assert_array_equal(index._norms, norms[usable])  # the same bits as one whole-matrix norm
        assert_array_equal(index._vecs, vecs[usable].astype(np.float64))
        if zero_row is None:
            # One float64 copy of the matrix, its norms, and the squares of
            # one block of rows; a second copy would add 15.6 MiB.
            assert peak <= 8 * n * dim + SCORE_BLOCK_BYTES + 16 * n + (64 << 10)

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


@st.composite
def _search_case(draw):
    """A store with planted exact copies and zero rows, a query block, and k.

    Rows that are not copies are random normals, so any two of them tie
    only with probability zero and the oracle's order is unambiguous."""
    n = draw(st.integers(1, 24))
    dim = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vecs = rng.normal(size=(n, dim))
    for row in range(1, n):
        source = draw(st.integers(-1, row - 1))  # -1 keeps the row as drawn
        if source >= 0:
            vecs[row] = vecs[source]
    zeros = draw(st.lists(st.integers(0, n - 1), max_size=n))
    vecs[zeros] = 0.0
    store = EmbeddingStore(dim=dim, names=[f"c{i}" for i in range(n)], vectors=vecs)
    queries = rng.normal(size=(draw(st.integers(1, 8)), dim))
    # Querying with a stored row scores its exact copies at the very top.
    for q, row in enumerate(draw(st.lists(st.integers(0, n - 1), max_size=len(queries)))):
        if vecs[row].any():
            queries[q] = vecs[row]
    return store, queries, draw(st.integers(1, n + 3))


class TestBatchedTopK:
    @settings(max_examples=200, deadline=None)
    @given(_search_case())
    def test_matches_per_row_oracle(self, case):
        store, queries, k = case
        got = top_k(ConceptIndex(store), queries, k)
        assert len(got) == len(queries)
        for hits, query in zip(got, queries):
            want = _oracle_top_k(store, query, k)
            assert [n for n, _ in hits] == [n for n, _ in want]
            assert_allclose([s for _, s in hits], [s for _, s in want], atol=1e-12)

    def test_tie_across_the_cut_keeps_insertion_order(self):
        vecs = np.array([[0.0, 1.0]] + [[1.0, 0.0]] * 5, dtype=np.float32)
        store = EmbeddingStore(dim=2, names=["o", "a", "b", "c", "d", "e"], vectors=vecs)
        index = ConceptIndex(store)
        query = np.array([1.0, 0.0])
        assert [n for n, _ in top_k(index, query, 3)] == ["a", "b", "c"]
        block = top_k(index, np.stack([query, query]), 3)
        assert [[n for n, _ in hits] for hits in block] == [["a", "b", "c"]] * 2

    def test_blocks_split_by_byte_budget(self, monkeypatch):
        index = _index(n=40, seed=10)
        queries = np.random.default_rng(11).normal(size=(23, 16))
        queries_in = queries.copy()
        whole = top_k(index, queries, 7)
        assert_array_equal(queries, queries_in)  # the block is left as it was
        monkeypatch.setattr("knowfuse.retrieval.SCORE_BLOCK_BYTES", 8 * 40 * 5)
        assert index.block_rows == 5
        # Block shapes may change the last bits of a score, never the order.
        for got in (top_k(index, queries, 7), [top_k(index, q, 7) for q in queries]):
            for a, b in zip(got, whole, strict=True):
                assert [n for n, _ in a] == [n for n, _ in b]
                assert_allclose([s for _, s in a], [s for _, s in b], atol=1e-12)

    def test_empty_block_and_empty_index(self):
        assert top_k(_index(), np.zeros((0, 16)), 3) == []
        store = EmbeddingStore(dim=2, names=["z"], vectors=np.zeros((1, 2)))
        assert top_k(ConceptIndex(store), np.ones((2, 2)), 3) == [[], []]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        index = _index()
        query = np.ones(16)
        query[3] = bad
        with pytest.raises(ValueError, match="query vector is not finite"):
            top_k(index, query, 3)
        block = np.ones((4, 16))
        block[2, 5] = bad
        with pytest.raises(ValueError, match="query row 2 is not finite"):
            top_k(index, block, 3)

    def test_zero_row_named_across_blocks(self, monkeypatch):
        index = _index(n=10)
        monkeypatch.setattr("knowfuse.retrieval.SCORE_BLOCK_BYTES", 8 * 10 * 2)
        block = np.ones((5, 16))
        block[3] = 0.0
        with pytest.raises(ValueError, match="query row 3 has zero norm"):
            top_k(index, block, 3)

    def test_block_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            top_k(_index(), np.ones((3, 8)), 3)


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

    def test_batched_equals_row_by_row(self):
        rng = np.random.default_rng(12)
        t, c = rng.normal(size=(30, 7)), rng.normal(size=(30, 7)).astype(np.float32)
        t_in, c_in = t.copy(), c.copy()
        got = combine_text_caption(t, c)
        assert got.shape == (30, 7)
        assert_array_equal(got, np.stack([combine_text_caption(a, b) for a, b in zip(t, c)]))
        assert_array_equal(t, t_in)  # inputs are left as they were
        assert_array_equal(c, c_in)

    def test_batched_errors_name_the_row(self):
        t = np.ones((3, 4))
        c = np.ones((3, 4))
        c[1] = 0.0
        with pytest.raises(ValueError, match="caption row 1 has zero norm"):
            combine_text_caption(t, c)
        c[1] = -t[1]
        with pytest.raises(ValueError, match="row 1 .*cancel"):
            combine_text_caption(t, c)
        with pytest.raises(ValueError, match="rows"):
            combine_text_caption(np.ones((3, 4)), np.ones((2, 4)))
        with pytest.raises(ValueError, match="dim"):
            combine_text_caption(np.ones((3, 4)), np.ones((3, 5)))
        with pytest.raises(ValueError, match="shape"):
            combine_text_caption(np.ones((3, 4)), np.ones(4))
