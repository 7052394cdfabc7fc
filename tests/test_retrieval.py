"""Cosine top-k retrieval against a brute-force oracle."""
from __future__ import annotations

import contextlib
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from knowfuse import retrieval
from knowfuse.retrieval import (
    SCORE_BLOCK_BYTES,
    TILE_QUERIES,
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
            query = index.store.vectors[i : i + 1]
            ((name, sim),) = top_k(index, query, 1)[0]
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
        queries = rng.normal(size=(100, 32))
        _assert_matches_oracle(store, queries, 10, top_k(index, queries, 10))

    @pytest.mark.parametrize("alpha", [0.5, 3.0])
    def test_scale_invariance(self, alpha):
        index = _index(seed=4)
        rng = np.random.default_rng(5)
        queries = rng.normal(size=(20, 16))
        for base, scaled in zip(top_k(index, queries, 5), top_k(index, alpha * queries, 5)):
            assert [n for n, _ in base] == [n for n, _ in scaled]
            assert_allclose(
                [s for _, s in base], [s for _, s in scaled], atol=1e-12
            )

    def test_scores_clipped_and_sorted(self):
        index = _index(seed=6)
        rng = np.random.default_rng(7)
        for got in top_k(index, rng.normal(size=(20, 16)), 50):
            scores = [s for _, s in got]
            assert all(-1.0 <= s <= 1.0 for s in scores)
            assert scores == sorted(scores, reverse=True)

    def test_exact_ties_keep_insertion_order(self):
        # rows 0 and 2 are equal, row 1 is scaled: all three tie at 1.0
        vecs = np.array(
            [[1.0, 0.0], [2.0, 0.0], [1.0, -0.0], [0.0, 1.0]], dtype=np.float32
        )
        store = EmbeddingStore(dim=2, names=["a", "b", "c", "d"], vectors=vecs)
        index = ConceptIndex(store)
        assert index.num_distinct == 3  # -0.0 equals 0.0: row 2 copies row 0
        (got,) = top_k(index, np.array([[1.0, 0.0]]), 3)
        assert [n for n, _ in got] == ["a", "b", "c"]

    def test_zero_rows_excluded(self):
        vecs = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        store = EmbeddingStore(dim=2, names=["a", "zero", "b"], vectors=vecs)
        index = ConceptIndex(store)
        assert index.num_usable == 2
        names = [n for n, _ in top_k(index, np.array([[1.0, 1.0]]), 10)[0]]
        assert names == ["a", "b"]

    @pytest.mark.parametrize("dropped", [None, 7, "copies"])
    def test_index_holds_one_float64_copy(self, dropped):
        # Nothing dropped, row 7 zeroed, or rows 4000 to 4399 copying 0 to 399.
        n, dim = 8000, 256
        vecs = np.random.default_rng(12).normal(size=(n, dim)).astype(np.float32)
        distinct = np.ones(n, dtype=bool)
        if dropped == 7:
            vecs[7] = 0.0
            distinct[7] = False
        if dropped == "copies":
            vecs[4000:4400] = vecs[:400]
            distinct[4000:4400] = False
        store = EmbeddingStore(dim=dim, names=[f"c{i}" for i in range(n)], vectors=vecs)
        tracemalloc.start()
        try:
            index = ConceptIndex(store)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        norms = np.linalg.norm(vecs.astype(np.float64), axis=1)
        assert_array_equal(index._norms, norms[distinct])  # the same bits as one whole-matrix norm
        assert_array_equal(index._vecs, vecs[distinct].astype(np.float64))
        # One float64 copy of the distinct rows, their norms, and the rows of
        # one block; a second copy would add at least 15 MiB.
        assert peak <= 8 * index.num_distinct * dim + SCORE_BLOCK_BYTES + 16 * n + (64 << 10)

    def test_k_larger_than_store_returns_all(self):
        index = _index(n=5)
        assert [len(hits) for hits in top_k(index, np.ones((2, 16)), 99)] == [5, 5]

    def test_validation(self):
        index = _index()
        with pytest.raises(ValueError, match="k"):
            top_k(index, np.ones((1, 16)), 0)
        with pytest.raises(ValueError, match="dim"):
            top_k(index, np.ones((1, 8)), 3)
        with pytest.raises(ValueError, match="zero"):
            top_k(index, np.zeros((1, 16)), 3)
        # one vector is not a block: the [1, dim] block is the single query
        for shape in ((16,), (1, 1, 16)):
            with pytest.raises(ValueError, match=re.escape(f"query shape {shape} is not [Q, ")):
                top_k(index, np.ones(shape), 3)


@st.composite
def _search_case(draw):
    """A store with planted exact copies and zero rows, a query block, k,
    and a tile width: 0 keeps the default, which spans every row drawn.

    Rows that are not copies are random normals, so any two of them tie
    only with probability zero and the oracle's order is unambiguous."""
    # Past the 8-wide edges of the BLAS kernels, which once scored exact
    # copies an ulp apart; at most 24 rows of 6 values never showed it.
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vecs = rng.normal(size=(n, dim))
    for row in range(1, n):
        source = draw(st.integers(-1, row - 1))  # -1 keeps the row as drawn
        if source >= 0:
            vecs[row] = vecs[source]
    zeros = draw(st.lists(st.integers(0, n - 1), max_size=n))
    vecs[zeros] = 0.0
    store = EmbeddingStore(dim=dim, names=[f"c{i}" for i in range(n)], vectors=vecs)
    queries = rng.normal(size=(draw(st.integers(1, 40)), dim))
    # Querying with a stored row scores its exact copies at the very top.
    for q, row in enumerate(draw(st.lists(st.integers(0, n - 1), max_size=len(queries)))):
        if vecs[row].any():
            queries[q] = vecs[row]
    return store, queries, draw(st.integers(1, n + 3)), draw(st.sampled_from([0, 1, 3, 8]))


def _assert_matches_oracle(store, queries, k, got):
    assert len(got) == len(queries)
    for hits, query in zip(got, queries):
        want = _oracle_top_k(store, query, k)
        assert [n for n, _ in hits] == [n for n, _ in want]
        assert_allclose([s for _, s in hits], [s for _, s in want], atol=1e-12)


def _tile_width_patch(width: int):
    """Tiles of `width` rows: the budget of TILE_QUERIES query rows by them."""
    return mock.patch.object(retrieval, "SCORE_BLOCK_BYTES", 8 * TILE_QUERIES * width)


class TestBatchedTopK:
    @settings(max_examples=200, deadline=None)
    @given(_search_case())
    def test_matches_per_row_oracle(self, case):
        store, queries, k, width = case
        with _tile_width_patch(width) if width else contextlib.nullcontext():
            got = top_k(ConceptIndex(store), queries, k)
        _assert_matches_oracle(store, queries, k, got)

    def test_tiles_merge_like_one_pass(self):
        rng = np.random.default_rng(21)
        n, dim = 230, 8
        vecs = rng.normal(size=(n, dim)).astype(np.float32)
        # Copy groups whose rows straddle the seams between tiles of 64
        # distinct rows, and zero rows that shift those seams.
        for source, copies in ((63, [64, 129]), (0, [127, 200, 229]), (150, [151])):
            vecs[copies] = vecs[source]
        vecs[[5, 100]] = 0.0
        store = EmbeddingStore(dim=dim, names=[f"c{i}" for i in range(n)], vectors=vecs)
        queries = rng.normal(size=(100, dim))
        queries[:4] = vecs[[63, 0, 150, 229]]
        with _tile_width_patch(64):
            index = ConceptIndex(store)
            assert index.num_distinct == 222
            assert index.tile_width == 64  # four tiles
            budget = retrieval.SCORE_BLOCK_BYTES
            assert index.block_rows(1) == budget // (8 * 64)
            # Past a tile's worth of kept candidates, blocks shrink to fit them.
            assert index.block_rows(n) == budget // (8 * 222)
            for k in (1, 10, 64 + 6, n + 3):
                _assert_matches_oracle(store, queries, k, top_k(index, queries, k))

    def test_exact_copies_tie_at_kernel_edges(self):
        # 1,004 rows, not a multiple of the kernels' 8 columns: scored in one
        # product, the last row's score could move an ulp away from row 0's.
        rng = np.random.default_rng(0)
        n, dim = 1004, 32
        vecs = rng.normal(size=(n, dim)).astype(np.float32)
        vecs[-1] = vecs[0]
        store = EmbeddingStore(dim=dim, names=[f"c{i}" for i in range(n)], vectors=vecs)
        queries = vecs[0] + 0.05 * rng.normal(size=(26, dim))
        for hits in top_k(ConceptIndex(store), queries, 3):
            (first, s0), (second, s1), _ = hits
            assert (first, second) == ("c0", f"c{n - 1}")
            assert s0 == s1

    def test_tie_across_the_cut_keeps_insertion_order(self):
        vecs = np.array([[0.0, 1.0]] + [[1.0, 0.0]] * 5, dtype=np.float32)
        store = EmbeddingStore(dim=2, names=["o", "a", "b", "c", "d", "e"], vectors=vecs)
        index = ConceptIndex(store)
        query = np.array([1.0, 0.0])
        block = top_k(index, np.stack([query, query]), 3)
        assert [[n for n, _ in hits] for hits in block] == [["a", "b", "c"]] * 2

    def test_blocks_split_by_byte_budget(self, monkeypatch):
        index = _index(n=40, seed=10)
        queries = np.random.default_rng(11).normal(size=(23, 16))
        queries_in = queries.copy()
        whole = top_k(index, queries, 7)
        assert_array_equal(queries, queries_in)  # the block is left as it was
        monkeypatch.setattr("knowfuse.retrieval.SCORE_BLOCK_BYTES", 8 * 40 * 5)
        assert index.block_rows(7) == 5
        # Block shapes may change the last bits of a score, never the order.
        for got in (top_k(index, queries, 7), [top_k(index, q[None], 7)[0] for q in queries]):
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
        got = combine_text_caption(np.array([[2.0, 0.0]]), np.array([[0.0, 5.0]]))
        assert_allclose(got, [[1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)]], rtol=1e-12)

    def test_unit_norm_output(self):
        rng = np.random.default_rng(8)
        out = combine_text_caption(rng.normal(size=(50, 12)), rng.normal(size=(50, 12)))
        assert_allclose(np.linalg.norm(out, axis=1), 1.0, rtol=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(9)
        t, c = rng.normal(size=(1, 6)), rng.normal(size=(1, 6))
        assert_allclose(
            combine_text_caption(t, c), combine_text_caption(c, t), rtol=1e-12
        )

    def test_errors(self):
        with pytest.raises(ValueError, match="text"):
            combine_text_caption(np.zeros((1, 4)), np.ones((1, 4)))
        with pytest.raises(ValueError, match="caption"):
            combine_text_caption(np.ones((1, 4)), np.zeros((1, 4)))
        with pytest.raises(ValueError, match="dim"):
            combine_text_caption(np.ones((1, 4)), np.ones((1, 5)))
        with pytest.raises(ValueError, match="cancel"):
            combine_text_caption(np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]]))
        # one vector pair is not a block: the [1, dim] blocks are the single pair
        with pytest.raises(ValueError, match=re.escape("(4,) are not both [Q, dim]")):
            combine_text_caption(np.ones(4), np.ones(4))

    def test_batched_equals_row_by_row(self):
        rng = np.random.default_rng(12)
        t, c = rng.normal(size=(30, 7)), rng.normal(size=(30, 7)).astype(np.float32)
        t_in, c_in = t.copy(), c.copy()
        got = combine_text_caption(t, c)
        assert got.shape == (30, 7)
        rows = [combine_text_caption(a[None], b[None]) for a, b in zip(t, c)]
        assert_array_equal(got, np.concatenate(rows))
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
