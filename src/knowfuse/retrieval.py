"""Exact cosine top-k retrieval over an embedding store.

Scores are computed in float64 and ranked descending, ties broken by
ascending insertion order. A `ConceptIndex` drops zero-norm rows and groups
exact copies once, when it is built, so each distinct row is scored once and
its copies take that very score: exact copies always tie, and come out in
insertion order, whatever the BLAS kernels do at the edges of a product.

Search is tiled over queries and rows alike, as in exact brute-force search
(Johnson, Douze & Jegou, "Billion-scale similarity search with GPUs", 2017).
One matrix product scores a block of queries against one run of distinct
rows, a partition finds each query's k-th best score within that tile, and
every row at or above it is kept. A tile's k-th best is at most the overall
one, so no winner and no tie at the cut is lost. One sort then merges the
tiles' candidates, each expanded into the rows of its copy group.
"""
from __future__ import annotations

import numpy as np

from .errors import check_value
from .stores import EmbeddingStore

# Bytes one tile of float64 scores may take, whatever the size of the index.
SCORE_BLOCK_BYTES = 4 << 20
# Query rows a full-width tile holds. Scoring 26 queries against a whole
# 20,000-row store also fits the budget, but a product that short runs at
# half the speed of one this tall. The tile width, 2,048 rows, is a multiple
# of 8: with OpenBLAS's Haswell kernels such tiles gave the bits of one whole
# product, and 500-row tiles did not.
TILE_QUERIES = 256


class ConceptIndex:
    """A store prepared for cosine search: zero rows dropped, exact copies
    grouped, and one float64 copy of the distinct rows with their norms."""

    def __init__(self, store: EmbeddingStore) -> None:
        self.store = store
        vectors = store.vectors
        # Row blocks bound the float64 temporaries; each row's norm is the same.
        # Half the budget keeps a block's squares under a 4 MiB malloc mmap
        # threshold, so each block reuses the heap instead of fresh pages.
        step = max(1, SCORE_BLOCK_BYTES // (16 * store.dim))
        norms = np.empty(len(vectors))
        for start in range(0, len(vectors), step):
            block = vectors[start : start + step]
            # Float32 products are exact in float64: the bits of np.linalg.norm.
            norms[start : start + step] = np.sqrt(
                np.add.reduce(np.multiply(block, block, dtype=np.float64), axis=1))
        usable = np.nonzero(norms > 0.0)[0]
        first = _first_copies(vectors, usable, norms)
        distinct = usable[first == usable]
        # The usable rows by copy group, groups in the order of their first
        # row and each group in insertion order.
        order = np.argsort(first, kind="stable")
        self._rows = usable[order]
        self._group_start = np.searchsorted(first[order], distinct)
        self._group_size = np.diff(self._group_start, append=len(usable))
        vecs = np.empty((len(distinct), store.dim))
        for start in range(0, len(distinct), step):
            vecs[start : start + step] = vectors[distinct[start : start + step]]
        self._vecs, self._norms = vecs, norms[distinct]

    @property
    def dim(self) -> int:
        return self.store.dim

    @property
    def num_usable(self) -> int:
        return int(self._rows.shape[0])

    @property
    def num_distinct(self) -> int:
        return int(self._vecs.shape[0])

    @property
    def tile_width(self) -> int:
        """Distinct rows per search tile: as many as let TILE_QUERIES query
        rows fit SCORE_BLOCK_BYTES, or all of them."""
        return max(1, min(SCORE_BLOCK_BYTES // (8 * TILE_QUERIES), self.num_distinct))

    def block_rows(self, k: int) -> int:
        """Query rows per search block: as many as keep one tile of their
        scores within SCORE_BLOCK_BYTES, and their candidates too, which
        outnumber a tile's scores when k times the tile count does."""
        tiles = -(-self.num_distinct // self.tile_width)
        kept = max(self.tile_width, min(self.num_distinct, k * tiles))
        return max(1, SCORE_BLOCK_BYTES // (8 * kept))


def _first_copies(vectors: np.ndarray, usable: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """For each usable row, the first row whose values equal its own.

    Exact copies share a norm, so only rows whose norm another row has are
    compared, as bytes once adding 0.0 has turned each -0.0 into 0.0."""
    first = usable.copy()
    order = np.argsort(norms[usable])
    same = np.flatnonzero(norms[usable[order[1:]]] == norms[usable[order[:-1]]])
    # A mask, not np.unique: numpy 2's unique of integers imports numpy.ma.
    shared = np.zeros(len(usable), dtype=bool)
    shared[order[same]] = shared[order[same + 1]] = True
    rows = usable[shared]
    if len(rows):
        keys = vectors[rows] + np.float32(0.0)
        keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
        _, firsts, inverse = np.unique(keys, return_index=True, return_inverse=True)
        first[shared] = rows[firsts[inverse.ravel()]]
    return first


def _reject(
    bad: np.ndarray, single: bool, what: str, problem: str, first: int = 0
) -> None:
    """Raise ValueError naming the first row flagged in `bad`, counted from
    `first`; a single vector is named as such."""
    if bad.any():
        where = f"{what} vector" if single else f"{what} row {first + int(np.argmax(bad))}"
        raise ValueError(f"{where} {problem}")


def _normalise_rows(x: np.ndarray, single: bool, what: str, first: int = 0) -> None:
    """Divide the rows of x by their L2 norms in place; zero rows are an error."""
    norms = np.linalg.norm(x, axis=1)
    _reject(norms == 0.0, single, what, "has zero norm", first)
    x /= norms[:, None]


def top_k(index: ConceptIndex, queries: np.ndarray, k: int, *, first: int = 0):
    """The k nearest rows by cosine similarity, for one query or a block.

    `queries` is one `[dim]` vector, which returns a list of (name, score)
    pairs, or a `[Q, dim]` matrix, which returns one such list per row.
    Scores are clipped into [-1, 1], descending, ties by insertion order.
    Fewer than k usable rows returns all of them. Raises ValueError on a dim
    mismatch, a zero-norm or non-finite query row, or k not an int >= 1.
    Errors number the rows from `first`, for a block cut from a larger matrix.
    """
    check_value("k", k, int, min=1)
    q = np.asarray(queries)
    single = q.ndim <= 1
    if single:
        q = q.reshape(1, -1)
    if q.ndim != 2 or q.shape[1] != index.dim:
        raise ValueError(f"query dim {q.shape[-1]} does not match index dim {index.dim}")

    hits: list[list[tuple[str, float]]] = []
    step = index.block_rows(k)
    for start in range(0, q.shape[0], step):
        block = q[start : start + step].astype(np.float64)
        _reject(~np.isfinite(block).all(axis=1), single, "query", "is not finite", first + start)
        _normalise_rows(block, single, "query", first + start)
        hits.extend(_search_block(index, block, k))
    return hits[0] if single else hits


def _search_block(
    index: ConceptIndex, unit: np.ndarray, k: int
) -> list[list[tuple[str, float]]]:
    """Top k of each unit-norm query row, scored one tile of rows at a time."""
    kk = min(k, index.num_usable)
    if kk == 0:
        return [[] for _ in range(unit.shape[0])]
    rows, cols, vals = _tile_candidates(index, unit, k)

    # Each candidate stands for every row of its copy group, all at its score.
    size = index._group_size[cols]
    each = np.repeat(np.arange(cols.shape[0]), size)
    offset = np.arange(each.shape[0]) - np.repeat(np.cumsum(size) - size, size)
    ids = index._rows[np.repeat(index._group_start[cols], size) + offset]
    rows, vals = rows[each], vals[each]

    # The sort orders each query's candidates by descending score, then by
    # insertion order, as a full stable sort would; the first kk are its top k.
    order = np.lexsort((ids, -vals, rows))
    rows, ids, vals = rows[order], ids[order], vals[order]
    counts = np.bincount(rows, minlength=unit.shape[0])
    rank = np.arange(rows.shape[0]) - (np.cumsum(counts) - counts)[rows]
    top = rank < kk
    picked = ids[top].reshape(-1, kk)
    best = np.clip(vals[top].reshape(-1, kk), -1.0, 1.0)

    # One flat list cut per query, so that no Python frame runs per hit.
    hits = list(zip(map(index.store.names.__getitem__, picked.ravel().tolist()),
                    best.ravel().tolist()))
    return [hits[start : start + kk] for start in range(0, len(hits), kk)]


def _tile_candidates(
    index: ConceptIndex, unit: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Query row, distinct row and score of every score at or above its
    tile's k-th best. The tiles' scores and their partitioned copies reuse
    two buffers, freed on return."""
    width = index.tile_width
    score_buf, part_buf = np.empty((2, unit.shape[0] * width))
    rows, cols, vals = [], [], []
    for start in range(0, index.num_distinct, width):
        tile = index._vecs[start : start + width]
        n = tile.shape[0]
        scores = np.matmul(unit, tile.T, out=score_buf[: unit.shape[0] * n].reshape(-1, n))
        scores /= index._norms[start : start + width]
        part = part_buf[: scores.size].reshape(scores.shape)
        np.copyto(part, scores)
        cut = n - min(k, n)
        part.partition(cut, axis=1)
        # Faster than a two-dimensional nonzero; lists them row by row.
        flat = np.flatnonzero(scores >= part[:, cut, None])
        r, c = np.divmod(flat, n)
        rows.append(r)
        cols.append(c + start)
        vals.append(scores.ravel()[flat])
    return tuple(np.concatenate(a) for a in (rows, cols, vals))


def combine_text_caption(
    text_vec: np.ndarray, caption_vec: np.ndarray, *, first: int = 0
) -> np.ndarray:
    """L2-normalised mean of the two L2-normalised inputs.

    Takes one `[dim]` pair or `[Q, dim]` pairs, combined row by row, and
    returns the same shape. Raises ValueError on mismatched shapes, a
    zero-norm row, or a pair that cancels out; errors number the rows from
    `first`, as top_k does.
    """
    # Copies, so the arithmetic below can run in place.
    t = np.array(text_vec, dtype=np.float64)
    c = np.array(caption_vec, dtype=np.float64)
    single = t.ndim == 1
    if t.ndim not in (1, 2) or c.ndim != t.ndim:
        raise ValueError(
            f"text shape {t.shape} and caption shape {c.shape} are not both [dim] or [Q, dim]"
        )
    if t.shape[-1] != c.shape[-1]:
        raise ValueError(f"text dim {t.shape[-1]} != caption dim {c.shape[-1]}")
    if t.shape != c.shape:
        raise ValueError(f"{t.shape[0]} text rows != {c.shape[0]} caption rows")
    t2, c2 = t.reshape(-1, t.shape[-1]), c.reshape(-1, c.shape[-1])  # views
    _normalise_rows(t2, single, "text", first)
    _normalise_rows(c2, single, "caption", first)
    t2 += c2
    t2 /= 2.0  # t now holds the mean of the two unit vectors
    norms = np.linalg.norm(t2, axis=1)
    _reject(norms == 0.0, single, "combined query", "is zero: text and caption cancel out",
            first)
    t2 /= norms[:, None]
    return t
