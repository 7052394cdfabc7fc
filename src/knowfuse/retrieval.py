"""Exact cosine top-k retrieval over an embedding store.

Scores are computed in float64 against every usable row (zero-norm rows are
excluded once at index build time), ranked descending with ties broken by
ascending insertion order. Queries are searched in blocks, as in a flat exact
index: one matrix product scores a block against every usable row, and a
partition finds each query's k-th best score, so only the rows that can make
the top k are sorted.
"""
from __future__ import annotations

import numpy as np

from .errors import check_value
from .stores import EmbeddingStore

# Bytes one block of float64 scores may take; the query rows per block follow
# from the number of usable rows, so memory stays flat as the index grows.
SCORE_BLOCK_BYTES = 4 << 20


class ConceptIndex:
    """A store prepared for cosine search: cached norms, zero rows dropped."""

    def __init__(self, store: EmbeddingStore) -> None:
        self.store = store
        vecs = store.vectors.astype(np.float64)
        norms = np.linalg.norm(vecs, axis=1)
        self.usable = np.nonzero(norms > 0.0)[0]
        self._vecs = vecs[self.usable]
        self._norms = norms[self.usable]

    @property
    def dim(self) -> int:
        return self.store.dim

    @property
    def num_usable(self) -> int:
        return int(self.usable.shape[0])

    @property
    def block_rows(self) -> int:
        """Query rows per search block: their scores fit SCORE_BLOCK_BYTES."""
        return max(1, SCORE_BLOCK_BYTES // (8 * max(self.num_usable, 1)))


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


def top_k(index: ConceptIndex, queries: np.ndarray, k: int):
    """The k nearest rows by cosine similarity, for one query or a block.

    `queries` is one `[dim]` vector, which returns a list of (name, score)
    pairs, or a `[Q, dim]` matrix, which returns one such list per row.
    Scores are clipped into [-1, 1], descending, ties by insertion order.
    Fewer than k usable rows returns all of them. Raises ValueError on a dim
    mismatch, a zero-norm or non-finite query row, or k not an int >= 1.
    """
    check_value("k", k, int, min=1)
    q = np.asarray(queries)
    single = q.ndim <= 1
    if single:
        q = q.reshape(1, -1)
    if q.ndim != 2 or q.shape[1] != index.dim:
        raise ValueError(f"query dim {q.shape[-1]} does not match index dim {index.dim}")

    hits: list[list[tuple[str, float]]] = []
    step = index.block_rows
    for start in range(0, q.shape[0], step):
        block = q[start : start + step].astype(np.float64)
        _reject(~np.isfinite(block).all(axis=1), single, "query", "is not finite", start)
        _normalise_rows(block, single, "query", start)
        hits.extend(_search_block(index, block, k))
    return hits[0] if single else hits


def _search_block(
    index: ConceptIndex, unit: np.ndarray, k: int
) -> list[list[tuple[str, float]]]:
    """Top k of each unit-norm query row, scored with one matrix product."""
    scores = unit @ index._vecs.T
    scores /= index._norms
    n = scores.shape[1]
    kk = min(k, n)
    if kk == 0:
        return [[] for _ in range(unit.shape[0])]

    # Every row scoring at least the k-th best survives, so exact ties across
    # the cut are all kept. nonzero lists survivors by row, then by ascending
    # column; the sort orders each row by descending score, keeping insertion
    # order among equal scores, as a full stable sort would.
    kth = np.partition(scores, n - kk, axis=1)[:, n - kk]
    rows, cols = np.nonzero(scores >= kth[:, None])
    order = np.lexsort((cols, -scores[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    counts = np.bincount(rows, minlength=unit.shape[0])
    rank = np.arange(rows.shape[0]) - (np.cumsum(counts) - counts)[rows]
    picked = cols[rank < kk].reshape(-1, kk)
    best = np.clip(np.take_along_axis(scores, picked, axis=1), -1.0, 1.0)

    names = index.store.names
    return [
        [(names[i], s) for i, s in zip(index.usable[row].tolist(), vals.tolist())]
        for row, vals in zip(picked, best)
    ]


def combine_text_caption(text_vec: np.ndarray, caption_vec: np.ndarray) -> np.ndarray:
    """L2-normalised mean of the two L2-normalised inputs.

    Takes one `[dim]` pair or `[Q, dim]` pairs, combined row by row, and
    returns the same shape. Raises ValueError on mismatched shapes, a
    zero-norm row, or a pair that cancels out.
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
    _normalise_rows(t2, single, "text")
    _normalise_rows(c2, single, "caption")
    t2 += c2
    t2 /= 2.0  # t now holds the mean of the two unit vectors
    norms = np.linalg.norm(t2, axis=1)
    _reject(norms == 0.0, single, "combined query", "is zero: text and caption cancel out")
    t2 /= norms[:, None]
    return t
