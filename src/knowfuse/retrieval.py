"""Exact cosine top-k retrieval over an embedding store.

Scores are computed in float64 against every usable row (zero-norm rows are
excluded once at index build time), sorted descending with ties broken by
ascending insertion order.
"""
from __future__ import annotations

import numpy as np

from .stores import EmbeddingStore


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


def top_k(index: ConceptIndex, query: np.ndarray, k: int) -> list[tuple[str, float]]:
    """The k nearest rows by cosine similarity.

    Returns (name, score) pairs, scores clipped into [-1, 1], descending,
    ties by insertion order. Fewer than k usable rows returns all of them.
    Raises ValueError on a dim mismatch, a zero-norm query, or k < 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    q = np.asarray(query, dtype=np.float64).reshape(-1)
    if q.shape[0] != index.dim:
        raise ValueError(f"query dim {q.shape[0]} does not match index dim {index.dim}")
    qn = np.linalg.norm(q)
    if qn == 0.0:
        raise ValueError("query vector has zero norm")

    scores = (index._vecs @ (q / qn)) / index._norms
    # Stable sort on negated scores keeps ascending insertion order for ties.
    order = np.argsort(-scores, kind="stable")[: min(k, scores.shape[0])]
    names = index.store.names
    return [
        (names[int(index.usable[i])], float(np.clip(scores[i], -1.0, 1.0)))
        for i in order
    ]


def combine_text_caption(text_vec: np.ndarray, caption_vec: np.ndarray) -> np.ndarray:
    """L2-normalised mean of the two L2-normalised inputs."""
    t = np.asarray(text_vec, dtype=np.float64).reshape(-1)
    c = np.asarray(caption_vec, dtype=np.float64).reshape(-1)
    if t.shape != c.shape:
        raise ValueError(f"text dim {t.shape[0]} != caption dim {c.shape[0]}")
    tn, cn = np.linalg.norm(t), np.linalg.norm(c)
    if tn == 0.0:
        raise ValueError("text vector has zero norm")
    if cn == 0.0:
        raise ValueError("caption vector has zero norm")
    mean = (t / tn + c / cn) / 2.0
    mn = np.linalg.norm(mean)
    if mn == 0.0:
        raise ValueError("text and caption cancel out; combined query is zero")
    return mean / mn
