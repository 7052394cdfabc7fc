"""Contextual congruence between paired modality embeddings.

Measures how close text and image embeddings sit, before and after each
side is pulled toward the pair's mean knowledge vector, to quantify how
much shared knowledge context tightens the pairing.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .stores import write_csv

HISTOGRAM_BINS = 20


@dataclass
class ModalityPairSet:
    """Row i of text_vecs pairs with row i of image_vecs.

    knowledge_vecs, when present, holds one [k_i, d] matrix per pair with
    the knowledge vectors retrieved for that pair; any other shape is rejected.
    """

    text_vecs: np.ndarray
    image_vecs: np.ndarray
    knowledge_vecs: list[np.ndarray] | None = None
    ids: list[str] | None = None

    def __post_init__(self) -> None:
        self.text_vecs = np.asarray(self.text_vecs, dtype=np.float64)
        self.image_vecs = np.asarray(self.image_vecs, dtype=np.float64)
        if self.text_vecs.ndim != 2 or self.image_vecs.ndim != 2:
            raise ValueError("modality vectors must be 2-d [n, d]")
        if self.text_vecs.shape != self.image_vecs.shape:
            raise ValueError(
                f"text {self.text_vecs.shape} and image {self.image_vecs.shape} "
                "shapes differ"
            )
        n, d = self.text_vecs.shape
        if n < 1:
            raise ValueError("need at least one pair")
        if self.ids is None:
            self.ids = [str(i) for i in range(n)]
        elif len(self.ids) != n:
            raise ValueError("one id per pair required")
        if self.knowledge_vecs is not None:
            if len(self.knowledge_vecs) != n:
                raise ValueError("one knowledge matrix per pair required")
            self.knowledge_vecs = [np.asarray(m, dtype=np.float64) for m in self.knowledge_vecs]
            for pair, m in zip(self.ids, self.knowledge_vecs):
                if m.ndim != 2 or m.shape[1] != d:
                    raise ValueError(f"pair {pair!r}: knowledge matrix {m.shape} is not [k, {d}] "
                                     f"for modality vectors {self.text_vecs.shape}")

    @property
    def n(self) -> int:
        return self.text_vecs.shape[0]


@dataclass
class CongruenceReport:
    """Summary figures plus the per-pair cosines they rest on; `ids` and the
    cosines feed `write_pair_csv`, and `to_dict` leaves them out."""

    centroid_distance: float
    mean_pairwise_cosine: float
    histogram_edges: list[float]
    histogram_counts: list[int]
    ids: list[str]
    cosines: np.ndarray
    cosines_with: np.ndarray | None = None
    centroid_distance_with: float | None = None
    mean_pairwise_cosine_with: float | None = None
    histogram_counts_with: list[int] | None = None
    relative_similarity_change: float | None = None

    def to_dict(self) -> dict:
        return {
            "centroid_distance": self.centroid_distance,
            "mean_pairwise_cosine": self.mean_pairwise_cosine,
            "cosine_histogram": {
                "edges": self.histogram_edges,
                "counts": self.histogram_counts,
            },
            "with_knowledge": None
            if self.centroid_distance_with is None
            else {
                "centroid_distance": self.centroid_distance_with,
                "mean_pairwise_cosine": self.mean_pairwise_cosine_with,
                "cosine_histogram": {
                    "edges": self.histogram_edges,
                    "counts": self.histogram_counts_with,
                },
            },
            "relative_similarity_change": self.relative_similarity_change,
        }


def pairwise_cosines(pairs: ModalityPairSet) -> np.ndarray:
    """Cosine similarity of each (text, image) pair, clipped to [-1, 1]."""
    tn = np.linalg.norm(pairs.text_vecs, axis=1)
    vn = np.linalg.norm(pairs.image_vecs, axis=1)
    if np.any(tn == 0.0) or np.any(vn == 0.0):
        raise ValueError("zero-norm modality vector")
    dots = np.sum(pairs.text_vecs * pairs.image_vecs, axis=1)
    return np.clip(dots / (tn * vn), -1.0, 1.0)


def augment_with_knowledge(pairs: ModalityPairSet) -> ModalityPairSet:
    """Pull both modalities toward each pair's mean knowledge vector.

    Every modality vector is replaced by the L2-normalised mean of itself
    and the pair's knowledge mean; both sides of a pair receive the same
    knowledge mean. Raises ValueError when knowledge is missing, a
    knowledge mean has zero norm, or an augmented vector degenerates to
    zero.
    """
    if pairs.knowledge_vecs is None:
        raise ValueError("pair set has no knowledge vectors")
    km = np.empty_like(pairs.text_vecs)
    for i, (pair, mat) in enumerate(zip(pairs.ids, pairs.knowledge_vecs)):
        if mat.shape[0] == 0:
            raise ValueError(f"pair {pair!r}: empty knowledge matrix")
        km[i] = mat.mean(axis=0)

    def _unit(vecs: np.ndarray, what: str) -> np.ndarray:
        norms = np.linalg.norm(vecs, axis=1)
        if np.any(norms == 0.0):
            bad = pairs.ids[int(np.argmax(norms == 0.0))]
            raise ValueError(f"pair {bad!r}: {what} has zero norm")
        return vecs / norms[:, None]

    _unit(km, "knowledge mean")
    return ModalityPairSet(
        text_vecs=_unit(0.5 * (pairs.text_vecs + km), "augmented vector"),
        image_vecs=_unit(0.5 * (pairs.image_vecs + km), "augmented vector"),
        knowledge_vecs=pairs.knowledge_vecs,
        ids=list(pairs.ids),
    )


def _centroid_distance(pairs: ModalityPairSet) -> float:
    return float(
        np.linalg.norm(pairs.text_vecs.mean(axis=0) - pairs.image_vecs.mean(axis=0))
    )


def _histogram(cosines: np.ndarray) -> tuple[list[float], list[int]]:
    counts, edges = np.histogram(cosines, bins=HISTOGRAM_BINS, range=(-1.0, 1.0))
    return edges.tolist(), counts.tolist()


def report(pairs: ModalityPairSet) -> CongruenceReport:
    """Congruence summary, with and (when knowledge is present) without
    knowledge augmentation.

    relative_similarity_change = (cos_with - cos_without) / |cos_without|
    on the mean pairwise cosine.
    """
    if pairs.n < 2:
        raise ValueError(f"need at least 2 pairs, got {pairs.n}")
    cosines = pairwise_cosines(pairs)
    edges, counts = _histogram(cosines)
    rep = CongruenceReport(
        centroid_distance=_centroid_distance(pairs),
        mean_pairwise_cosine=float(cosines.mean()),
        histogram_edges=edges,
        histogram_counts=counts,
        ids=list(pairs.ids),
        cosines=cosines,
    )
    if pairs.knowledge_vecs is not None:
        augmented = augment_with_knowledge(pairs)
        rep.cosines_with = pairwise_cosines(augmented)
        _, rep.histogram_counts_with = _histogram(rep.cosines_with)
        rep.centroid_distance_with = _centroid_distance(augmented)
        rep.mean_pairwise_cosine_with = float(rep.cosines_with.mean())
        without = rep.mean_pairwise_cosine
        if without == 0.0:
            raise ValueError(
                "relative change undefined: mean cosine without knowledge is 0"
            )
        rep.relative_similarity_change = (
            rep.mean_pairwise_cosine_with - without
        ) / abs(without)
    return rep


def write_pair_csv(rep: CongruenceReport, path: str | Path) -> None:
    """Per-pair cosine CSV: pair_id, cos_without, cos_with (empty without
    knowledge)."""
    cos_with = ([""] * len(rep.ids) if rep.cosines_with is None
                else map(repr, rep.cosines_with.tolist()))
    write_csv(["pair_id", "cos_without", "cos_with"],
              zip(rep.ids, map(repr, rep.cosines.tolist()), cos_with), path)
