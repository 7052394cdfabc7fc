"""Contextual congruence between paired modality embeddings.

Measures how close text and image embeddings sit, before and after each
side is pulled toward the pair's mean knowledge vector, to quantify how
much shared knowledge context tightens the pairing. A pair set holds one
knowledge mean per pair, as one [n, d] array. Each side of a report, the
raw pairs and the augmented ones, is summarised by the same code: the pair
cosines, the centroid distance, the mean cosine and the cosine histogram.
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

    knowledge, when present, is an [n, d] array whose row i is the mean of
    the knowledge vectors retrieved for pair i; any other shape is rejected,
    and so is a NaN or infinite value in any of the three arrays.
    """

    text_vecs: np.ndarray
    image_vecs: np.ndarray
    knowledge: np.ndarray | None = None
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
        if self.knowledge is not None:
            self.knowledge = np.asarray(self.knowledge, dtype=np.float64)
            if self.knowledge.shape != (n, d):
                raise ValueError(f"knowledge means {self.knowledge.shape} are not "
                                 f"[{n}, {d}] like the modality vectors")
        for what, vecs in (("text", self.text_vecs), ("image", self.image_vecs),
                           ("knowledge", self.knowledge)):
            if vecs is not None and not np.isfinite(vecs).all():
                bad = self.ids[int(np.argmin(np.isfinite(vecs).all(axis=1)))]
                raise ValueError(f"pair {bad!r}: {what} vector is not finite")

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
        def side(distance, mean, counts) -> dict:
            return {"centroid_distance": distance, "mean_pairwise_cosine": mean,
                    "cosine_histogram": {"edges": self.histogram_edges, "counts": counts}}

        return {
            **side(self.centroid_distance, self.mean_pairwise_cosine, self.histogram_counts),
            "with_knowledge": None if self.centroid_distance_with is None else side(
                self.centroid_distance_with, self.mean_pairwise_cosine_with,
                self.histogram_counts_with),
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
    km = pairs.knowledge
    if km is None:
        raise ValueError("pair set has no knowledge vectors")

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
        knowledge=km,
        ids=list(pairs.ids),
    )


def _summary(pairs: ModalityPairSet) -> tuple[np.ndarray, float, float, list[int]]:
    """The pair cosines, centroid distance, mean cosine and cosine
    histogram counts of one pair set."""
    cosines = pairwise_cosines(pairs)
    counts, _ = np.histogram(cosines, bins=HISTOGRAM_BINS, range=(-1.0, 1.0))
    distance = np.linalg.norm(pairs.text_vecs.mean(axis=0) - pairs.image_vecs.mean(axis=0))
    return cosines, float(distance), float(cosines.mean()), counts.tolist()


def report(pairs: ModalityPairSet) -> CongruenceReport:
    """Congruence summary, with and (when knowledge is present) without
    knowledge augmentation.

    relative_similarity_change = (cos_with - cos_without) / |cos_without|
    on the mean pairwise cosine.
    """
    if pairs.n < 2:
        raise ValueError(f"need at least 2 pairs, got {pairs.n}")
    cosines, distance, mean, counts = _summary(pairs)
    rep = CongruenceReport(
        centroid_distance=distance,
        mean_pairwise_cosine=mean,
        histogram_edges=np.linspace(-1.0, 1.0, HISTOGRAM_BINS + 1).tolist(),
        histogram_counts=counts,
        ids=list(pairs.ids),
        cosines=cosines,
    )
    if pairs.knowledge is not None:
        (rep.cosines_with, rep.centroid_distance_with, rep.mean_pairwise_cosine_with,
         rep.histogram_counts_with) = _summary(augment_with_knowledge(pairs))
        if mean == 0.0:
            raise ValueError(
                "relative change undefined: mean cosine without knowledge is 0"
            )
        rep.relative_similarity_change = (rep.mean_pairwise_cosine_with - mean) / abs(mean)
    return rep


def write_pair_csv(rep: CongruenceReport, path: str | Path) -> None:
    """Per-pair cosine CSV: pair_id, cos_without, cos_with (empty without
    knowledge)."""
    cos_with = ([""] * len(rep.ids) if rep.cosines_with is None
                else map(repr, rep.cosines_with.tolist()))
    write_csv(["pair_id", "cos_without", "cos_with"],
              zip(rep.ids, map(repr, rep.cosines.tolist()), cos_with), path)
