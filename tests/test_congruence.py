"""Cross-modal congruence metrics and knowledge augmentation."""
from __future__ import annotations

import csv

import numpy as np
import pytest
from numpy.testing import assert_allclose

from knowfuse.congruence import (
    HISTOGRAM_BINS,
    ModalityPairSet,
    augment_with_knowledge,
    pairwise_cosines,
    report,
    write_pair_csv,
)


def _random_pairs(n: int, d: int, seed: int, with_knowledge: bool = True):
    rng = np.random.default_rng(seed)
    text = rng.normal(size=(n, d))
    image = rng.normal(size=(n, d))
    knowledge = None
    if with_knowledge:
        knowledge = [rng.normal(size=(int(rng.integers(1, 4)), d)).mean(axis=0) for _ in range(n)]
    return ModalityPairSet(text_vecs=text, image_vecs=image, knowledge=knowledge)


class TestPairwiseCosines:
    def test_identical_modalities(self):
        vecs = np.random.default_rng(0).normal(size=(5, 8))
        pairs = ModalityPairSet(text_vecs=vecs, image_vecs=vecs.copy())
        assert_allclose(pairwise_cosines(pairs), 1.0, rtol=1e-12)
        rep = report(pairs)
        assert rep.centroid_distance == 0.0
        assert_allclose(rep.mean_pairwise_cosine, 1.0, rtol=1e-12)

    def test_orthogonal_pairs(self):
        pairs = ModalityPairSet(
            text_vecs=[[1.0, 0.0], [0.0, 1.0]],
            image_vecs=[[0.0, 1.0], [1.0, 0.0]],
        )
        assert_allclose(pairwise_cosines(pairs), [0.0, 0.0], atol=1e-15)

    def test_zero_norm_rejected(self):
        pairs = ModalityPairSet(
            text_vecs=[[0.0, 0.0], [1.0, 0.0]],
            image_vecs=[[1.0, 0.0], [1.0, 0.0]],
        )
        with pytest.raises(ValueError, match="zero-norm"):
            pairwise_cosines(pairs)


class TestAugmentWithKnowledge:
    def test_two_dim_hand_case(self):
        # km=(1,1): both vectors move to (1,.5)/|.| and (.5,1)/|.|,
        # cosine rises from 0 to 1/1.25
        pairs = ModalityPairSet(
            text_vecs=[[1.0, 0.0]],
            image_vecs=[[0.0, 1.0]],
            knowledge=[[1.0, 1.0]],
        )
        aug = augment_with_knowledge(pairs)
        assert_allclose(aug.text_vecs[0], np.array([1.0, 0.5]) / np.sqrt(1.25))
        assert_allclose(pairwise_cosines(aug)[0], 0.8, rtol=1e-12)

    def test_orthogonal_triad_gives_half(self):
        # knowledge along a third axis: cos rises from 0 to exactly 0.5
        pairs = ModalityPairSet(
            text_vecs=[[1.0, 0.0, 0.0]],
            image_vecs=[[0.0, 1.0, 0.0]],
            knowledge=[[0.0, 0.0, 1.0]],
        )
        assert_allclose(pairwise_cosines(augment_with_knowledge(pairs))[0], 0.5,
                        rtol=1e-12)

    def test_knowledge_mean_over_rows(self):
        # two knowledge rows averaging to (1, 1)
        pairs = ModalityPairSet(
            text_vecs=[[1.0, 0.0]],
            image_vecs=[[0.0, 1.0]],
            knowledge=[np.mean([[2.0, 0.0], [0.0, 2.0]], axis=0)],
        )
        assert_allclose(pairwise_cosines(augment_with_knowledge(pairs))[0], 0.8,
                        rtol=1e-12)

    def test_outputs_unit_norm(self):
        aug = augment_with_knowledge(_random_pairs(20, 12, seed=1))
        assert_allclose(np.linalg.norm(aug.text_vecs, axis=1), 1.0, rtol=1e-12)
        assert_allclose(np.linalg.norm(aug.image_vecs, axis=1), 1.0, rtol=1e-12)

    def test_missing_knowledge_rejected(self):
        pairs = _random_pairs(4, 6, seed=2, with_knowledge=False)
        with pytest.raises(ValueError, match="no knowledge"):
            augment_with_knowledge(pairs)

    def test_zero_knowledge_mean_rejected(self):
        pairs = ModalityPairSet(
            text_vecs=[[1.0, 0.0]],
            image_vecs=[[0.0, 1.0]],
            knowledge=[np.mean([[1.0, 0.0], [-1.0, 0.0]], axis=0)],
        )
        with pytest.raises(ValueError, match="zero norm"):
            augment_with_knowledge(pairs)

    def test_cancelling_augmentation_rejected(self):
        pairs = ModalityPairSet(
            text_vecs=[[-1.0, -1.0]],
            image_vecs=[[0.0, 1.0]],
            knowledge=[[1.0, 1.0]],
        )
        with pytest.raises(ValueError, match="augmented"):
            augment_with_knowledge(pairs)

    @pytest.mark.parametrize("bad, message", [
        ([[1.0, 0.0], [-1.0, 0.0]], "knowledge mean has zero norm"),
        ([[-1.0, 0.0]], "augmented vector has zero norm"),
    ], ids=["zero-mean", "cancelled"])
    def test_failing_pair_is_named_by_id(self, bad, message):
        # the third pair fails, and its id is not its position
        pairs = ModalityPairSet(
            text_vecs=[[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]],
            image_vecs=[[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
            knowledge=[[1.0, 1.0], [1.0, 1.0], np.mean(bad, axis=0)],
            ids=["camp_b", "camp_a", "camp_c"],
        )
        with pytest.raises(ValueError, match=f"^pair 'camp_c': {message}$"):
            augment_with_knowledge(pairs)

    @pytest.mark.parametrize("shape", [(2, 8), (3, 12), (24,)])
    def test_knowledge_of_another_width_is_named(self, shape):
        # 24 values are two rows of 12 once reshaped; only [2, 12] is accepted.
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError) as err:
            ModalityPairSet(text_vecs=rng.normal(size=(2, 12)), image_vecs=rng.normal(size=(2, 12)),
                            knowledge=rng.normal(size=shape), ids=["a", "b"])
        assert str(err.value) == (f"knowledge means {shape} are not [2, 12] "
                                  "like the modality vectors")

    @pytest.mark.parametrize("what", ["text", "image", "knowledge"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_named(self, what, bad):
        # Three pairs, one knowledge mean [nan, 0]: a NaN passes every
        # zero-norm check, so the report would read nan.
        arrays = {"text": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                  "image": [[1.0, 0.5], [0.5, 1.0], [1.0, 0.0]],
                  "knowledge": [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]}
        arrays[what][1][0] = bad
        with pytest.raises(ValueError, match=f"^pair 'b': {what} vector is not finite$"):
            ModalityPairSet(text_vecs=arrays["text"], image_vecs=arrays["image"],
                            knowledge=arrays["knowledge"], ids=["a", "b", "c"])


class TestReport:
    def test_needs_two_pairs(self):
        pairs = ModalityPairSet(text_vecs=[[1.0, 0.0]], image_vecs=[[1.0, 0.0]])
        with pytest.raises(ValueError, match="at least 2"):
            report(pairs)

    def test_without_knowledge_leaves_with_fields_empty(self):
        rep = report(_random_pairs(10, 8, seed=3, with_knowledge=False))
        assert rep.centroid_distance_with is None
        assert rep.mean_pairwise_cosine_with is None
        assert rep.relative_similarity_change is None

    def test_relative_change_definition(self):
        rep = report(_random_pairs(10, 8, seed=4))
        want = (rep.mean_pairwise_cosine_with - rep.mean_pairwise_cosine) / abs(
            rep.mean_pairwise_cosine
        )
        assert_allclose(rep.relative_similarity_change, want, rtol=1e-12)

    def test_histogram_conserves_counts(self):
        rep = report(_random_pairs(37, 8, seed=5))
        assert len(rep.histogram_edges) == HISTOGRAM_BINS + 1
        assert rep.histogram_edges[0] == -1.0
        assert rep.histogram_edges[-1] == 1.0
        assert sum(rep.histogram_counts) == 37
        assert sum(rep.histogram_counts_with) == 37

    def test_rotation_invariance(self):
        pairs = _random_pairs(15, 10, seed=6)
        q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(10, 10)))
        rotated = ModalityPairSet(
            text_vecs=pairs.text_vecs @ q.T,
            image_vecs=pairs.image_vecs @ q.T,
            knowledge=pairs.knowledge @ q.T,
        )
        a, b = report(pairs), report(rotated)
        assert_allclose(b.centroid_distance, a.centroid_distance, rtol=1e-9)
        assert_allclose(b.mean_pairwise_cosine, a.mean_pairwise_cosine, atol=1e-9)
        assert_allclose(
            b.relative_similarity_change, a.relative_similarity_change, rtol=1e-6
        )

    def test_midpoint_knowledge_increases_congruence(self):
        # knowledge sitting between the modalities must pull them together
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            text = rng.normal(size=(50, 16))
            image = rng.normal(size=(50, 16))
            pairs = ModalityPairSet(
                text_vecs=text, image_vecs=image, knowledge=0.5 * (text + image)
            )
            rep = report(pairs)
            assert rep.relative_similarity_change > 0.0
            assert rep.centroid_distance_with < rep.centroid_distance

    def test_to_dict_shape(self):
        d = report(_random_pairs(5, 6, seed=8)).to_dict()
        assert "cosine_histogram" in d
        assert set(d["cosine_histogram"]) >= {"edges", "counts"}


class TestWritePairCsv:
    def test_round_trip_exact_floats(self, tmp_path):
        pairs = _random_pairs(6, 8, seed=9)
        path = tmp_path / "pairs.csv"
        write_pair_csv(report(pairs), path)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        want_without = pairwise_cosines(pairs)
        want_with = pairwise_cosines(augment_with_knowledge(pairs))
        for i, row in enumerate(rows):
            assert float(row["cos_without"]) == want_without[i]
            assert float(row["cos_with"]) == want_with[i]

    def test_no_knowledge_leaves_column_blank(self, tmp_path):
        pairs = _random_pairs(3, 8, seed=10, with_knowledge=False)
        path = tmp_path / "pairs.csv"
        write_pair_csv(report(pairs), path)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["cos_with"] == "" for row in rows)
