"""Triple loading, vocab construction, corruption, and holdout splitting."""
from __future__ import annotations

import numpy as np
import pytest

from knowfuse import kge
from knowfuse.errors import CorruptionError, TripleLoadError
from knowfuse.kg import (
    HEAD,
    TAIL,
    Triple,
    corrupt,
    holdout_split,
    load_triples,
)

from conftest import write_tsv


class TestLoadTriples:
    def test_vocab_first_appearance_order(self, tmp_path):
        # head is interned before tail within a row
        path = write_tsv(
            [("dog", "isa", "animal"), ("cat", "isa", "animal"), ("animal", "isa", "thing")],
            tmp_path / "t.tsv",
        )
        kg = load_triples(path)
        assert kg.entity_vocab.labels == ["dog", "animal", "cat", "thing"]
        assert kg.relation_vocab.labels == ["isa"]
        assert kg.triples[0] == Triple(0, 0, 1)
        assert kg.triples[2] == Triple(1, 0, 3)

    def test_duplicates_dropped_and_counted(self, tmp_path):
        rows = [("a", "r", "b"), ("a", "r", "b"), ("b", "r", "a")]
        kg = load_triples(write_tsv(rows, tmp_path / "t.tsv"))
        assert len(kg.triples) == 2
        assert kg.duplicates_dropped == 1
        assert kg.known_set == {(0, 0, 1), (1, 0, 0)}

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("# header\n\na\tr\tb\n   \nb\tr\tc\n")
        kg = load_triples(path)
        assert len(kg.triples) == 2

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tr\tb\na b c\n")
        with pytest.raises(TripleLoadError, match="line 2"):
            load_triples(path)

    def test_empty_field_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\t\tb\n")
        with pytest.raises(TripleLoadError, match="line 1"):
            load_triples(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("# only a comment\n")
        with pytest.raises(TripleLoadError):
            load_triples(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = write_tsv([("a", "r", "b")], tmp_path / "t.tsv")
        with pytest.raises(ValueError, match="format"):
            load_triples(path, fmt="xml")

    def test_conceptnet_csv_column_order_and_uri_strip(self, tmp_path):
        # dump rows are relation,head,tail with URI tokens
        path = tmp_path / "c.csv"
        path.write_text(
            "/r/RelatedTo,/c/en/dog,/c/en/animal\n"
            "/r/IsA,/c/en/cat,/c/en/animal\n"
        )
        kg = load_triples(path, fmt="conceptnet-csv")
        assert kg.entity_vocab.labels == ["dog", "animal", "cat"]
        assert kg.relation_vocab.labels == ["RelatedTo", "IsA"]
        assert kg.triples[0] == Triple(0, 0, 1)

    def test_conceptnet_part_of_speech_suffix_keeps_term(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "/r/IsA,/c/en/dog/n,/c/en/animal/n/wn/animal\n"
            "/r/IsA,/c/en/cat/n,/c/en/concept_00123\n"
        )
        kg = load_triples(path, fmt="conceptnet-csv")
        assert kg.entity_vocab.labels == ["dog", "animal", "cat", "concept_00123"]
        assert kg.relation_vocab.labels == ["IsA"]
        assert len(kg.triples) == 2

    def test_conceptnet_tab_separated_variant(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("/r/IsA\t/c/en/dog\t/c/en/animal\n")
        kg = load_triples(path, fmt="conceptnet-csv")
        assert kg.relation_vocab.labels == ["IsA"]
        assert kg.entity_vocab.labels == ["dog", "animal"]


class TestToyGraphShape:
    def test_counts(self, toy_graph):
        assert toy_graph.num_entities == 20
        assert toy_graph.num_relations == 2
        assert len(toy_graph.triples) == 60
        assert len(toy_graph.known_set) == 60


class TestCorrupt:
    def test_head_corruption_filtered(self, toy_graph):
        rng = np.random.default_rng(0)
        for t in toy_graph.triples:
            neg = corrupt(t, HEAD, rng, toy_graph)
            assert neg.head != t.head
            assert neg.relation == t.relation and neg.tail == t.tail
            assert neg.as_tuple() not in toy_graph.known_set

    def test_tail_corruption_filtered(self, toy_graph):
        rng = np.random.default_rng(1)
        for t in toy_graph.triples:
            neg = corrupt(t, TAIL, rng, toy_graph)
            assert neg.tail != t.tail
            assert neg.head == t.head and neg.relation == t.relation
            assert neg.as_tuple() not in toy_graph.known_set

    def test_deterministic_under_seed(self, toy_graph):
        a = corrupt(toy_graph.triples[0], TAIL, np.random.default_rng(7), toy_graph)
        b = corrupt(toy_graph.triples[0], TAIL, np.random.default_rng(7), toy_graph)
        assert a == b

    def test_invalid_side(self, toy_graph):
        with pytest.raises(ValueError, match="side"):
            corrupt(toy_graph.triples[0], "left", np.random.default_rng(0), toy_graph)

    def test_explicit_complement_after_failed_draws(self, toy_graph):
        # with no uniform draws the fallback alone picks the negative
        t = toy_graph.triples[0]
        for side in (HEAD, TAIL):
            rng = np.random.default_rng(3)
            negs = {corrupt(t, side, rng, toy_graph, max_attempts=0) for _ in range(200)}
            assert all(n.as_tuple() not in toy_graph.known_set for n in negs)
            assert len(negs) > 1
            again = corrupt(t, side, np.random.default_rng(3), toy_graph, max_attempts=0)
            assert again == corrupt(t, side, np.random.default_rng(3), toy_graph, max_attempts=0)

    def test_dense_hub_trains(self, tmp_path, monkeypatch):
        # 200 of the 211 entities are tails of (hub, r): a uniform draw finds
        # a filtered tail for it 11 times in 211, and 100 draws fail often
        # enough over a few epochs
        rows = [("hub", "r", f"t{i}") for i in range(200)]
        rows += [(f"o{i}", "s", f"o{i + 1}") for i in range(9)]
        rows += [("o0", "s", "hub")]
        kg = load_triples(write_tsv(rows, tmp_path / "hub.tsv"))
        assert kg.num_entities == 211
        negatives = []

        def recording(triples, sides, rng, graph, max_attempts=100):
            neg = corrupt(triples, sides, rng, graph, max_attempts)
            negatives.extend(map(tuple, neg.tolist()))  # the trainer corrupts a batch per call
            return neg

        monkeypatch.setattr(kge, "corrupt", recording)
        cfg = kge.KgeTrainConfig(kind="transe", dim=8, epochs=10, seed=0, learning_rate=0.01)
        _, trace = kge.train(kg, cfg)
        assert len(trace) == 10
        assert len(negatives) == 10 * len(kg.triples)
        assert not any(n in kg.known_set for n in negatives)

    def test_saturated_graph_raises(self, tmp_path):
        # every (h, r, t) combination is a known edge, so no negative exists
        rows = [(h, "r", t) for h in ("a", "b") for t in ("a", "b")]
        kg = load_triples(write_tsv(rows, tmp_path / "t.tsv"))
        with pytest.raises(CorruptionError):
            corrupt(kg.triples[0], TAIL, np.random.default_rng(0), kg)


class TestHoldoutSplit:
    def test_partition(self, toy_graph):
        train, heldout = holdout_split(toy_graph, 10, seed=7)
        assert len(heldout) == 10
        assert len(train.triples) == 50
        got = {t.as_tuple() for t in train.triples} | {t.as_tuple() for t in heldout}
        assert got == toy_graph.known_set
        assert not {t.as_tuple() for t in train.triples} & {
            t.as_tuple() for t in heldout
        }

    def test_vocab_preserved_and_known_set_rebuilt(self, toy_graph):
        train, heldout = holdout_split(toy_graph, 10, seed=7)
        assert train.entity_vocab == toy_graph.entity_vocab
        assert train.relation_vocab == toy_graph.relation_vocab
        assert train.known_set == {t.as_tuple() for t in train.triples}
        for t in heldout:
            assert t.as_tuple() not in train.known_set

    def test_deterministic(self, toy_graph):
        a = holdout_split(toy_graph, 10, seed=3)
        b = holdout_split(toy_graph, 10, seed=3)
        assert a[1] == b[1]
        assert a[0].triples == b[0].triples

    def test_count_bounds(self, toy_graph):
        with pytest.raises(ValueError):
            holdout_split(toy_graph, 0, seed=0)
        with pytest.raises(ValueError):
            holdout_split(toy_graph, 60, seed=0)
