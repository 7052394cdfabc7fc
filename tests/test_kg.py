"""Triple loading, label lists, corruption, and holdout splitting."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knowfuse import kge
from knowfuse.errors import CorruptionError, TripleLoadError
from knowfuse.kg import (
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
        assert kg.entities == ["dog", "animal", "cat", "thing"]
        assert kg.relations == ["isa"]
        assert kg.triples.dtype == np.int64 and kg.triples.flags.c_contiguous
        assert np.array_equal(kg.triples, [[0, 0, 1], [2, 0, 1], [1, 0, 3]])

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
        assert kg.entities == ["dog", "animal", "cat"]
        assert kg.relations == ["RelatedTo", "IsA"]
        assert np.array_equal(kg.triples, [[0, 0, 1], [2, 1, 1]])

    def test_conceptnet_part_of_speech_suffix_keeps_term(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "/r/IsA,/c/en/dog/n,/c/en/animal/n/wn/animal\n"
            "/r/IsA,/c/en/cat/n,/c/en/concept_00123\n"
        )
        kg = load_triples(path, fmt="conceptnet-csv")
        assert kg.entities == ["dog", "animal", "cat", "concept_00123"]
        assert kg.relations == ["IsA"]
        assert len(kg.triples) == 2

    @pytest.mark.parametrize("token", ["/c/en/", "/c/en", "/c/", "/c/en//n"])
    def test_conceptnet_uri_without_term_rejected(self, tmp_path, token):
        # such a URI must not load as its language code or as "c"
        path = tmp_path / "c.csv"
        path.write_text(f"/r/IsA,/c/en/dog,/c/en/animal\n/r/IsA,{token},/c/en/dog\n")
        with pytest.raises(TripleLoadError, match="line 2"):
            load_triples(path, fmt="conceptnet-csv")

    @pytest.mark.parametrize("token", ["/r/", "/r//", "/r"])
    def test_conceptnet_relation_uri_without_name_rejected(self, tmp_path, token):
        # such a URI must not load as relation "r"
        path = tmp_path / "c.csv"
        path.write_text(f"/r/IsA,/c/en/dog,/c/en/animal\n{token},/c/en/dog,/c/en/cat\n")
        with pytest.raises(TripleLoadError, match="line 2: empty field or URI term in triple"):
            load_triples(path, fmt="conceptnet-csv")

    @pytest.mark.parametrize("token,name", [("/r/IsA", "IsA"), ("/r/IsA/", "IsA"),
                                            ("/r/dbpedia/genre", "genre")])
    def test_conceptnet_relation_uri_names_kept(self, tmp_path, token, name):
        path = tmp_path / "c.csv"
        path.write_text(f"{token},/c/en/dog,/c/en/cat\n")
        assert load_triples(path, fmt="conceptnet-csv").relations == [name]

    def test_conceptnet_tab_separated_variant(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("/r/IsA\t/c/en/dog\t/c/en/animal\n")
        kg = load_triples(path, fmt="conceptnet-csv")
        assert kg.relations == ["IsA"]
        assert kg.entities == ["dog", "animal"]


class TestToyGraphShape:
    def test_counts(self, toy_graph):
        assert toy_graph.num_entities == 20
        assert toy_graph.num_relations == 2
        assert len(toy_graph.triples) == 60
        assert len(toy_graph.known_set) == 60


class TestCorrupt:
    def test_head_corruption_filtered(self, toy_graph):
        ids = toy_graph.triples
        neg = corrupt(ids, np.full(len(ids), True), np.random.default_rng(0), toy_graph)
        assert (neg[:, 0] != ids[:, 0]).all()
        assert np.array_equal(neg[:, 1:], ids[:, 1:])
        assert not set(map(tuple, neg.tolist())) & toy_graph.known_set

    def test_tail_corruption_filtered(self, toy_graph):
        ids = toy_graph.triples
        neg = corrupt(ids, np.full(len(ids), False), np.random.default_rng(1), toy_graph)
        assert (neg[:, 2] != ids[:, 2]).all()
        assert np.array_equal(neg[:, :2], ids[:, :2])
        assert not set(map(tuple, neg.tolist())) & toy_graph.known_set

    def test_deterministic_under_seed(self, toy_graph):
        ids = toy_graph.triples
        head = np.arange(len(ids)) % 3 == 0
        a = corrupt(ids, head, np.random.default_rng(7), toy_graph)
        b = corrupt(ids, head, np.random.default_rng(7), toy_graph)
        assert np.array_equal(a, b)

    def test_invalid_side(self, toy_graph):
        # the side mask must be boolean, one entry per triple
        for head in ([1, 0], ["head", "tail"], [True], [[True, False]]):
            with pytest.raises(ValueError, match="head"):
                corrupt(toy_graph.triples[:2], np.array(head), np.random.default_rng(0),
                        toy_graph)

    def test_explicit_complement_after_failed_draws(self, toy_graph, monkeypatch):
        # with no uniform draws the fallback alone picks each row's negative
        monkeypatch.setattr("knowfuse.kg.CORRUPT_ATTEMPTS", 0)
        rows = np.repeat(toy_graph.triples[:1], 200, axis=0)
        for side in (True, False):
            head = np.full(len(rows), side)
            negs = corrupt(rows, head, np.random.default_rng(3), toy_graph)
            assert not set(map(tuple, negs.tolist())) & toy_graph.known_set
            assert len(np.unique(negs, axis=0)) > 1
            again = corrupt(rows, head, np.random.default_rng(3), toy_graph)
            assert np.array_equal(again, negs)

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

        def recording(triples, head, rng, graph):
            neg = corrupt(triples, head, rng, graph)
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
        with pytest.raises(CorruptionError, match=r"for Triple\(head=0, relation=0, tail=0\) on tail"):
            corrupt(kg.triples[:1], np.array([False]), np.random.default_rng(0), kg)
        with pytest.raises(CorruptionError, match=r"for Triple\(head=0, relation=0, tail=0\) on head"):
            corrupt(kg.triples[:1], np.array([True]), np.random.default_rng(0), kg)


class TestHoldoutSplit:
    def test_partition(self, toy_graph):
        train, heldout = holdout_split(toy_graph, 10, seed=7)
        assert len(heldout) == 10
        assert len(train.triples) == 50
        held = {t.as_tuple() for t in heldout}
        assert train.known_set | held == toy_graph.known_set
        assert not train.known_set & held

    def test_vocab_preserved_and_known_set_rebuilt(self, toy_graph):
        toy_graph.known_keys  # a parent's cached keys must not reach the split
        train, heldout = holdout_split(toy_graph, 10, seed=7)
        assert train.entities == toy_graph.entities
        assert train.relations == toy_graph.relations
        held = np.array([t.as_tuple() for t in heldout])
        assert toy_graph.is_known(toy_graph.triple_keys(held)).all()
        assert not train.is_known(train.triple_keys(held)).any()
        assert train.is_known(train.triple_keys(train.triples)).all()
        assert len(train.known_keys) == 50

    def test_deterministic(self, toy_graph):
        a = holdout_split(toy_graph, 10, seed=3)
        b = holdout_split(toy_graph, 10, seed=3)
        assert a[1] == b[1]
        assert np.array_equal(a[0].triples, b[0].triples)

    def test_count_bounds(self, toy_graph):
        with pytest.raises(ValueError):
            holdout_split(toy_graph, 0, seed=0)
        with pytest.raises(ValueError):
            holdout_split(toy_graph, 60, seed=0)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("reader")


ROWS = st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from(["r", "s"]),
                          st.sampled_from("abcde")), min_size=1, max_size=25)
NOISE = st.lists(st.sampled_from(["", "   ", "# note", "  # indented note"]), max_size=4)


class TestReaderProperty:
    """load_triples and holdout_split against a naive list-of-tuples reading."""

    @settings(max_examples=150, deadline=None)
    @given(rows=ROWS, noise=st.lists(NOISE, min_size=26, max_size=26),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    @example(rows=[("a", "r", "b")], noise=[[]] * 26, seed=0, data=None)
    def test_matches_naive_reading(self, workdir, rows, noise, seed, data):
        lines = []
        for row, extra in zip(rows, noise):
            lines += extra + ["\t".join(row)]
        path = workdir / "t.tsv"
        path.write_text("\n".join(lines + noise[-1]) + "\n")
        kg = load_triples(path)

        ents, rels, distinct = [], [], []
        for h, r, t in rows:
            for vocab, label in ((ents, h), (rels, r), (ents, t)):
                if label not in vocab:
                    vocab.append(label)
            ids = (ents.index(h), rels.index(r), ents.index(t))
            if ids not in distinct:
                distinct.append(ids)
        assert kg.entities == ents and kg.relations == rels
        assert kg.triples.dtype == np.int64 and kg.triples.shape == (len(distinct), 3)
        assert kg.triples.tolist() == [list(ids) for ids in distinct]
        assert kg.duplicates_dropped == len(rows) - len(distinct)
        assert kg.known_set == set(distinct)

        if len(distinct) < 2:
            return
        count = data.draw(st.integers(1, len(distinct) - 1))
        train, heldout = holdout_split(kg, count, seed)
        # the selection of a set of drawn positions, kept in file order
        chosen = set(np.random.default_rng(seed).choice(len(distinct), size=count,
                                                        replace=False).tolist())
        assert [t.as_tuple() for t in heldout] == [d for i, d in enumerate(distinct)
                                                   if i in chosen]
        assert train.triples.tolist() == [list(d) for i, d in enumerate(distinct)
                                          if i not in chosen]
