"""Binary store round-trips, record JSONL, and the synthetic generator."""
from __future__ import annotations

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from knowfuse.errors import (
    BadMagicError,
    DimMismatchError,
    DuplicateNameError,
    NonFiniteError,
    StoreFormatError,
    TruncatedStoreError,
)
from knowfuse.stores import (
    CampaignRecord,
    EmbeddingStore,
    SynthConfig,
    read_concept_map,
    read_records_jsonl,
    read_store,
    records_to_store,
    synth_dataset,
    write_jsonl,
    write_predictions_jsonl,
    write_records_jsonl,
    write_retrieved_jsonl,
    write_store,
)


def _store(n: int = 5, dim: int = 7, seed: int = 0, kind: str = "concept"):
    rng = np.random.default_rng(seed)
    return EmbeddingStore(
        dim=dim,
        names=[f"row_{i}" for i in range(n)],
        vectors=rng.normal(size=(n, dim)).astype(np.float32),
        kind_tag=kind,
    )


class TestStoreRoundTrip:
    def test_bit_exact(self, tmp_path):
        store = _store(n=13, dim=5, seed=1)
        path = tmp_path / "a.emb"
        write_store(store, path)
        back = read_store(path)
        assert back.dim == store.dim
        assert back.names == store.names
        assert back.kind_tag == store.kind_tag
        assert np.array_equal(back.vectors, store.vectors)
        assert back.vectors.dtype == np.float32

    def test_unicode_names(self, tmp_path):
        store = EmbeddingStore(
            dim=2,
            names=["naïve", "日本語"],
            vectors=np.ones((2, 2), dtype=np.float32),
            kind_tag="tést",
        )
        path = tmp_path / "u.emb"
        write_store(store, path)
        back = read_store(path)
        assert back.names == store.names
        assert back.kind_tag == store.kind_tag

    def test_write_is_deterministic(self, tmp_path):
        store = _store()
        p1, p2 = tmp_path / "x1.emb", tmp_path / "x2.emb"
        write_store(store, p1)
        write_store(store, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_size_arithmetic(self, tmp_path):
        # 8 magic + 4 dim + 8 count + length-prefixed strings + f32 payload
        store = _store(n=3, dim=4, kind="k")
        path = tmp_path / "s.emb"
        write_store(store, path)
        want = 8 + 4 + 8 + (2 + 1)
        want += sum(2 + len(name.encode()) for name in store.names)
        want += 3 * 4 * 4
        assert path.stat().st_size == want


class TestStoreErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "s.emb"
        write_store(_store(), path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            read_store(path)

    @pytest.mark.parametrize("keep", [4, 14, 21, 40])
    def test_truncation(self, tmp_path, keep):
        path = tmp_path / "s.emb"
        write_store(_store(n=2, dim=3), path)
        raw = path.read_bytes()
        assert keep < len(raw)
        path.write_bytes(raw[:keep])
        with pytest.raises(TruncatedStoreError):
            read_store(path)

    # Header 20 bytes, kind "k" at 20, "ab" at 23 (bytes at 25), "cde" at 27 (bytes at 29).
    @pytest.mark.parametrize("keep, needed, offset", [
        (21, 2, 20), (24, 2, 23), (26, 2, 25), (28, 2, 27), (31, 3, 29),
    ])
    def test_truncated_name_table_names_the_read(self, tmp_path, keep, needed, offset):
        path = tmp_path / "s.emb"
        write_store(EmbeddingStore(dim=1, names=["ab", "cde"], kind_tag="k",
                                   vectors=np.ones((2, 1), dtype=np.float32)), path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(TruncatedStoreError,
                           match=f"needed {needed} bytes at offset {offset}, file has {keep}$"):
            read_store(path)

    def test_undecodable_name_bytes(self, tmp_path):
        path = tmp_path / "s.emb"
        write_store(EmbeddingStore(dim=1, names=["ab", "cde"], kind_tag="k",
                                   vectors=np.ones((2, 1), dtype=np.float32)), path)
        raw = bytearray(path.read_bytes())
        raw[30] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreFormatError, match="undecodable name bytes"):
            read_store(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "s.emb"
        write_store(_store(), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(StoreFormatError, match="trailing"):
            read_store(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_store(tmp_path / "nope.emb")

    def test_duplicate_names(self):
        with pytest.raises(DuplicateNameError):
            EmbeddingStore(
                dim=2, names=["a", "a"], vectors=np.zeros((2, 2), dtype=np.float32)
            )

    def test_non_finite_names_offending_row(self):
        vecs = np.zeros((3, 2), dtype=np.float32)
        vecs[1, 0] = np.nan
        with pytest.raises(NonFiniteError, match=r"row 1 \('b'\)"):
            EmbeddingStore(dim=2, names=["a", "b", "c"], vectors=vecs)

    @pytest.mark.parametrize("shape", [(4,), (2, 1, 2), (1, 4)])
    def test_vectors_not_n_by_dim_rejected(self, shape):
        # 2 names x dim 2 holds 4 values, but only a [2, 2] array is accepted
        with pytest.raises(DimMismatchError, match=re.escape(f"vectors shape {shape} ")):
            EmbeddingStore(dim=2, names=["a", "b"], vectors=np.ones(shape, dtype=np.float32))

    def test_shape_mismatch(self):
        with pytest.raises(DimMismatchError):
            EmbeddingStore(
                dim=3, names=["a"], vectors=np.zeros((1, 2), dtype=np.float32)
            )


class TestStoreLookup:
    def test_row_and_index(self):
        store = _store(n=4, dim=3)
        assert store.n == 4
        assert store.row_index("row_2") == 2
        assert_allclose(store.row("row_2"), store.vectors[2])
        assert "row_3" in store and "row_9" not in store

    def test_unknown_name(self):
        store = _store()
        with pytest.raises(KeyError, match="row_99"):
            store.row("row_99")
        with pytest.raises(KeyError, match="row_99"):
            store.row_index("row_99")


class TestCampaignRecord:
    def test_label_validated(self):
        with pytest.raises(ValueError, match="label"):
            CampaignRecord("r", np.zeros(3), [0], label=2)

    @pytest.mark.parametrize("label", [True, False, np.True_])
    def test_bool_label_rejected(self, label):
        with pytest.raises(ValueError, match="label"):
            CampaignRecord("r", np.zeros(3), [0], label=label)

    def test_vec_must_be_1d(self):
        with pytest.raises(ValueError, match="1-d"):
            CampaignRecord("r", np.zeros((2, 2)), [0], label=0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            CampaignRecord("r", np.array([1.0, np.inf]), [0], label=0)

    def test_records_to_store_uses_ids(self):
        recs = [
            CampaignRecord("a", np.ones(2), [0], 0),
            CampaignRecord("b", np.zeros(2), [1], 1),
        ]
        store = records_to_store(recs)
        assert store.names == ["a", "b"]
        assert store.kind_tag == "multimodal"


class TestRecordsJsonl:
    def test_round_trip(self, tmp_path):
        records, concept_store = synth_dataset(SynthConfig(n=20, dim=16, seed=2))
        mm_store = records_to_store(records)
        path = tmp_path / "records.jsonl"
        write_records_jsonl(records, concept_store, path)
        back = read_records_jsonl(path, mm_store, concept_store)
        assert [r.id for r in back] == [r.id for r in records]
        assert [r.label for r in back] == [r.label for r in records]
        assert [r.concept_ids for r in back] == [r.concept_ids for r in records]
        for a, b in zip(back, records):
            assert np.array_equal(a.multimodal_vec, b.multimodal_vec)

    def test_malformed_line_numbered(self, tmp_path):
        records, concept_store = synth_dataset(SynthConfig(n=10, dim=8, seed=2))
        mm_store = records_to_store(records)
        path = tmp_path / "bad.jsonl"
        write_records_jsonl(records, concept_store, path)
        lines = path.read_text().splitlines()
        lines[3] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 4"):
            read_records_jsonl(path, mm_store, concept_store)

    @pytest.mark.parametrize("label", [1.7, 1.0, True, "1", None, 2])
    def test_label_must_be_json_integer_0_or_1(self, tmp_path, label):
        records, concept_store = synth_dataset(SynthConfig(n=10, dim=8, seed=2))
        mm_store = records_to_store(records)
        path = tmp_path / "bad.jsonl"
        write_records_jsonl(records, concept_store, path)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[2])
        obj["label"] = label
        lines[2] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 3: label"):
            read_records_jsonl(path, mm_store, concept_store)

    def test_unknown_vec_name(self, tmp_path):
        records, concept_store = synth_dataset(SynthConfig(n=10, dim=8, seed=2))
        mm_store = records_to_store(records)
        path = tmp_path / "bad.jsonl"
        obj = {"id": "x", "vec_name": "ghost", "concept_names": [], "label": 0}
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ValueError, match="ghost"):
            read_records_jsonl(path, mm_store, concept_store)

    def test_unknown_concept_name(self, tmp_path):
        records, concept_store = synth_dataset(SynthConfig(n=10, dim=8, seed=2))
        mm_store = records_to_store(records)
        path = tmp_path / "bad.jsonl"
        obj = {
            "id": records[0].id, "vec_name": records[0].id,
            "concept_names": ["ghost"], "label": 0,
        }
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ValueError, match="line 1"):
            read_records_jsonl(path, mm_store, concept_store)

    def test_duplicate_id_rejected(self, tmp_path):
        records, concept_store = synth_dataset(SynthConfig(n=10, dim=8, seed=2))
        mm_store = records_to_store(records)
        path = tmp_path / "dup.jsonl"
        write_records_jsonl(records, concept_store, path)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[5])
        obj["id"] = json.loads(lines[4])["id"]
        lines[5] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 6: duplicate id 'rec_4' \\(first on line 5\\)"):
            read_records_jsonl(path, mm_store, concept_store)
        with pytest.raises(ValueError, match="line 6: duplicate id"):
            read_concept_map(path)

    @pytest.mark.parametrize("ids, distinct", [
        ([1, True], True), ([1, 1.0], True), ([0, False], True), ([1, "1"], True),
        ([1, 1], False), (["a", "a"], False), ([True, True], False), ([None, None], False),
    ])
    def test_ids_differ_by_json_type_and_value(self, tmp_path, ids, distinct):
        records, concept_store = synth_dataset(SynthConfig(n=10, dim=8, seed=2))
        mm_store = records_to_store(records)
        path = tmp_path / "ids.jsonl"
        write_jsonl(({"id": rec_id, "vec_name": "rec_0", "concept_names": ["concept_0000"],
                      "label": 0} for rec_id in ids), path)
        message = re.escape(f"line 2: duplicate id {ids[0]!r} (first on line 1)")
        if distinct:
            got = read_records_jsonl(path, mm_store, concept_store)
            assert [(type(r.id), r.id) for r in got] == [(type(i), i) for i in ids]
        else:
            with pytest.raises(ValueError, match=message):
                read_records_jsonl(path, mm_store, concept_store)
        if not isinstance(ids[0], str):  # a pair id names a store row
            message = re.escape(f"line 1: id {ids[0]!r} is not a string")
        with pytest.raises(ValueError, match=message):
            read_concept_map(path)

    @pytest.mark.parametrize("bad", [1, True, 1.0, None])
    def test_concept_map_rejects_non_string_id(self, tmp_path, bad):
        # 1 and true would otherwise share one dict key, the later line winning
        path = tmp_path / "pairs.jsonl"
        write_jsonl([{"id": "a", "concept_names": ["x"]}, {"id": bad, "concept_names": ["y"]},
                     {"id": 1 if bad is True else True, "concept_names": ["z"]}], path)
        with pytest.raises(ValueError, match=re.escape(f"line 2: id {bad!r} is not a string")):
            read_concept_map(path)

    @pytest.mark.parametrize("line", [
        '{"id": ["x"], "vec_name": "rec_0", "concept_names": [], "label": 0}',
        '{"id": "x", "vec_name": "rec_0", "concept_names": 3, "label": 0}',
        '{"id": "x", "vec_name": "rec_0", "concept_names": "concept_0000", "label": 0}',
        '{"id": "x", "vec_name": "rec_0", "concept_names": [["concept_0000"]], "label": 0}',
        '["id", "concept_names"]',
    ])
    def test_bad_id_or_concept_names_rejected(self, tmp_path, line):
        records, concept_store = synth_dataset(SynthConfig(n=10, dim=8, seed=2))
        mm_store = records_to_store(records)
        path = tmp_path / "bad.jsonl"
        path.write_text("\n" + line + "\n")
        with pytest.raises(ValueError, match="line 2"):
            read_records_jsonl(path, mm_store, concept_store)
        with pytest.raises(ValueError, match="line 2"):
            read_concept_map(path)

    def test_non_string_vec_name(self, tmp_path):
        records, concept_store = synth_dataset(SynthConfig(n=10, dim=8, seed=2))
        path = tmp_path / "bad.jsonl"
        obj = {"id": "x", "vec_name": ["rec_0"], "concept_names": [], "label": 0}
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ValueError, match="line 1: vec_name"):
            read_records_jsonl(path, records_to_store(records), concept_store)

    def test_concept_map(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"id": "a", "concept_names": ["x", "y"], "extra": 1}\n\n'
                        '{"id": "b", "concept_names": []}\n')
        assert read_concept_map(path) == {"a": ["x", "y"], "b": []}
        path.write_text("\n")
        with pytest.raises(ValueError, match="no records"):
            read_concept_map(path)

    def test_empty_file_rejected(self, tmp_path):
        records, concept_store = synth_dataset(SynthConfig(n=10, dim=8, seed=2))
        mm_store = records_to_store(records)
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        with pytest.raises(ValueError, match="no records"):
            read_records_jsonl(path, mm_store, concept_store)


def _written(writer, *args) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.jsonl"
        writer(*args, path)
        return path.read_text(encoding="utf-8")


def _dumps_lines(objs) -> str:
    return "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in objs)


# Quotes, backslashes, control characters, non-ASCII and astral-plane
# characters, besides whatever else hypothesis draws.
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\n\x1f\x7f\xe9\u2028\uffff\U0001f600'),
                          st.characters()))
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e-7, 0.1, 1e16, 1.0, -1.0]
_FINITE = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
_ANY_FLOAT = st.one_of(st.sampled_from(_EDGE_FLOATS + [float("nan"), float("inf"), -float("inf")]),
                       st.floats())


class TestLineEncoder:
    """retrieved.jsonl and predictions.jsonl lines are json.dumps(obj,
    sort_keys=True) of the objects they stand for, byte for byte."""

    @given(st.lists(st.tuples(_TEXT, st.lists(st.tuples(_TEXT, _FINITE), max_size=10)),
                    max_size=6))
    @example([("q", []), ("q\U0001f600", [("c\"\\", -0.0)]),
              ("", [("\x00", 5e-324), ("\xe9", 1e-7), ("c\"\\", 0.1), ("x", 1e16), ("y", 1.0),
                    ("z", -1.0), ("w", 0.0), ("v", 0.5), ("u", -0.25), ("\U0001f600", 1 / 3)])])
    def test_retrieved_lines(self, hits_by_query):
        want = _dumps_lines({"id": query, "concepts": [{"name": c, "score": s} for c, s in hits]}
                            for query, hits in hits_by_query)
        assert _written(write_retrieved_jsonl, hits_by_query) == want

    @given(st.lists(st.tuples(_TEXT, st.integers(0, 1), _ANY_FLOAT), max_size=8))
    @example([("a\"\\\x1f\xe9\U0001f600", 1, float("nan")), ("b", 0, float("inf")),
              ("c", 1, -float("inf")), ("d", 0, -0.0), ("e", 1, 5e-324), ("f", 0, 1e-7),
              ("g", 1, 0.1), ("h", 0, 1e16), ("i", 1, 1.0), ("j", 0, -1.0)])
    def test_prediction_lines(self, rows):
        ids = [rec_id for rec_id, _, _ in rows]
        labels = np.array([label for _, label, _ in rows], dtype=np.int64)
        p1 = np.array([p for _, _, p in rows], dtype=np.float64)
        want = _dumps_lines({"id": rec_id, "label": label, "p0": 1.0 - p, "p1": p}
                            for rec_id, label, p in rows)
        assert _written(write_predictions_jsonl, ids, labels, p1) == want

    @pytest.mark.parametrize("rec_id", [7, 2.5, True, None])
    def test_prediction_ids_of_other_json_types(self, rec_id):
        # The records reader takes any JSON scalar as an id.
        got = _written(write_predictions_jsonl, [rec_id], np.array([1]), np.array([0.75]))
        assert got == _dumps_lines([{"id": rec_id, "label": 1, "p0": 0.25, "p1": 0.75}])


class TestSynthConfig:
    def test_bounds(self):
        with pytest.raises(ValueError):
            SynthConfig(n=5)
        with pytest.raises(ValueError):
            SynthConfig(class_ratio=0.0)
        with pytest.raises(ValueError):
            SynthConfig(class_ratio=1.0)
        with pytest.raises(ValueError):
            SynthConfig(concept_signal_strength=1.5)
        with pytest.raises(ValueError):
            SynthConfig(n_concepts=7)

    @pytest.mark.parametrize("value", [-1.0, -1e-9, np.nan, np.inf, -np.inf])
    def test_cluster_separation_finite_and_non_negative(self, value):
        with pytest.raises(ValueError, match="cluster_separation"):
            SynthConfig(cluster_separation=value)

    @pytest.mark.parametrize(
        "field", ["n", "dim", "seed", "concept_dim", "n_concepts", "concepts_per_record"]
    )
    def test_integer_fields_reject_floats_and_bools(self, field):
        whole = float(getattr(SynthConfig(), field))
        for value in (whole, True):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                SynthConfig(**{field: value})


class TestSynthDataset:
    def test_class_ratio_exact(self):
        records, _ = synth_dataset(SynthConfig(n=1000, dim=8, class_ratio=0.6063))
        zeros = sum(1 for r in records if r.label == 0)
        assert zeros == 606

    def test_deterministic(self):
        cfg = SynthConfig(n=30, dim=8, seed=9)
        r1, s1 = synth_dataset(cfg)
        r2, s2 = synth_dataset(cfg)
        assert np.array_equal(s1.vectors, s2.vectors)
        assert [r.label for r in r1] == [r.label for r in r2]
        assert [r.concept_ids for r in r1] == [r.concept_ids for r in r2]
        for a, b in zip(r1, r2):
            assert np.array_equal(a.multimodal_vec, b.multimodal_vec)

    def test_seed_changes_data(self):
        r1, _ = synth_dataset(SynthConfig(n=30, dim=8, seed=0))
        r2, _ = synth_dataset(SynthConfig(n=30, dim=8, seed=1))
        assert not np.array_equal(r1[0].multimodal_vec, r2[0].multimodal_vec)

    def test_cluster_separation_reflected_in_class_means(self):
        cfg = SynthConfig(n=1000, dim=64, seed=4, cluster_separation=10.0)
        records, _ = synth_dataset(cfg)
        mm = np.stack([r.multimodal_vec for r in records]).astype(np.float64)
        labels = np.array([r.label for r in records])
        gap = mm[labels == 1].mean(axis=0) - mm[labels == 0].mean(axis=0)
        # noise inflates the norm by roughly sqrt(dim * (1/n0 + 1/n1))
        assert 9.0 < np.linalg.norm(gap) < 11.0

    def test_full_signal_concepts_identify_label(self):
        cfg = SynthConfig(n=200, dim=8, seed=5, concept_signal_strength=1.0)
        records, store = synth_dataset(cfg)
        half = cfg.n_concepts // 2
        for r in records:
            pool = {0} if r.label == 0 else {1}
            assert {cid // half for cid in r.concept_ids} == pool
        assert store.n == cfg.n_concepts
        assert store.dim == cfg.concept_dim


def _max_concept_gap(presence: np.ndarray, labels: np.ndarray) -> float:
    """Largest per-concept difference in presence rate between the classes."""
    p1 = presence[labels == 1].mean(axis=0)
    p0 = presence[labels == 0].mean(axis=0)
    return float(np.max(np.abs(p1 - p0)))


class TestConceptSignalPermutation:
    def _presence(self, records, n_concepts):
        presence = np.zeros((len(records), n_concepts))
        for i, r in enumerate(records):
            presence[i, r.concept_ids] = 1.0
        return presence, np.array([r.label for r in records])

    def test_zero_signal_is_independent_of_label(self):
        cfg = SynthConfig(n=400, dim=8, seed=6, concept_signal_strength=0.0)
        records, store = synth_dataset(cfg)
        presence, labels = self._presence(records, store.n)
        observed = _max_concept_gap(presence, labels)
        rng = np.random.default_rng(0)
        hits = sum(
            _max_concept_gap(presence, rng.permutation(labels)) >= observed
            for _ in range(200)
        )
        p = (1 + hits) / 201.0
        assert p > 0.01

    def test_full_signal_is_detected(self):
        cfg = SynthConfig(n=400, dim=8, seed=6, concept_signal_strength=1.0)
        records, store = synth_dataset(cfg)
        presence, labels = self._presence(records, store.n)
        observed = _max_concept_gap(presence, labels)
        rng = np.random.default_rng(0)
        hits = sum(
            _max_concept_gap(presence, rng.permutation(labels)) >= observed
            for _ in range(200)
        )
        assert (1 + hits) / 201.0 <= 0.01
