"""End-to-end CLI runs on temporary files, exit codes, and determinism."""
from __future__ import annotations

import json
import re

import numpy as np
import pytest

from knowfuse import congruence, fusion, retrieval
from knowfuse.cli import derive_seed, main
from knowfuse.fusion import FusionConfig, load_checkpoint
from knowfuse.kge import KgeTrainConfig
from knowfuse.stores import (
    EmbeddingStore,
    SynthConfig,
    read_records_jsonl,
    read_store,
    write_jsonl,
    write_store,
)

from conftest import pair_bundle_rows, write_tsv


def _read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line]


# The objects retrieve and predict once built per line and handed to
# write_jsonl: the oracle for the lines they now encode directly.
def _retrieved_objects(names, hits_by_query):
    return [{"id": name, "concepts": [{"name": c, "score": s} for c, s in hits]}
            for name, hits in zip(names, hits_by_query)]


def _prediction_objects(records, preds, p1):
    return [{"id": record.id, "label": int(pred), "p0": 1.0 - float(prob), "p1": float(prob)}
            for record, pred, prob in zip(records, preds, p1)]


@pytest.fixture()
def toy_tsv(tmp_path):
    return write_tsv(pair_bundle_rows(), tmp_path / "toy.tsv")


def _synth_args(out, n=60):
    return [
        "synth", "--n", str(n), "--dim", "12", "--concept-dim", "8",
        "--n-concepts", "10", "--concepts-per-record", "3",
        "--class-ratio", "0.5", "--seed", "1", "--out", str(out),
    ]


def _kge_args(triples, out, **extra):
    argv = [
        "train-kge", "--triples", str(triples), "--dim", "8",
        "--epochs", "20", "--lr", "0.05", "--negatives", "2",
        "--heldout", "6", "--seed", "2", "--out", str(out),
    ]
    for flag, value in extra.items():
        argv += [f"--{flag}", str(value)]
    return argv


def _fusion_args(data, out, *extra_flags):
    return [
        "train-fusion",
        "--records", str(data / "records.jsonl"),
        "--mm-store", str(data / "multimodal.emb"),
        "--concept-store", str(data / "concepts.emb"),
        "--epochs", "2", "--batch-size", "8", "--d-model", "8",
        "--heads", "2", "--lr", "0.001", "--seed", "3", "--out", str(out),
        *extra_flags,
    ]


class TestSynth:
    def test_writes_stores_and_records(self, tmp_path):
        out = tmp_path / "out"
        assert main(_synth_args(out)) == 0
        mm = read_store(out / "multimodal.emb")
        concepts = read_store(out / "concepts.emb")
        assert mm.n == 60 and mm.dim == 12
        assert concepts.n == 10 and concepts.dim == 8
        rows = _read_jsonl(out / "records.jsonl")
        assert len(rows) == 60
        assert set(rows[0]) == {"id", "vec_name", "concept_names", "label"}
        assert all(len(r["concept_names"]) == 3 for r in rows)

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(_synth_args(a)) == 0
        assert main(_synth_args(b)) == 0
        for name in ("multimodal.emb", "concepts.emb", "records.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = _synth_args(a)
        assert main(argv) == 0
        argv_b = _synth_args(b)
        argv_b[argv_b.index("--seed") + 1] = "9"
        assert main(argv_b) == 0
        assert (a / "multimodal.emb").read_bytes() != (b / "multimodal.emb").read_bytes()

    def test_bad_ratio_exits_one(self, tmp_path):
        argv = _synth_args(tmp_path / "out")
        argv[argv.index("--class-ratio") + 1] = "1.5"
        assert main(argv) == 1


class TestTrainKge:
    def test_outputs(self, toy_tsv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(_kge_args(toy_tsv, out)) == 0
        entities = read_store(out / "entities.emb")
        assert entities.n == 20 and entities.dim == 8
        assert entities.kind_tag == "concept"
        meta = (out / "kge_meta.txt").read_text()
        assert "kind=transe" in meta and "dim=8" in meta
        assert "train_triples=54" in meta and "heldout_triples=6" in meta
        trace_lines = (out / "loss_trace.csv").read_text().splitlines()
        assert len(trace_lines) == 21  # header + one row per epoch
        metrics = json.loads((out / "link_metrics.json").read_text())
        assert metrics["num_queries"] == 12
        assert set(metrics["hits_at"]) == {"1", "3", "10"}
        assert metrics["mean_rank"] >= 1.0
        assert "mean_rank=" in capsys.readouterr().out

    def test_kind_and_dim_echoed(self, toy_tsv, tmp_path):
        out = tmp_path / "out"
        assert main(_kge_args(toy_tsv, out, kind="distmult")) == 0
        meta = (out / "kge_meta.txt").read_text()
        assert "kind=distmult" in meta
        assert "dim=8" in meta

    def test_reruns_are_byte_identical(self, toy_tsv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(_kge_args(toy_tsv, a)) == 0
        assert main(_kge_args(toy_tsv, b)) == 0
        for name in ("entities.emb", "kge_meta.txt", "loss_trace.csv",
                     "link_metrics.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_missing_triples_exits_two(self, tmp_path, capsys):
        argv = _kge_args(tmp_path / "ghost.tsv", tmp_path / "out")
        assert main(argv) == 2
        assert "ghost.tsv" in capsys.readouterr().err

    def test_malformed_triples_exits_one(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("only two\tfields\n")
        assert main(_kge_args(bad, tmp_path / "out")) == 1

    def test_divergence_exits_one_and_names_the_batch(self, toy_tsv, tmp_path, capsys):
        argv = _kge_args(toy_tsv, tmp_path / "out", kind="distmult", lr=10.0, epochs=50)
        with np.errstate(all="ignore"):
            assert main(argv) == 1
        assert re.search(r"kge distmult: non-finite loss in epoch \d+, batch \d+",
                         capsys.readouterr().err)


class TestRetrieve:
    @pytest.fixture()
    def retrieval_files(self, tmp_path):
        rng = np.random.default_rng(4)
        concepts = EmbeddingStore(
            dim=6, names=[f"c{i}" for i in range(12)],
            vectors=rng.normal(size=(12, 6)).astype(np.float32),
        )
        queries = EmbeddingStore(
            dim=6, names=[f"q{i}" for i in range(4)],
            vectors=rng.normal(size=(4, 6)).astype(np.float32),
        )
        captions = EmbeddingStore(
            dim=6, names=queries.names,
            vectors=rng.normal(size=(4, 6)).astype(np.float32),
        )
        paths = {}
        for name, store in (("concepts", concepts), ("queries", queries),
                            ("captions", captions)):
            paths[name] = tmp_path / f"{name}.emb"
            write_store(store, paths[name])
        return paths

    def test_top_k_output(self, retrieval_files, tmp_path):
        out = tmp_path / "out"
        argv = [
            "retrieve", "--concepts", str(retrieval_files["concepts"]),
            "--queries", str(retrieval_files["queries"]),
            "--k", "3", "--out", str(out),
        ]
        assert main(argv) == 0
        rows = _read_jsonl(out / "retrieved.jsonl")
        assert [r["id"] for r in rows] == ["q0", "q1", "q2", "q3"]
        for r in rows:
            scores = [c["score"] for c in r["concepts"]]
            assert len(scores) == 3
            assert scores == sorted(scores, reverse=True)

    def test_default_k_is_ten(self, retrieval_files, tmp_path):
        out = tmp_path / "out"
        argv = [
            "retrieve", "--concepts", str(retrieval_files["concepts"]),
            "--queries", str(retrieval_files["queries"]), "--out", str(out),
        ]
        assert main(argv) == 0
        rows = _read_jsonl(out / "retrieved.jsonl")
        assert all(len(r["concepts"]) == 10 for r in rows)

    def test_caption_queries_change_results(self, retrieval_files, tmp_path):
        plain, combined = tmp_path / "plain", tmp_path / "combined"
        base = [
            "retrieve", "--concepts", str(retrieval_files["concepts"]),
            "--queries", str(retrieval_files["queries"]), "--k", "5",
        ]
        assert main(base + ["--out", str(plain)]) == 0
        assert main(
            base
            + ["--caption-queries", str(retrieval_files["captions"]),
               "--out", str(combined)]
        ) == 0
        assert (plain / "retrieved.jsonl").read_bytes() != (
            combined / "retrieved.jsonl"
        ).read_bytes()

    def test_caption_name_mismatch_exits_one(self, retrieval_files, tmp_path):
        argv = [
            "retrieve", "--concepts", str(retrieval_files["concepts"]),
            "--queries", str(retrieval_files["queries"]),
            "--caption-queries", str(retrieval_files["concepts"]),
            "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 1

    def test_corrupt_store_exits_one(self, retrieval_files, tmp_path):
        raw = retrieval_files["concepts"].read_bytes()
        bad = tmp_path / "bad.emb"
        bad.write_bytes(raw[: len(raw) // 2])
        argv = [
            "retrieve", "--concepts", str(bad),
            "--queries", str(retrieval_files["queries"]),
            "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 1

    def test_blocks_match_per_query_search(self, retrieval_files, tmp_path, monkeypatch):
        # a budget of 5 rows of 12 scores streams the 4 queries in blocks of 5,
        # and a budget of 1 row in blocks of 1
        concepts = read_store(retrieval_files["concepts"])
        index = retrieval.ConceptIndex(concepts)
        text = read_store(retrieval_files["queries"])
        captions = read_store(retrieval_files["captions"])
        want = [
            retrieval.top_k(index, retrieval.combine_text_caption(t[None], c[None]), 4)[0]
            for t, c in zip(text.vectors, captions.vectors)
        ]
        for rows in (5, 1):
            monkeypatch.setattr(retrieval, "SCORE_BLOCK_BYTES", 8 * 12 * rows)
            out = tmp_path / f"out{rows}"
            argv = [
                "retrieve", "--concepts", str(retrieval_files["concepts"]),
                "--queries", str(retrieval_files["queries"]),
                "--caption-queries", str(retrieval_files["captions"]),
                "--k", "4", "--out", str(out),
            ]
            assert main(argv) == 0
            rows_out = _read_jsonl(out / "retrieved.jsonl")
            assert [r["id"] for r in rows_out] == text.names
            for r, hits in zip(rows_out, want):
                assert [c["name"] for c in r["concepts"]] == [n for n, _ in hits]
                np.testing.assert_allclose(
                    [c["score"] for c in r["concepts"]], [s for _, s in hits], atol=1e-12
                )

    def test_streams_blocks_with_the_whole_matrix_bytes(self, retrieval_files, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(retrieval, "SCORE_BLOCK_BYTES", 8 * 12 * 3)  # blocks of 3 queries
        concepts = read_store(retrieval_files["concepts"])
        text = read_store(retrieval_files["queries"])
        captions = read_store(retrieval_files["captions"])
        whole = retrieval.top_k(retrieval.ConceptIndex(concepts),
                                retrieval.combine_text_caption(text.vectors, captions.vectors), 4)
        want = "".join(json.dumps(obj, sort_keys=True) + "\n"
                       for obj in _retrieved_objects(text.names, whole))
        seen = []
        search = retrieval.top_k
        monkeypatch.setattr(retrieval, "top_k",
                            lambda index, q, k, **kw: seen.append(len(q)) or search(index, q, k, **kw))
        out = tmp_path / "out"
        assert main([
            "retrieve", "--concepts", str(retrieval_files["concepts"]),
            "--queries", str(retrieval_files["queries"]),
            "--caption-queries", str(retrieval_files["captions"]), "--k", "4", "--out", str(out),
        ]) == 0
        assert (out / "retrieved.jsonl").read_text() == want
        assert seen == [0, 3, 1]

    def test_bad_row_in_a_later_block_leaves_no_output(self, retrieval_files, tmp_path, capsys,
                                                      monkeypatch):
        queries = read_store(retrieval_files["queries"])
        vecs = queries.vectors.copy()
        vecs[3] = 0.0
        path = tmp_path / "zero.emb"
        write_store(EmbeddingStore(dim=6, names=queries.names, vectors=vecs), path)
        monkeypatch.setattr(retrieval, "SCORE_BLOCK_BYTES", 8 * 12 * 2)
        out = tmp_path / "out"
        assert main([
            "retrieve", "--concepts", str(retrieval_files["concepts"]), "--queries", str(path),
            "--caption-queries", str(retrieval_files["captions"]), "--out", str(out),
        ]) == 1
        assert capsys.readouterr().err == "error: text row 3 has zero norm\n"
        assert not (out / "retrieved.jsonl").exists()

    @pytest.mark.parametrize("usable", [5, 0])
    def test_lines_are_write_jsonl_of_the_old_objects(self, tmp_path, monkeypatch, usable):
        # Exact copies, a zero row and fewer usable rows than k, or none at
        # all; names that need escaping; queries in blocks of two.
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(3, 6)).astype(np.float32)
        vectors = np.stack([rows[0], rows[1], np.zeros(6), rows[0], rows[2], rows[1]])
        if not usable:
            vectors[:] = 0.0
        concepts = EmbeddingStore(dim=6, names=['c"0', "c\\1", "zero", "c0 copy", "\xe9",
                                                "\U0001f600\x1f"], vectors=vectors)
        queries = EmbeddingStore(dim=6, names=["q0", 'q"1', "q\u20282", "q3", "q\U0001f6004"],
                                 vectors=np.vstack([rows[1], rng.normal(size=(4, 6))]))
        for name, store in (("concepts", concepts), ("queries", queries)):
            write_store(store, tmp_path / f"{name}.emb")
        monkeypatch.setattr(retrieval, "SCORE_BLOCK_BYTES", 8 * 12 * 2)
        hits = retrieval.top_k(retrieval.ConceptIndex(read_store(tmp_path / "concepts.emb")),
                               read_store(tmp_path / "queries.emb").vectors, 8)
        assert {len(h) for h in hits} == {usable}
        write_jsonl(_retrieved_objects(queries.names, hits), tmp_path / "want.jsonl")
        out = tmp_path / "out"
        assert main(["retrieve", "--concepts", str(tmp_path / "concepts.emb"),
                     "--queries", str(tmp_path / "queries.emb"), "--k", "8",
                     "--out", str(out)]) == 0
        assert (out / "retrieved.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()

    def test_zero_query_names_its_row(self, retrieval_files, tmp_path, capsys, monkeypatch):
        queries = read_store(retrieval_files["queries"])
        vecs = queries.vectors.copy()
        vecs[2] = 0.0
        path = tmp_path / "zero.emb"
        write_store(EmbeddingStore(dim=6, names=queries.names, vectors=vecs), path)
        monkeypatch.setattr(retrieval, "SCORE_BLOCK_BYTES", 8 * 12 * 2)
        argv = [
            "retrieve", "--concepts", str(retrieval_files["concepts"]),
            "--queries", str(path), "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: query row 2 has zero norm\n"
        assert not (tmp_path / "out" / "retrieved.jsonl").exists()  # row 2 is in the second block

    def test_bad_k_leaves_no_output(self, retrieval_files, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"retrieval": {"k": 2.5}}))
        out = tmp_path / "out"
        argv = [
            "retrieve", "--concepts", str(retrieval_files["concepts"]),
            "--queries", str(retrieval_files["queries"]),
            "--config", str(config), "--out", str(out),
        ]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: k must be an integer, got 2.5\n"
        assert not (out / "retrieved.jsonl").exists()

    def test_empty_queries_still_check_k(self, retrieval_files, tmp_path, capsys):
        path = tmp_path / "empty.emb"
        write_store(EmbeddingStore(dim=6, names=[], vectors=np.zeros((0, 6))), path)
        base = ["retrieve", "--concepts", str(retrieval_files["concepts"]), "--queries", str(path)]
        assert main(base + ["--out", str(tmp_path / "ok")]) == 0
        assert (tmp_path / "ok" / "retrieved.jsonl").read_bytes() == b""
        assert main(base + ["--k", "0", "--out", str(tmp_path / "bad")]) == 1
        assert capsys.readouterr().err == "error: k must be >= 1, got 0\n"

    def test_missing_store_exits_two(self, retrieval_files, tmp_path):
        argv = [
            "retrieve", "--concepts", str(tmp_path / "none.emb"),
            "--queries", str(retrieval_files["queries"]),
            "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 2


class TestTrainFusionAndPredict:
    @pytest.fixture()
    def data(self, tmp_path):
        out = tmp_path / "data"
        assert main(_synth_args(out)) == 0
        return out

    def test_training_outputs(self, data, tmp_path, capsys):
        out = tmp_path / "model"
        assert main(_fusion_args(data, out)) == 0
        net = load_checkpoint(out / "fusion.ckpt")
        assert net.cfg.d_model == 8 and net.cfg.num_heads == 2
        assert net.cfg.use_knowledge
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,lr,train_loss,train_acc,val_acc"
        assert len(history) >= 2
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"lr_selected", "epochs_ran", "train", "val", "test"}
        assert metrics["lr_selected"] == 0.001
        for split in ("train", "val", "test"):
            assert set(metrics[split]) >= {"precision", "recall", "f1", "auc",
                                           "accuracy"}
        assert "test" in capsys.readouterr().out

    def test_reruns_are_byte_identical(self, data, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(_fusion_args(data, a)) == 0
        assert main(_fusion_args(data, b)) == 0
        for name in ("fusion.ckpt", "fusion.ckpt.json", "history.csv",
                     "metrics.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_lr_sweep_selects_from_grid(self, data, tmp_path):
        out = tmp_path / "model"
        argv = _fusion_args(data, out, "--lr-sweep")
        assert main(argv) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["lr_selected"] in (1e-4, 5e-5)

    def test_lr_sweep_scores_each_split_once(self, data, tmp_path, monkeypatch):
        # Each swept lr is judged by its history's best val_acc, the accuracy
        # of the weights train_classifier restores. train_classifier scored
        # train and val at that epoch, so metrics.json scores only test again.
        scored = []
        original = fusion.evaluate_records
        monkeypatch.setattr(fusion, "evaluate_records",
                            lambda net, recs, *a: scored.append(len(recs)) or original(net, recs, *a))
        out = tmp_path / "model"
        assert main(_fusion_args(data, out, "--lr-sweep", "--train-concepts")) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        counts = {split: sum(metrics[split][c] for c in ("tp", "fp", "tn", "fn"))
                  for split in ("train", "val", "test")}
        assert scored == [counts["test"]] and sum(counts.values()) == 60
        rows = (out / "history.csv").read_text().splitlines()[1:]
        assert metrics["val"]["accuracy"] == max(float(row.split(",")[4]) for row in rows)

    def test_lr_sweep_without_epochs_keeps_first_lr(self, data, tmp_path):
        out = tmp_path / "model"
        argv = _fusion_args(data, out, "--lr-sweep")
        argv[argv.index("--epochs") + 1] = "0"
        assert main(argv) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["lr_selected"] == 1e-4 and metrics["epochs_ran"] == 0

    def test_duplicate_record_id_exits_one(self, data, tmp_path, capsys):
        model = tmp_path / "model"
        assert main(_fusion_args(data, model)) == 0
        records = data / "records.jsonl"
        lines = records.read_text().splitlines(keepends=True)
        lines[5] = lines[5].replace(json.loads(lines[5])["id"], json.loads(lines[4])["id"])
        records.write_text("".join(lines))
        capsys.readouterr()
        assert main([
            "predict", "--checkpoint", str(model / "fusion.ckpt"), "--records", str(records),
            "--mm-store", str(data / "multimodal.emb"),
            "--concept-store", str(data / "concepts.emb"), "--out", str(tmp_path / "pred"),
        ]) == 1
        assert "line 6: duplicate id 'rec_04' (first on line 5)" in capsys.readouterr().err
        assert not (tmp_path / "pred" / "predictions.jsonl").exists()

    def test_record_without_concepts_names_the_record(self, data, tmp_path, capsys):
        model, ablation = tmp_path / "model", tmp_path / "ablation"
        assert main(_fusion_args(data, model)) == 0
        assert main(_fusion_args(data, ablation, "--no-knowledge")) == 0
        records = data / "records.jsonl"
        lines = records.read_text().splitlines(keepends=True)
        row = json.loads(lines[5])
        lines[5] = json.dumps({**row, "concept_names": []}) + "\n"
        records.write_text("".join(lines))
        want = f"error: record {row['id']}: no concepts, but the net attends over knowledge\n"

        def predict(checkpoint, out):
            return main([
                "predict", "--checkpoint", str(checkpoint / "fusion.ckpt"),
                "--records", str(records), "--mm-store", str(data / "multimodal.emb"),
                "--concept-store", str(data / "concepts.emb"), "--out", str(out),
            ])

        capsys.readouterr()
        assert main(_fusion_args(data, tmp_path / "retrained")) == 1
        assert capsys.readouterr().err == want
        assert predict(model, tmp_path / "pred") == 1
        assert capsys.readouterr().err == want
        assert not (tmp_path / "pred" / "predictions.jsonl").exists()
        # The ablation net attends over nothing and scores the record.
        assert main(_fusion_args(data, tmp_path / "ablation2", "--no-knowledge")) == 0
        assert predict(ablation, tmp_path / "ablation_pred") == 0
        assert len(_read_jsonl(tmp_path / "ablation_pred" / "predictions.jsonl")) == 60

    def test_no_knowledge_flag(self, data, tmp_path):
        out = tmp_path / "model"
        assert main(_fusion_args(data, out, "--no-knowledge")) == 0
        assert not load_checkpoint(out / "fusion.ckpt").cfg.use_knowledge

    def test_train_concepts_writes_tuned_store(self, data, tmp_path):
        out = tmp_path / "model"
        assert main(_fusion_args(data, out, "--train-concepts")) == 0
        tuned = read_store(out / "concepts_tuned.emb")
        original = read_store(data / "concepts.emb")
        assert tuned.names == original.names
        assert not np.array_equal(tuned.vectors, original.vectors)

    def test_train_concepts_metrics_use_tuned_concepts(self, tmp_path):
        # The model early-stops on validation accuracy against its tuned
        # concepts, so metrics.json must report that same accuracy. A weak
        # concept signal and a large step make the tuned concepts matter.
        data = tmp_path / "data"
        assert main(_synth_args(data) + ["--signal", "0.3"]) == 0
        out = tmp_path / "model"
        argv = _fusion_args(data, out, "--train-concepts", "--epochs", "6", "--lr", "0.03")
        assert main(argv) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        rows = (out / "history.csv").read_text().splitlines()[1:]
        best_val = max(float(row.split(",")[4]) for row in rows)
        assert metrics["val"]["accuracy"] == best_val

    def test_train_concepts_without_knowledge_changes_no_output(self, data, tmp_path):
        # The ablation net reads no concept row, so the tuned store is the input store.
        plain, tuned = tmp_path / "plain", tmp_path / "tuned"
        assert main(_fusion_args(data, plain, "--no-knowledge")) == 0
        assert main(_fusion_args(data, tuned, "--no-knowledge", "--train-concepts")) == 0
        assert (tuned / "concepts_tuned.emb").read_bytes() == (data / "concepts.emb").read_bytes()
        assert {p.name for p in tuned.iterdir()} == {p.name for p in plain.iterdir()} | {
            "concepts_tuned.emb"}
        for name in ("fusion.ckpt", "history.csv", "metrics.json"):
            assert (tuned / name).read_bytes() == (plain / name).read_bytes(), name

    def test_predict_against_concepts_of_another_dim_names_both(self, data, tmp_path, capsys):
        model = tmp_path / "model"
        assert main(_fusion_args(data, model)) == 0
        store = read_store(data / "concepts.emb")
        wide = tmp_path / "wide.emb"
        write_store(EmbeddingStore(dim=16, names=store.names, vectors=np.tile(store.vectors, 2)),
                    wide)
        capsys.readouterr()
        assert main([
            "predict", "--checkpoint", str(model / "fusion.ckpt"),
            "--records", str(data / "records.jsonl"), "--mm-store", str(data / "multimodal.emb"),
            "--concept-store", str(wide), "--out", str(tmp_path / "pred"),
        ]) == 1
        assert capsys.readouterr().err == "error: concept store dim 16 != the net's knowledge_dim 8\n"
        assert not (tmp_path / "pred" / "predictions.jsonl").exists()

    def test_predict_round_trip(self, data, tmp_path):
        model = tmp_path / "model"
        assert main(_fusion_args(data, model)) == 0
        out_a, out_b = tmp_path / "pa", tmp_path / "pb"
        argv = [
            "predict", "--checkpoint", str(model / "fusion.ckpt"),
            "--records", str(data / "records.jsonl"),
            "--mm-store", str(data / "multimodal.emb"),
            "--concept-store", str(data / "concepts.emb"),
            "--out", str(out_a),
        ]
        assert main(argv) == 0
        rows = _read_jsonl(out_a / "predictions.jsonl")
        assert len(rows) == 60
        for r in rows:
            assert set(r) == {"id", "label", "p0", "p1"}
            assert r["label"] in (0, 1)
            assert abs(r["p0"] + r["p1"] - 1.0) < 1e-9
        argv[argv.index(str(out_a))] = str(out_b)
        assert main(argv) == 0
        assert (out_a / "predictions.jsonl").read_bytes() == (
            out_b / "predictions.jsonl"
        ).read_bytes()

    def test_prediction_lines_are_write_jsonl_of_the_old_objects(self, data, tmp_path):
        # Ids that need escaping, or are not strings at all.
        records = data / "records.jsonl"
        lines = [json.loads(line) for line in records.read_text().splitlines()]
        odd_ids = ['a "quoted" \\ id', "\xe9\u2028\U0001f600", "\x00\x1f", 7, 2.5, None]
        for line, rec_id in zip(lines, odd_ids):
            line["id"] = rec_id
        records.write_text("".join(json.dumps(line) + "\n" for line in lines))
        model = tmp_path / "model"
        assert main(_fusion_args(data, model)) == 0
        mm, concepts = read_store(data / "multimodal.emb"), read_store(data / "concepts.emb")
        recs = read_records_jsonl(records, mm, concepts)
        _, preds, p1 = fusion.evaluate_records(load_checkpoint(model / "fusion.ckpt"), recs,
                                               concepts)
        write_jsonl(_prediction_objects(recs, preds, p1), tmp_path / "want.jsonl")
        out = tmp_path / "pred"
        assert main(["predict", "--checkpoint", str(model / "fusion.ckpt"),
                     "--records", str(records), "--mm-store", str(data / "multimodal.emb"),
                     "--concept-store", str(data / "concepts.emb"), "--out", str(out)]) == 0
        assert (out / "predictions.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()

    def test_missing_checkpoint_exits_two(self, data, tmp_path):
        argv = [
            "predict", "--checkpoint", str(tmp_path / "none.ckpt"),
            "--records", str(data / "records.jsonl"),
            "--mm-store", str(data / "multimodal.emb"),
            "--concept-store", str(data / "concepts.emb"),
            "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 2


class TestCongruence:
    @pytest.fixture()
    def modality_files(self, tmp_path):
        rng = np.random.default_rng(8)
        names = [f"pair{i}" for i in range(8)]
        paths = {}
        for key, seed in (("text", 0), ("image", 1)):
            store = EmbeddingStore(
                dim=6, names=names,
                vectors=np.random.default_rng(seed).normal(size=(8, 6)).astype(
                    np.float32
                ),
            )
            paths[key] = tmp_path / f"{key}.emb"
            write_store(store, paths[key])
        concepts = EmbeddingStore(
            dim=6, names=[f"c{i}" for i in range(5)],
            vectors=rng.normal(size=(5, 6)).astype(np.float32),
        )
        paths["concepts"] = tmp_path / "concepts.emb"
        write_store(concepts, paths["concepts"])
        pairs = tmp_path / "pairs.jsonl"
        with pairs.open("w") as fh:
            for name in names:
                fh.write(json.dumps(
                    {"id": name, "concept_names": ["c0", "c2"]}) + "\n")
        paths["pairs"] = pairs
        return paths

    def test_report_without_knowledge(self, modality_files, tmp_path):
        out = tmp_path / "out"
        argv = [
            "congruence", "--text-store", str(modality_files["text"]),
            "--image-store", str(modality_files["image"]), "--out", str(out),
        ]
        assert main(argv) == 0
        rep = json.loads((out / "congruence.json").read_text())
        assert rep["relative_similarity_change"] is None
        csv_lines = (out / "pairs.csv").read_text().splitlines()
        assert len(csv_lines) == 9

    def test_report_with_knowledge(self, modality_files, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [
            "congruence", "--text-store", str(modality_files["text"]),
            "--image-store", str(modality_files["image"]),
            "--concept-store", str(modality_files["concepts"]),
            "--pairs", str(modality_files["pairs"]), "--out", str(out),
        ]
        assert main(argv) == 0
        rep = json.loads((out / "congruence.json").read_text())
        assert rep["relative_similarity_change"] is not None
        assert rep["with_knowledge"]["mean_pairwise_cosine"] is not None
        assert "relative_change" in capsys.readouterr().out

    def test_reruns_are_byte_identical(self, modality_files, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            argv = [
                "congruence", "--text-store", str(modality_files["text"]),
                "--image-store", str(modality_files["image"]),
                "--concept-store", str(modality_files["concepts"]),
                "--pairs", str(modality_files["pairs"]), "--out", str(out),
            ]
            assert main(argv) == 0
            outs.append(out)
        for name in ("congruence.json", "pairs.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_augments_once_with_library_outputs(self, modality_files, tmp_path, monkeypatch):
        text, image = read_store(modality_files["text"]), read_store(modality_files["image"])
        concepts = read_store(modality_files["concepts"])
        knowledge = [np.stack([concepts.row("c0"), concepts.row("c2")])] * text.n
        pairs = congruence.ModalityPairSet(text.vectors, image.vectors, knowledge,
                                           list(text.names))
        want_csv = tmp_path / "want.csv"
        congruence.write_pair_csv(congruence.report(pairs), want_csv)
        want_json = json.dumps(congruence.report(pairs).to_dict(), sort_keys=True, indent=2)

        calls = []
        original = congruence.augment_with_knowledge
        monkeypatch.setattr(congruence, "augment_with_knowledge",
                            lambda p: calls.append(p) or original(p))
        out = tmp_path / "out"
        assert main([
            "congruence", "--text-store", str(modality_files["text"]),
            "--image-store", str(modality_files["image"]),
            "--concept-store", str(modality_files["concepts"]),
            "--pairs", str(modality_files["pairs"]), "--out", str(out),
        ]) == 0
        assert len(calls) == 1
        assert (out / "pairs.csv").read_bytes() == want_csv.read_bytes()
        assert (out / "congruence.json").read_text() == want_json + "\n"

    def test_cosines_computed_once(self, modality_files, tmp_path, monkeypatch):
        calls = []
        original = congruence.pairwise_cosines
        monkeypatch.setattr(congruence, "pairwise_cosines",
                            lambda p: calls.append(p) or original(p))
        assert main([
            "congruence", "--text-store", str(modality_files["text"]),
            "--image-store", str(modality_files["image"]),
            "--concept-store", str(modality_files["concepts"]),
            "--pairs", str(modality_files["pairs"]), "--out", str(tmp_path / "out"),
        ]) == 0
        assert len(calls) == 2  # without and with knowledge

    def test_duplicate_pair_id_exits_one(self, modality_files, tmp_path, capsys):
        pairs = modality_files["pairs"]
        with pairs.open("a") as fh:
            fh.write(json.dumps({"id": "pair3", "concept_names": ["c1"]}) + "\n")
        argv = [
            "congruence", "--text-store", str(modality_files["text"]),
            "--image-store", str(modality_files["image"]),
            "--concept-store", str(modality_files["concepts"]),
            "--pairs", str(pairs), "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 1
        assert "line 9: duplicate id 'pair3'" in capsys.readouterr().err

    def test_pair_with_empty_concept_names_is_named(self, modality_files, tmp_path, capsys):
        pairs = modality_files["pairs"]
        lines = pairs.read_text().splitlines()
        lines[5] = json.dumps({"id": "pair5", "concept_names": []})
        pairs.write_text("\n".join(lines) + "\n")
        argv = [
            "congruence", "--text-store", str(modality_files["text"]),
            "--image-store", str(modality_files["image"]),
            "--concept-store", str(modality_files["concepts"]),
            "--pairs", str(pairs), "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "'pair5'" in err[0] and str(pairs) in err[0]

    @pytest.mark.parametrize("dim", [3, 4])
    def test_concepts_of_another_dim_are_named(self, modality_files, tmp_path, capsys, dim):
        # Two 3-d concepts per pair fill one 6-d row once reshaped; two 4-d ones fill none.
        concepts = EmbeddingStore(dim=dim, names=[f"c{i}" for i in range(5)],
                                  vectors=np.ones((5, dim), dtype=np.float32))
        write_store(concepts, modality_files["concepts"])
        out = tmp_path / "out"
        assert main([
            "congruence", "--text-store", str(modality_files["text"]),
            "--image-store", str(modality_files["image"]),
            "--concept-store", str(modality_files["concepts"]),
            "--pairs", str(modality_files["pairs"]), "--out", str(out),
        ]) == 1
        assert capsys.readouterr().err == (f"error: pair 'pair0': knowledge matrix (2, {dim}) "
                                           "is not [k, 6] for modality vectors (8, 6)\n")
        assert not (out / "congruence.json").exists()

    def test_pairs_without_concepts_exits_one(self, modality_files, tmp_path):
        argv = [
            "congruence", "--text-store", str(modality_files["text"]),
            "--image-store", str(modality_files["image"]),
            "--pairs", str(modality_files["pairs"]),
            "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 1

    def test_row_count_mismatch_exits_one(self, modality_files, tmp_path):
        argv = [
            "congruence", "--text-store", str(modality_files["text"]),
            "--image-store", str(modality_files["concepts"]),
            "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 1


class TestConfigFile:
    """Flags beat config[section][key]; the config dataclasses supply the rest."""

    def test_kge_settings(self, toy_tsv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"seed": 4, "kge": {"margin": 0.5, "epochs": 9, "heldout": 4}}
        ))
        out = tmp_path / "out"
        argv = ["train-kge", "--triples", str(toy_tsv), "--dim", "8", "--epochs", "2",
                "--config", str(config), "--out", str(out)]
        assert main(argv) == 0
        meta = dict(line.split("=", 1) for line in
                    (out / "kge_meta.txt").read_text().splitlines())
        default = KgeTrainConfig()
        assert meta["epochs"] == "2"  # flag over config
        assert meta["margin"] == "0.5"  # config over default
        assert meta["heldout_triples"] == "4"
        assert meta["seed"] == str(derive_seed(4, "kge"))
        assert meta["kind"] == default.kind and meta["norm"] == default.norm
        assert meta["learning_rate"] == str(default.learning_rate)
        assert meta["negatives_per_positive"] == str(default.negatives_per_positive)

    def test_fusion_settings(self, tmp_path):
        data = tmp_path / "data"
        assert main(_synth_args(data)) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fusion": {
            "epochs": 1, "batch_size": 4, "warmup_fraction": 0.5, "train_concepts": True,
        }}))
        out = tmp_path / "model"
        argv = _fusion_args(data, out, "--config", str(config))
        argv.remove("--lr")
        argv.remove("0.001")
        assert main(argv) == 0
        cfg = load_checkpoint(out / "fusion.ckpt").cfg
        default = FusionConfig()
        assert cfg.epochs == 2 and cfg.batch_size == 8  # flags over config
        assert cfg.warmup_fraction == 0.5
        assert cfg.train_concepts is True
        assert cfg.multimodal_dim == 12 and cfg.knowledge_dim == 8  # from the stores
        assert cfg.learning_rate == default.learning_rate
        assert cfg.early_stop_patience == default.early_stop_patience

    def test_synth_settings(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synth": {"n": 30, "n_concepts": 12}}))
        out = tmp_path / "data"
        assert main(["synth", "--n", "20", "--dim", "6", "--concept-dim", "4",
                     "--config", str(config), "--out", str(out)]) == 0
        assert read_store(out / "multimodal.emb").n == 20
        concepts = read_store(out / "concepts.emb")
        assert concepts.n == 12 and concepts.dim == 4
        rows = _read_jsonl(out / "records.jsonl")
        assert {len(r["concept_names"]) for r in rows} == {
            SynthConfig().concepts_per_record
        }

    def test_misspelled_section_key_exits_one(self, toy_tsv, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kge": {"lerning_rate": 0.5, "epoch": 3}}))
        argv = ["train-kge", "--triples", str(toy_tsv), "--config", str(config),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: unknown kge settings ['epoch', 'lerning_rate']\n"

    @pytest.mark.parametrize("config", [
        {"retrieval_k": 3},  # the old second name of retrieval.k
        {"retrieval": {"seed": 1}},  # retrieve reads no seed
        {"retrieval": {"k": 3, "kind": "transe"}},  # a train-kge setting
    ])
    def test_retrieve_rejects_unknown_keys(self, config, tmp_path, capsys):
        rng = np.random.default_rng(0)
        store = EmbeddingStore(dim=4, names=[f"c{i}" for i in range(6)],
                               vectors=rng.normal(size=(6, 4)))
        write_store(store, tmp_path / "c.emb")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = ["retrieve", "--concepts", str(tmp_path / "c.emb"), "--queries",
                str(tmp_path / "c.emb"), "--config", str(path), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert re.fullmatch(r"error: unknown (config keys|retrieval settings) \[.*\]\n",
                            capsys.readouterr().err)

    @pytest.mark.parametrize("config", [[1], {"fusion": [1]}])
    def test_non_object_config_exits_one(self, config, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["train-fusion", "--records", "r", "--mm-store", "m",
                     "--concept-store", "c", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        assert "must be a JSON object" in capsys.readouterr().err

    def test_config_k_and_seeds(self, tmp_path):
        rng = np.random.default_rng(0)
        store = EmbeddingStore(dim=4, names=[f"c{i}" for i in range(12)],
                               vectors=rng.normal(size=(12, 4)))
        write_store(store, tmp_path / "c.emb")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 5, "retrieval": {"k": 3}}))
        out = tmp_path / "out"
        assert main(["retrieve", "--concepts", str(tmp_path / "c.emb"), "--queries",
                     str(tmp_path / "c.emb"), "--config", str(path), "--out", str(out)]) == 0
        assert {len(r["concepts"]) for r in _read_jsonl(out / "retrieved.jsonl")} == {3}
        # The seed: flag > section > top level > 0.
        for config, flag, want in (({"seed": 5}, [], 5), ({"seed": 5, "synth": {"seed": 6}}, [], 6),
                                   ({"seed": 5, "synth": {"seed": 6}}, ["--seed", "7"], 7),
                                   ({}, [], 0)):
            path.write_text(json.dumps(config))
            a, b = tmp_path / "a", tmp_path / "b"
            assert main(["synth", "--n", "20", "--dim", "4", "--config", str(path), *flag,
                         "--out", str(a)]) == 0
            assert main(["synth", "--n", "20", "--dim", "4", "--seed", str(want),
                         "--out", str(b)]) == 0
            assert (a / "multimodal.emb").read_bytes() == (b / "multimodal.emb").read_bytes()

    def test_float_integers_are_errors(self, toy_tsv, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synth": {"n": 20.0}, "kge": {"dim": 32.0}}))
        common = ["--config", str(config), "--out", str(tmp_path / "out")]
        assert main(["synth", *common]) == 1
        assert capsys.readouterr().err == "error: n must be an integer, got 20.0\n"
        assert main(["train-kge", "--triples", str(toy_tsv), *common]) == 1
        assert capsys.readouterr().err == "error: dim must be an integer, got 32.0\n"

    def test_float_in_checkpoint_sidecar_is_an_error(self, tmp_path, capsys):
        data, model = tmp_path / "data", tmp_path / "model"
        assert main(_synth_args(data)) == 0
        assert main(_fusion_args(data, model)) == 0
        sidecar = model / "fusion.ckpt.json"
        cfg = json.loads(sidecar.read_text())
        cfg["num_heads"] = float(cfg["num_heads"])
        sidecar.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main([
            "predict", "--checkpoint", str(model / "fusion.ckpt"),
            "--records", str(data / "records.jsonl"),
            "--mm-store", str(data / "multimodal.emb"),
            "--concept-store", str(data / "concepts.emb"), "--out", str(tmp_path / "pred"),
        ]) == 1
        assert "num_heads must be an integer" in capsys.readouterr().err


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "knowfuse" in capsys.readouterr().out

    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_required_flag_exits_one(self, capsys):
        assert main(["train-kge"]) == 1
        capsys.readouterr()
