"""Acceptance suite: ten end-to-end checks with pinned tolerances.

Each check prints one PASS or FAIL line (run with -s to see them all):

     1  analytic embedding gradients match finite differences
     2  a solvable toy graph trains to filtered hits@1 >= 0.9
     3  score-function identities hold over 1000 random cases
     4  retrieval matches a brute-force oracle and is scale invariant
     5  fusion gradients match finite differences across 50 setups
     6  knowledge-aware classifier beats its ablation on synthetic data
     7  midpoint knowledge always increases cross-modal congruence
     8  classification metrics match hand counts and an all-pairs oracle
     9  binary formats round-trip bit-exact and fail with typed errors
    10  every CLI command is byte-for-byte deterministic
"""
from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from knowfuse import congruence, fusion, kge, metrics, retrieval, stores
from knowfuse.cli import main
from knowfuse.errors import KnowfuseError
from knowfuse.kg import holdout_split, load_triples

from conftest import pair_bundle_rows, write_tsv


@contextlib.contextmanager
def _criterion(num: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {num:02d}] PASS ({elapsed:.1f}s): {description}")


def _within(analytic: np.ndarray, fd: np.ndarray, rtol: float) -> bool:
    err = np.abs(analytic - fd)
    tol = 1e-8 + rtol * np.maximum(np.abs(analytic), np.abs(fd))
    return bool(np.all(err <= tol))


def test_criterion_01_kge_gradients_match_finite_differences():
    """Margin-loss gradients for all three score functions, dim 8,
    central differences with eps 1e-5, relative error below 1e-4,
    at least 100 compared points per kind, under 10 seconds."""
    with _criterion(1, "embedding gradients match finite differences"):
        start = time.perf_counter()
        eps = 1e-5
        rng = np.random.default_rng(2024)
        for kind in ("transe", "rotate", "distmult"):
            points = 0
            attempts = 0
            while points < 100:
                attempts += 1
                assert attempts < 500, f"{kind}: could not find active hinges"
                entity = rng.normal(size=(4, 8))
                if kind == "rotate":
                    relation = rng.uniform(0, 2 * np.pi, size=(2, 4))
                else:
                    relation = rng.normal(size=(2, 8))
                model = kge.KgeModel(
                    kind=kind, entity_emb=entity, relation_emb=relation, dim=8
                )
                pos, neg = np.array([(0, 0, 1)]), np.array([(2, 0, 1)])
                if kge.grad(model, pos, neg, 1.0).losses[0] < 0.05:
                    continue
                g = kge.grad(model, pos, neg, 1.0)
                analytic = (np.zeros_like(entity), np.zeros_like(relation))
                np.add.at(analytic[0], g.entity_rows, g.entity_grads)
                np.add.at(analytic[1], g.relation_rows, g.relation_grads)
                for space, table, grads in zip("er", (entity, relation), analytic):
                    for row in range(table.shape[0]):
                        fd = np.zeros(table.shape[1])
                        for j in range(table.shape[1]):
                            orig = table[row, j]
                            table[row, j] = orig + eps
                            up = kge.grad(model, pos, neg, 1.0).losses[0]
                            table[row, j] = orig - eps
                            dn = kge.grad(model, pos, neg, 1.0).losses[0]
                            table[row, j] = orig
                            fd[j] = (up - dn) / (2 * eps)
                        assert _within(grads[row], fd, 1e-4), (kind, space, row)
                        points += fd.shape[0]
        assert time.perf_counter() - start < 10.0


def test_criterion_02_toy_graph_trains_to_high_hits(tmp_path):
    """20 entities, 2 relations, 60 triples; translation embeddings at
    dim 32, lr 0.001, margin 1, 500 epochs, seed 7; filtered hits@1 on
    10 held-out triples must reach 0.9 within 30 seconds."""
    with _criterion(2, "toy graph trains to filtered hits@1 >= 0.9"):
        start = time.perf_counter()
        graph = load_triples(write_tsv(pair_bundle_rows(), tmp_path / "toy.tsv"))
        train_kg, heldout = holdout_split(graph, 10, seed=7)
        cfg = kge.KgeTrainConfig(
            kind="transe", dim=32, learning_rate=0.001, margin=1.0,
            epochs=500, negatives_per_positive=5, seed=7,
        )
        model, trace = kge.train(train_kg, cfg)
        result = kge.link_predict_eval(model, train_kg, heldout)
        elapsed = time.perf_counter() - start
        assert result.num_queries == 20
        assert result.hits_at[1] >= 0.9, result
        assert trace[-1] < trace[0]
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_03_score_identities_hold():
    """1000 random cases: swapping head and tail never changes the
    trilinear score (rtol 1e-12); zero-phase rotation equals the plain
    distance score (atol 1e-12); the translation score is exactly zero
    precisely when head + relation equals tail."""
    with _criterion(3, "score identities hold over 1000 random cases"):
        rng = np.random.default_rng(77)

        def scores(model, *triples):
            h, r, t = np.array(triples).T
            return kge._kernel(model, h, r, t, grads=False)[0]

        for _ in range(1000):
            dim = 2 * int(rng.integers(2, 9))
            entity = rng.normal(size=(3, dim))

            rel = rng.normal(size=(1, dim))
            dm = kge.KgeModel(
                kind="distmult", entity_emb=entity, relation_emb=rel, dim=dim
            )
            forward, swapped = scores(dm, (0, 0, 1), (1, 0, 0))
            assert_allclose(forward, swapped, rtol=1e-12)

            rot = kge.KgeModel(
                kind="rotate", entity_emb=entity,
                relation_emb=np.zeros((1, dim // 2)), dim=dim,
            )
            want = -float(np.linalg.norm(entity[0] - entity[1]))
            assert abs(scores(rot, (0, 0, 1))[0] - want) <= 1e-12

            h = entity[0]
            r = rel[0]
            tr = kge.KgeModel(
                kind="transe", entity_emb=np.stack([h, h + r, entity[2]]),
                relation_emb=rel, dim=dim,
            )
            exact, other = scores(tr, (0, 0, 1), (0, 0, 2))
            assert exact == 0.0
            assert other != 0.0


def test_criterion_04_retrieval_matches_oracle():
    """1000 stored vectors at dim 32, 100 queries, k=10: names and order
    match a per-candidate cosine oracle (scores within 1e-12), results
    are invariant to query scaling by 0.5 and 3.0, under 5 seconds."""
    with _criterion(4, "retrieval matches brute force and scale invariance"):
        start = time.perf_counter()
        rng = np.random.default_rng(404)
        store = stores.EmbeddingStore(
            dim=32,
            names=[f"c{i}" for i in range(1000)],
            vectors=rng.normal(size=(1000, 32)).astype(np.float32),
        )
        index = retrieval.ConceptIndex(store)
        vecs = store.vectors.astype(np.float64)
        norms = np.linalg.norm(vecs, axis=1)
        queries = rng.normal(size=(100, 32))
        hits = retrieval.top_k(index, queries, 10)
        scaled = {alpha: retrieval.top_k(index, alpha * queries, 10) for alpha in (0.5, 3.0)}
        for q, (query, got) in enumerate(zip(queries, hits)):
            sims = vecs @ (query / np.linalg.norm(query)) / norms
            order = sorted(range(1000), key=lambda i: (-sims[i], i))[:10]
            assert [n for n, _ in got] == [f"c{i}" for i in order]
            assert_allclose(
                [s for _, s in got], [sims[i] for i in order], atol=1e-12
            )
            for alpha in (0.5, 3.0):
                assert [n for n, _ in scaled[alpha][q]] == [n for n, _ in got]
                assert_allclose(
                    [s for _, s in scaled[alpha][q]], [s for _, s in got], atol=1e-12
                )
        assert time.perf_counter() - start < 5.0


def test_criterion_05_fusion_gradients_match_finite_differences():
    """50 random network shapes: every parameter gradient matches central
    differences (eps 1e-4, relative error below 1e-3); attention rows sum
    to one within 1e-6; permuting the knowledge rows leaves logits
    unchanged within 1e-6."""
    with _criterion(5, "fusion gradients match finite differences (50 setups)"):
        rng = np.random.default_rng(505)
        for case in range(50):
            d_model = int(rng.choice([4, 8]))
            heads = int(rng.choice([1, 2, 4] if d_model == 8 else [1, 2]))
            cfg = fusion.FusionConfig(
                d_model=d_model,
                num_heads=heads,
                multimodal_dim=int(rng.integers(3, 9)),
                knowledge_dim=int(rng.integers(3, 9)),
                use_knowledge=case % 5 != 4,
                seed=case,
            )
            net = fusion.FusionNet(cfg, rng=np.random.default_rng(case + 1))
            n_k = int(rng.integers(2, 6))
            mm = rng.normal(size=cfg.multimodal_dim)
            kg = rng.normal(size=(n_k, cfg.knowledge_dim))
            label = int(rng.integers(0, 2))

            # The shipped batched path at B=1; the ablation net ignores kg.
            x, kgb, labels = mm[None], kg[None], np.array([label])
            logits, trace = fusion.forward(net, x, kgb)
            if cfg.use_knowledge:
                assert_allclose(trace.attn.sum(axis=-1), 1.0, atol=1e-6)
                perm = np.random.default_rng(case).permutation(n_k)
                shuffled, _ = fusion.forward(net, x, kg[perm][None])
                assert_allclose(shuffled, logits, atol=1e-6)

            grads, _ = fusion.backward(net, trace, labels)
            eps = 1e-4
            for name in net.PARAM_NAMES:
                param = getattr(net, name)
                fd = np.zeros_like(param)
                it = np.nditer(param, flags=["multi_index"])
                while not it.finished:
                    idx = it.multi_index
                    orig = param[idx]
                    param[idx] = orig + eps
                    up = fusion.cross_entropy(fusion.forward(net, x, kgb)[0], labels)[0]
                    param[idx] = orig - eps
                    dn = fusion.cross_entropy(fusion.forward(net, x, kgb)[0], labels)[0]
                    param[idx] = orig
                    fd[idx] = (up - dn) / (2 * eps)
                    it.iternext()
                assert _within(grads[name], fd, 1e-3), (case, name)


def test_criterion_06_knowledge_beats_ablation():
    """2000 synthetic records (class ratio 0.6063, full concept signal,
    seed 3), fixed splits, both classifiers trained up to 200 epochs at
    lr 1e-4: the knowledge model must reach test accuracy >= 0.95 and
    beat the no-knowledge ablation by at least 0.05 F1, under 3 minutes."""
    with _criterion(6, "knowledge-aware classifier beats its ablation"):
        start = time.perf_counter()
        synth_cfg = stores.SynthConfig(
            n=2000, class_ratio=0.6063, concept_signal_strength=1.0, seed=3
        )
        records, concept_store = stores.synth_dataset(synth_cfg)

        order = np.random.default_rng(99).permutation(len(records))
        n_val, n_test = 395, 396
        test = [records[i] for i in order[:n_test]]
        val = [records[i] for i in order[n_test : n_test + n_val]]
        train = [records[i] for i in order[n_test + n_val :]]

        f1 = {}
        acc = {}
        for use_knowledge in (True, False):
            cfg = fusion.FusionConfig(
                epochs=200, learning_rate=1e-4, seed=11,
                use_knowledge=use_knowledge,
            )
            result = fusion.train_classifier(
                train, concept_store, cfg, val_records=val
            )
            labels, preds, scores = fusion.evaluate_records(
                result.net, test, concept_store
            )
            ev = metrics.evaluate(labels, preds, scores)
            f1[use_knowledge] = ev.f1
            acc[use_knowledge] = float(np.mean(labels == preds))

        elapsed = time.perf_counter() - start
        assert acc[True] >= 0.95, acc
        assert f1[True] - f1[False] >= 0.05, f1
        assert elapsed < 180.0, f"took {elapsed:.1f}s"


def test_criterion_07_midpoint_knowledge_increases_congruence():
    """500 random pairs per seed, 10 seeds: knowledge vectors placed at
    each pair's midpoint must yield a strictly positive relative
    similarity change and strictly shrink the centroid distance,
    under 5 seconds."""
    with _criterion(7, "midpoint knowledge always increases congruence"):
        start = time.perf_counter()
        for seed in range(10):
            rng = np.random.default_rng(seed)
            text = rng.normal(size=(500, 32))
            image = rng.normal(size=(500, 32))
            knowledge = [
                (0.5 * (text[i] + image[i]))[None, :] for i in range(500)
            ]
            rep = congruence.report(
                congruence.ModalityPairSet(
                    text_vecs=text, image_vecs=image, knowledge_vecs=knowledge
                )
            )
            assert rep.relative_similarity_change > 0.0, seed
            assert rep.centroid_distance_with < rep.centroid_distance, seed
        assert time.perf_counter() - start < 5.0


def test_criterion_08_metrics_match_oracles():
    """Confusion counts tp=3 fp=1 fn=2 tn=4 give precision 0.75, recall
    0.6, F1 2/3 (rtol 1e-12); the rank-based AUC equals an explicit
    all-pairs count with ties at half weight over 200 random cases."""
    with _criterion(8, "metrics match hand counts and all-pairs AUC"):
        labels = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
        preds = [1, 1, 1, 0, 0, 1, 0, 0, 0, 0]
        r = metrics.classify_metrics(labels, preds)
        assert (r.confusion.tp, r.confusion.fp, r.confusion.fn, r.confusion.tn) \
            == (3, 1, 2, 4)
        assert_allclose(r.precision, 0.75, rtol=1e-12)
        assert_allclose(r.recall, 0.6, rtol=1e-12)
        assert_allclose(r.f1, 2.0 / 3.0, rtol=1e-12)
        assert_allclose(metrics.auc([1, 0, 1], [0.9, 0.8, 0.4]), 0.5, rtol=1e-12)

        rng = np.random.default_rng(808)
        for _ in range(200):
            n = int(rng.integers(4, 50))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            s = np.round(rng.normal(size=n), 1)
            pos, neg = s[y == 1], s[y == 0]
            wins = sum(
                1.0 if p > q else (0.5 if p == q else 0.0)
                for p in pos
                for q in neg
            )
            assert_allclose(
                metrics.auc(y, s), wins / (len(pos) * len(neg)), rtol=1e-12
            )


def test_criterion_09_formats_round_trip_and_fail_typed(tmp_path):
    """Store and checkpoint files: write-read-write is byte-identical;
    50 corrupted variants (truncations, bit flips, appended garbage)
    either load or raise a typed package error, never anything else."""
    with _criterion(9, "binary formats round-trip and fail with typed errors"):
        rng = np.random.default_rng(909)
        store = stores.EmbeddingStore(
            dim=6,
            names=[f"c{i}" for i in range(9)],
            vectors=rng.normal(size=(9, 6)).astype(np.float32),
            kind_tag="concept",
        )
        store_path = tmp_path / "store.emb"
        stores.write_store(store, store_path)
        back = stores.read_store(store_path)
        second = tmp_path / "store2.emb"
        stores.write_store(back, second)
        assert store_path.read_bytes() == second.read_bytes()

        net = fusion.FusionNet(
            fusion.FusionConfig(
                d_model=8, num_heads=2, multimodal_dim=6, knowledge_dim=5, seed=1
            )
        )
        ckpt_path = tmp_path / "net.ckpt"
        fusion.save_checkpoint(net, ckpt_path)
        ckpt2 = tmp_path / "net2.ckpt"
        fusion.save_checkpoint(fusion.load_checkpoint(ckpt_path), ckpt2)
        assert ckpt_path.read_bytes() == ckpt2.read_bytes()
        # keep a sidecar for the fuzzed copy so header edits are cross-checked
        (tmp_path / "fuzz.ckpt.json").write_bytes(
            ckpt_path.with_name("net.ckpt.json").read_bytes()
        )

        for case in range(50):
            target, reader = (
                (store_path, stores.read_store)
                if case % 2 == 0
                else (ckpt_path, fusion.load_checkpoint)
            )
            raw = bytearray(target.read_bytes())
            mode = case % 4
            if mode == 0:
                raw = raw[: int(rng.integers(0, len(raw)))]
            elif mode == 1:
                raw[int(rng.integers(0, len(raw)))] ^= 1 << int(rng.integers(0, 8))
            elif mode == 2:
                raw += bytes(rng.integers(0, 256, size=3, dtype=np.uint8))
            else:
                raw = raw + raw
            fuzzed = tmp_path / ("fuzz.emb" if case % 2 == 0 else "fuzz.ckpt")
            fuzzed.write_bytes(bytes(raw))
            try:
                reader(fuzzed)
            except KnowfuseError:
                pass  # typed failure is the contract


def test_criterion_10_cli_is_byte_deterministic(tmp_path):
    """Each CLI command runs twice into separate directories; every
    produced file must be byte-for-byte identical between runs."""
    with _criterion(10, "every CLI command is byte-for-byte deterministic"):
        triples = write_tsv(pair_bundle_rows(), tmp_path / "toy.tsv")

        def run_all(root: Path) -> None:
            root.mkdir()
            data = root / "synth"
            assert main([
                "synth", "--n", "60", "--dim", "12", "--concept-dim", "8",
                "--n-concepts", "10", "--concepts-per-record", "3",
                "--class-ratio", "0.5", "--seed", "5", "--out", str(data),
            ]) == 0
            assert main([
                "train-kge", "--triples", str(triples), "--dim", "8",
                "--epochs", "15", "--lr", "0.05", "--negatives", "2",
                "--heldout", "6", "--seed", "5", "--out", str(root / "kge"),
            ]) == 0
            assert main([
                "retrieve", "--concepts", str(root / "kge" / "entities.emb"),
                "--queries", str(root / "kge" / "entities.emb"),
                "--k", "3", "--out", str(root / "retrieved"),
            ]) == 0
            assert main([
                "train-fusion", "--records", str(data / "records.jsonl"),
                "--mm-store", str(data / "multimodal.emb"),
                "--concept-store", str(data / "concepts.emb"),
                "--epochs", "2", "--batch-size", "8", "--d-model", "8",
                "--heads", "2", "--lr", "0.001", "--seed", "5",
                "--out", str(root / "fusion"),
            ]) == 0
            assert main([
                "predict", "--checkpoint", str(root / "fusion" / "fusion.ckpt"),
                "--records", str(data / "records.jsonl"),
                "--mm-store", str(data / "multimodal.emb"),
                "--concept-store", str(data / "concepts.emb"),
                "--out", str(root / "predict"),
            ]) == 0
            assert main([
                "congruence", "--text-store", str(data / "multimodal.emb"),
                "--image-store", str(data / "multimodal.emb"),
                "--out", str(root / "congruence"),
            ]) == 0

        run_a, run_b = tmp_path / "a", tmp_path / "b"
        run_all(run_a)
        run_all(run_b)
        files_a = sorted(p.relative_to(run_a) for p in run_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(run_b) for p in run_b.rglob("*") if p.is_file())
        assert files_a == files_b and len(files_a) >= 14
        for rel in files_a:
            assert (run_a / rel).read_bytes() == (run_b / rel).read_bytes(), rel
