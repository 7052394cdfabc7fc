"""The batched KGE paths against the per-triple oracle in kge_reference:
kernel scores and gradients, GEMM filtered ranking, batched corruption and
the minibatch trainer at batch size 1."""
from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import kge_reference as ref
from knowfuse import kg, kge
from knowfuse.errors import CorruptionError, NonFiniteScoreError, TrainingDivergedError
from knowfuse.kg import HEAD, TAIL, KnowledgeGraph, Triple, corrupt, holdout_split, load_triples
from knowfuse.kge import KgeModel, KgeTrainConfig

from conftest import write_tsv

CASES = [("transe", "l2"), ("transe", "l1"), ("rotate", "l2"), ("rotate", "l1"),
         ("distmult", "l2")]


def _model(kind, norm, rng, n_ent, n_rel, dim) -> KgeModel:
    entity = rng.normal(size=(n_ent, dim))
    if kind == "rotate":
        relation = rng.uniform(0.0, 2.0 * np.pi, size=(n_rel, dim // 2))
    else:
        relation = rng.normal(size=(n_rel, dim))
    return KgeModel(kind=kind, entity_emb=entity, relation_emb=relation, dim=dim, norm=norm)


def _graph(triples, n_ent: int, n_rel: int) -> KnowledgeGraph:
    return KnowledgeGraph(triples=np.array(triples, dtype=np.int64).reshape(-1, 3),
                          entities=[f"e{i}" for i in range(n_ent)],
                          relations=[f"r{i}" for i in range(n_rel)])


@st.composite
def random_graphs(draw, min_triples=2):
    """A graph of up to 12 entities and 3 relations with distinct triples."""
    n_ent = draw(st.integers(2, 12))
    n_rel = draw(st.integers(1, 3))
    cells = st.tuples(st.integers(0, n_ent - 1), st.integers(0, n_rel - 1),
                      st.integers(0, n_ent - 1))
    triples = draw(st.lists(cells, min_size=min_triples, max_size=30, unique=True))
    return _graph(triples, n_ent, n_rel)


class TestKernel:
    @pytest.mark.parametrize("kind,norm", CASES)
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), zero=st.booleans())
    def test_scores_and_gradients_match_oracle(self, kind, norm, seed, zero):
        rng = np.random.default_rng(seed)
        model = _model(kind, norm, rng, n_ent=5, n_rel=2, dim=6)
        ids = rng.integers(0, [5, 2, 5], size=(16, 3))
        if zero:  # a true triple at zero distance, where the subgradient is zero
            ids[0] = (1, 0, 1)
            model.relation_emb[0] = 0.0
        scores, grads = kge._kernel(model, ids[:, 0], ids[:, 1], ids[:, 2])
        for i, t in enumerate(Triple(*map(int, row)) for row in ids):
            assert abs(scores[i] - ref.score(model, t)) <= 1e-12
            for got, want in zip(grads, ref.score_grads(model, t)):
                assert_allclose(got[i], want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind,norm", CASES)
    def test_batched_grad_sums_to_per_pair_grads(self, kind, norm):
        rng = np.random.default_rng(11)
        model = _model(kind, norm, rng, n_ent=6, n_rel=2, dim=6)
        pos = rng.integers(0, [6, 2, 6], size=(40, 3))
        neg = pos.copy()
        neg[:, 2] = rng.integers(0, 6, size=40)
        g = kge.grad(model, pos, neg, 1.0)
        want_e, want_r = np.zeros_like(model.entity_emb), np.zeros_like(model.relation_emb)
        for p, n in zip(pos, neg):
            p, n = Triple(*map(int, p)), Triple(*map(int, n))
            for (space, row), value in ref.grad(model, p, n, 1.0).items():
                (want_e if space == "e" else want_r)[row] += value
        got_e, got_r = np.zeros_like(want_e), np.zeros_like(want_r)
        np.add.at(got_e, g.entity_rows, g.entity_grads)
        np.add.at(got_r, g.relation_rows, g.relation_grads)
        assert_allclose(got_e, want_e, atol=1e-12)
        assert_allclose(got_r, want_r, atol=1e-12)
        want_losses = [ref.loss_margin(model, Triple(*map(int, p)), Triple(*map(int, n)), 1.0)
                       for p, n in zip(pos, neg)]
        assert_allclose(g.losses, want_losses, atol=1e-12)


class TestRanking:
    @pytest.mark.parametrize("kind,norm", CASES)
    @settings(max_examples=30, deadline=None)
    @given(graph=random_graphs(), seed=st.integers(0, 2**32 - 1),
           plant=st.sampled_from(["none", "duplicates", "zero", "constant"]),
           budget=st.sampled_from([8, 200, 1 << 19]))
    def test_matches_per_query_oracle(self, kind, norm, graph, seed, plant, budget):
        rng = np.random.default_rng(seed)
        train_kg, heldout = holdout_split(graph, max(1, len(graph.triples) // 3), seed % 97)
        model = _model(kind, norm, rng, graph.num_entities, graph.num_relations, dim=4)
        if plant == "duplicates":
            model.entity_emb[1::2] = model.entity_emb[0]
        elif plant == "zero":  # every held-out triple's true tail sits at distance 0
            for t in heldout:
                if kind == "distmult":
                    break
                model.relation_emb[t.relation] = 0.0
                model.entity_emb[t.tail] = model.entity_emb[t.head]
        elif plant == "constant":
            model.entity_emb[:] = 0.5
            model.relation_emb[:] = 0.25
        with mock.patch.object(kge, "SCORE_BLOCK_BYTES", budget):  # 1 to 65,536 rows a block
            got = kge.link_predict_eval(model, train_kg, heldout)
        oracles = [ref.link_predict_eval_per_candidate]
        if not (kind == "distmult" and plant == "duplicates"):
            # its matrix-vector product may round identical rows apart
            oracles.append(ref.link_predict_eval)
        for oracle in oracles:
            want = oracle(model, train_kg, heldout, ks=(1, 3, 10))
            assert got.num_queries == want.num_queries
            assert got.mean_rank == want.mean_rank
            assert got.hits_at == want.hits_at

    def test_first_non_finite_query_is_named(self):
        # a's head query and b's tail query overflow, the others stay finite.
        # Queries go triple by triple, tail before head, so a's head query is
        # named when a comes first, although a tail query fails in its block.
        ent = np.ones((6, 2))
        ent[[0, 3]], ent[[1, 2]] = 1e-200, 1e200
        model = KgeModel(kind="distmult", entity_emb=ent,
                         relation_emb=np.full((1, 2), 1e200), dim=2)
        graph = _graph([(4, 0, 5)], 6, 1)
        a, b = Triple(0, 0, 1), Triple(2, 0, 3)
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteScoreError,
                               match=r"head query of held-out triple \(e0, r0, e1\)"):
                kge.link_predict_eval(model, graph, [a, b])
            with pytest.raises(NonFiniteScoreError,
                               match=r"tail query of held-out triple \(e2, r0, e3\)"):
                kge.link_predict_eval(model, graph, [b, a])


class TestBatchedCorrupt:
    @settings(max_examples=60, deadline=None)
    @given(graph=random_graphs(), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_never_returns_original_or_known(self, graph, seed, data):
        ids = graph.triples
        head = np.array(data.draw(st.lists(st.booleans(), min_size=len(ids),
                                           max_size=len(ids))), dtype=bool)
        attempts = data.draw(st.sampled_from([0, 1, 100]))
        rng = np.random.default_rng(seed)
        try:
            with mock.patch.object(kg, "CORRUPT_ATTEMPTS", attempts):
                neg = corrupt(ids, head, rng, graph)
        except CorruptionError:  # a saturated row has no negative at all
            return
        col = np.where(head, 0, 2)
        kept = np.where(head, 2, 0)
        rows = np.arange(len(ids))
        assert (neg[rows, col] != ids[rows, col]).all()
        assert (neg[rows, kept] == ids[rows, kept]).all() and (neg[:, 1] == ids[:, 1]).all()
        assert not graph.is_known(graph.triple_keys(neg)).any()
        assert not any(tuple(row) in graph.known_set for row in neg.tolist())

    @settings(max_examples=60, deadline=None)
    @given(graph=random_graphs(), seed=st.integers(0, 2**32 - 1),
           attempts=st.sampled_from([0, 1, 3, 100]))
    def test_one_row_matches_single_triple_draws(self, graph, seed, attempts):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        with mock.patch.object(kg, "CORRUPT_ATTEMPTS", attempts):
            for ids in graph.triples:
                side = HEAD if a.random() < 0.5 else TAIL
                b.random(1)
                row, head = ids[None], np.array([side == HEAD])
                try:
                    want = ref.corrupt(Triple(*ids.tolist()), side, a, graph, attempts)
                except CorruptionError:
                    with pytest.raises(CorruptionError):
                        corrupt(row, head, b, graph)
                    return
                got = corrupt(row, head, b, graph)
                assert tuple(got[0].tolist()) == want.as_tuple()
        assert a.random() == b.random()

    def test_rejects_bad_side(self, toy_graph):
        for head in (["head"], [0.0], [True, False]):
            with pytest.raises(ValueError, match="head"):
                corrupt(toy_graph.triples[:1], np.array(head), np.random.default_rng(0),
                        toy_graph)

    def test_key_overflow_guarded(self):
        class Huge(list):
            def __len__(self):
                return 2**32

        graph = KnowledgeGraph(triples=np.empty((0, 3), dtype=np.int64), entities=Huge(),
                               relations=Huge())
        with pytest.raises(ValueError, match="overflow"):
            graph.triple_keys([(0, 0, 1)])


class TestMinibatchTrainer:
    @pytest.mark.parametrize("kind,norm", CASES)
    @pytest.mark.parametrize("negatives", [1, 2])
    def test_batch_of_one_is_per_pair_sgd(self, toy_graph, kind, norm, negatives,
                                          monkeypatch):
        cfg = KgeTrainConfig(kind=kind, norm=norm, dim=8, epochs=3, learning_rate=0.05,
                             negatives_per_positive=negatives, seed=3)
        drawn, oracle_drawn, oracle_corrupt = [], [], ref.corrupt

        def recording(triples, head, rng, graph):
            neg = corrupt(triples, head, rng, graph)
            drawn.extend(map(tuple, neg.tolist()))
            return neg

        def oracle_recording(triple, side, rng, graph, max_attempts=100):
            neg = oracle_corrupt(triple, side, rng, graph, max_attempts)
            oracle_drawn.append(neg.as_tuple())
            return neg

        monkeypatch.setattr(kge, "corrupt", recording)
        monkeypatch.setattr(ref, "corrupt", oracle_recording)
        monkeypatch.setattr(kge, "BATCH_SIZE", 1)
        model, trace = kge.train(toy_graph, cfg)
        want, want_trace = ref.train(toy_graph, cfg)
        assert drawn == oracle_drawn and len(drawn) == 3 * negatives * len(toy_graph.triples)
        assert_allclose(model.entity_emb, want.entity_emb, rtol=0, atol=1e-9)
        assert_allclose(model.relation_emb, want.relation_emb, rtol=0, atol=1e-9)
        assert_allclose(trace, want_trace, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 1000])
    def test_trains_toy_graph_at_any_batch_size(self, toy_graph, batch_size):
        cfg = KgeTrainConfig(kind="transe", dim=16, epochs=40, learning_rate=0.01,
                             negatives_per_positive=2, seed=1)
        with mock.patch.object(kge, "BATCH_SIZE", batch_size):
            model, trace = kge.train(toy_graph, cfg)
        assert len(trace) == 40 and trace[-1] < trace[0]
        assert_allclose(np.linalg.norm(model.entity_emb, axis=1), 1.0, rtol=1e-12)

    def test_divergence_raises_at_the_batch(self, toy_graph):
        cfg = KgeTrainConfig(kind="distmult", dim=8, epochs=50, learning_rate=10.0, seed=0)
        with np.errstate(all="ignore"), pytest.raises(
            TrainingDivergedError, match=r"kge distmult: non-finite loss in epoch \d+, batch \d+"
        ):
            kge.train(toy_graph, cfg)


class TestBitIdentity:
    """The lean SGD step and kernel against the two-dimensional scatter and
    the frozen batched trainer, kernel and RotatE ranking in kge_reference:
    equal bits, not only close values."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["transe", "rotate"]), dim=st.sampled_from([2, 6, 32]),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_row_scatter_equals_two_dimensional_subtract_at(self, kind, dim, seed, data):
        # entity rows and, for rotate, relation rows of half the width
        cfg = KgeTrainConfig(kind=kind, dim=dim, seed=seed % 1000)
        model = kge.init_model(cfg, n_entities=5, n_relations=3)
        rng = np.random.default_rng(seed)
        for table in (model.entity_emb, model.relation_emb):
            rows = np.array(data.draw(st.lists(st.integers(0, len(table) - 1), max_size=40)),
                            dtype=np.int64)  # repeats included
            values = rng.normal(size=(len(rows), table.shape[1])) * 10.0 ** rng.integers(-8, 8)
            want = table.copy()
            np.subtract.at(want, rows, values)
            kge._subtract_rows(table, rows, values)  # in place, into the model's own table
            assert np.array_equal(table, want)
        assert model.relation_emb.shape[1] == (dim // 2 if kind == "rotate" else dim)

    @pytest.mark.parametrize("kind,norm", CASES + [("distmult", "l1")])
    @settings(max_examples=40, deadline=None)
    @given(dim=st.sampled_from([2, 8, 96]), rows=st.integers(1, 64),
           n_rel=st.sampled_from([1, 3, 70]), seed=st.integers(0, 2**32 - 1),
           zero=st.booleans())
    def test_kernel_equals_frozen_kernel(self, kind, norm, dim, rows, n_rel, seed, zero):
        # relation tables smaller and larger than the batch
        rng = np.random.default_rng(seed)
        model = _model(kind, norm, rng, n_ent=9, n_rel=n_rel, dim=dim)
        ids = rng.integers(0, [9, n_rel, 9], size=(rows, 3))
        if zero:  # a zero-distance row, where the subgradient is zero
            ids[0] = (2, 0, 2)
            model.relation_emb[0] = 0.0
        scores, grads = kge._kernel(model, ids[:, 0], ids[:, 1], ids[:, 2])
        want, want_grads = ref._batched_kernel(model, ids[:, 0], ids[:, 1], ids[:, 2])
        assert np.array_equal(scores, want)
        assert np.array_equal(kge._kernel(model, *ids.T, grads=False)[0], want)
        assert len(grads) == 3
        for got, expected in zip(grads, want_grads):
            assert got.shape == expected.shape and np.array_equal(got, expected)

    @pytest.mark.parametrize("norm", ["l2", "l1"])
    @pytest.mark.parametrize("side", [TAIL, HEAD])
    @settings(max_examples=25, deadline=None)
    @given(dim=st.sampled_from([2, 8, 96]), queries=st.integers(1, 12),
           n_rel=st.sampled_from([1, 3, 70]), seed=st.integers(0, 2**32 - 1))
    def test_rotate_query_scores_equal_frozen_ranking(self, norm, side, dim, queries, n_rel,
                                                      seed):
        rng = np.random.default_rng(seed)
        model = _model("rotate", norm, rng, n_ent=9, n_rel=n_rel, dim=dim)
        ids = rng.integers(0, [9, n_rel, 9], size=(queries, 3))
        table = model.entity_emb
        sq_norms = (table * table).sum(axis=1)
        got = kge._query_scores(model, ids, side, table, sq_norms)
        want = ref.rotate_query_scores(model, ids, side, table, sq_norms)
        assert got.shape == (queries, 9) and np.array_equal(got, want)

    @pytest.mark.parametrize("kind,norm", CASES + [("distmult", "l1")])
    @pytest.mark.parametrize("negatives", [1, 2])
    @pytest.mark.parametrize("graph", ["toy", "hub"])
    def test_train_equals_frozen_batched_trainer(self, toy_graph, tmp_path, monkeypatch,
                                                 kind, norm, negatives, graph):
        if graph == "hub":  # test_dense_hub_trains's graph; three rounds often fail on it
            rows = [("hub", "r", f"t{i}") for i in range(200)]
            rows += [(f"o{i}", "s", f"o{i + 1}") for i in range(9)] + [("o0", "s", "hub")]
            toy_graph = load_triples(write_tsv(rows, tmp_path / "hub.tsv"))
            monkeypatch.setattr(kg, "CORRUPT_ATTEMPTS", 3)
        cfg = KgeTrainConfig(kind=kind, norm=norm, dim=8, epochs=4, learning_rate=0.05,
                             negatives_per_positive=negatives, seed=5)
        model, trace = kge.train(toy_graph, cfg)
        want, want_trace = ref.batched_train(toy_graph, cfg, kge.BATCH_SIZE)
        assert np.array_equal(model.entity_emb, want.entity_emb)
        assert np.array_equal(model.relation_emb, want.relation_emb)
        assert np.array_equal(trace, want_trace)
