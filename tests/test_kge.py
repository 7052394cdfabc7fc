"""Score functions, hand-checked gradients, SGD training, link prediction."""
from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from knowfuse.errors import NonFiniteScoreError
from knowfuse.kg import Triple, holdout_split
from knowfuse.kge import (
    KgeModel,
    KgeTrainConfig,
    _kernel,
    grad,
    init_model,
    link_predict_eval,
    train,
)

SQRT2 = float(np.sqrt(2.0))


def _model(kind: str, entity, relation, norm: str = "l2") -> KgeModel:
    entity = np.asarray(entity, dtype=np.float64)
    relation = np.asarray(relation, dtype=np.float64)
    return KgeModel(
        kind=kind, entity_emb=entity, relation_emb=relation,
        dim=entity.shape[1], norm=norm,
    )


def _random_model(kind: str, norm: str, rng, n_ent: int = 4, n_rel: int = 2,
                  dim: int = 6) -> KgeModel:
    entity = rng.normal(size=(n_ent, dim))
    if kind == "rotate":
        relation = rng.uniform(0.0, 2.0 * np.pi, size=(n_rel, dim // 2))
    else:
        relation = rng.normal(size=(n_rel, dim))
    return _model(kind, entity, relation, norm)


def _scores(model: KgeModel, triples) -> np.ndarray:
    """Kernel scores of (head, relation, tail) id triples, one batch."""
    h, r, t = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    return _kernel(model, h, r, t, grads=False)[0]


def _loss(model: KgeModel, pos, neg, margin: float) -> float:
    """The margin loss of one (positive, negative) pair, a batch of one."""
    return float(grad(model, np.array([pos]), np.array([neg]), margin).losses[0])


def _dense_grads(model: KgeModel, pos, neg, margin: float):
    """The gradient of one pair's margin loss, summed by row into zero
    tables shaped like the model's, and the rows it touches."""
    g = grad(model, np.array([pos]), np.array([neg]), margin)
    ent, rel = np.zeros_like(model.entity_emb), np.zeros_like(model.relation_emb)
    np.add.at(ent, g.entity_rows, g.entity_grads)
    np.add.at(rel, g.relation_rows, g.relation_grads)
    touched = {("e", e) for e in g.entity_rows.tolist()} | {("r", r) for r in g.relation_rows.tolist()}
    return ent, rel, touched


class TestScoreHandValues:
    def test_transe_l2(self):
        m = _model("transe", [[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0]])
        # h + r - t = (1, 1)
        assert_allclose(_scores(m, (0, 0, 1)), [-SQRT2], rtol=1e-12)

    def test_transe_l1(self):
        m = _model("transe", [[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0]], norm="l1")
        assert_allclose(_scores(m, (0, 0, 1)), [-2.0], rtol=1e-12)

    def test_distmult(self):
        m = _model("distmult", [[1.0, 2.0], [5.0, 6.0]], [[3.0, 4.0]])
        # 1*3*5 + 2*4*6
        assert_allclose(_scores(m, (0, 0, 1)), [63.0], rtol=1e-12)

    def test_rotate_quarter_turn(self):
        # one complex component, phase pi/2 turns 1+0i into 0+1i
        m = _model("rotate", [[1.0, 0.0], [0.0, 1.0]], [[np.pi / 2.0]])
        got = _scores(m, [(0, 0, 1), (0, 0, 0)])
        assert_allclose(got[0], 0.0, atol=1e-15)
        assert_allclose(got[1], -SQRT2, rtol=1e-12)

    def test_rotate_l1_is_sum_of_moduli(self):
        # two complex components, zero phases: moduli of h - t are 1 and 2
        entity = [[1.0, 0.0, 0.0, 2.0], [0.0, 0.0, 0.0, 0.0]]
        m = _model("rotate", entity, [[0.0, 0.0]], norm="l1")
        assert_allclose(_scores(m, (0, 0, 1)), [-3.0], rtol=1e-12)
        m2 = _model("rotate", entity, [[0.0, 0.0]], norm="l2")
        assert_allclose(_scores(m2, (0, 0, 1)), [-np.sqrt(5.0)], rtol=1e-12)


class TestScoreIdentities:
    def test_distmult_head_tail_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = _random_model("distmult", "l2", rng)
            h, r, t = rng.integers(0, 4), rng.integers(0, 2), rng.integers(0, 4)
            a, b = _scores(m, [(h, r, t), (t, r, h)])
            # swapping reassociates the elementwise products, so the two
            # sums can differ in the last ulp
            assert_allclose(a, b, rtol=1e-12)

    def test_rotate_zero_phase_matches_translation_free_distance(self):
        rng = np.random.default_rng(1)
        for norm in ("l1", "l2"):
            for _ in range(100):
                entity = rng.normal(size=(3, 8))
                m = _model("rotate", entity, np.zeros((1, 4)), norm=norm)
                d = (entity[0] - entity[1]).reshape(4, 2)
                moduli = np.sqrt(np.sum(d * d, axis=1))
                want = -np.sum(moduli) if norm == "l1" else -np.sqrt(np.sum(d * d))
                assert_allclose(_scores(m, (0, 0, 1)), [want], atol=1e-12)

    def test_transe_zero_iff_exact_translation(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            h = rng.normal(size=4)
            r = rng.normal(size=4)
            m = _model("transe", np.stack([h, h + r]), r[None, :])
            exact, swapped = _scores(m, [(0, 0, 1), (1, 0, 0)])
            assert exact == 0.0
            assert swapped < 0.0


class TestLossMargin:
    def _m(self):
        entity = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        return _model("transe", entity, [[0.0, 0.0]])

    def test_active_hinge_value(self):
        # f(pos) = -1, f(neg) = -sqrt(2)
        m = self._m()
        got = _loss(m, (0, 0, 1), (2, 0, 1), 1.0)
        assert_allclose(got, 2.0 - SQRT2, rtol=1e-12)

    def test_equal_scores_give_exactly_margin(self):
        m = self._m()
        # both distances are 1
        assert _loss(m, (0, 0, 1), (3, 0, 1), 1.0) == 1.0

    def test_clamped_to_zero(self):
        m = self._m()
        # f(pos) = 0, f(neg) = -sqrt(2), hinge is negative
        assert _loss(m, (0, 0, 0), (2, 0, 1), 1.0) == 0.0


class TestGrad:
    def test_transe_hand_gradient(self):
        # pos (h=0, r=0, t=1), neg corrupts the head to entity 2.
        # d_pos = (-1, 0) with unit vector u_p, d_neg = (-1, 1) with u_n.
        # dL/d(pos rows) = -d f_pos, dL/d(neg rows) = +d f_neg, shared tail sums.
        m = _model("transe", [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0]])
        ent, rel, touched = _dense_grads(m, (0, 0, 1), (2, 0, 1), 1.0)
        s = 1.0 / SQRT2
        assert touched == {("e", 0), ("e", 1), ("e", 2), ("r", 0)}
        assert_allclose(ent[0], [-1.0, 0.0], rtol=1e-12)
        assert_allclose(ent[1], [1.0 - s, s], rtol=1e-12)
        assert_allclose(ent[2], [s, -s], rtol=1e-12)
        assert_allclose(rel[0], [s - 1.0, -s], rtol=1e-12)

    def test_inactive_hinge_returns_empty(self):
        m = _model("transe", [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0]])
        # f(pos) = 0 beats f(neg) = -sqrt(2) by more than the margin
        g = grad(m, np.array([(0, 0, 0)]), np.array([(2, 0, 1)]), 1.0)
        assert g.losses.tolist() == [0.0]
        assert g.entity_rows.size == g.entity_grads.size == 0
        assert g.relation_rows.size == g.relation_grads.size == 0


def _fd_grads(model: KgeModel, pos, neg, margin: float, eps: float = 1e-5):
    """Central finite differences of the margin loss over both tables."""
    out = []
    for table in (model.entity_emb, model.relation_emb):
        g = np.zeros_like(table)
        for row in range(table.shape[0]):
            for j in range(table.shape[1]):
                orig = table[row, j]
                table[row, j] = orig + eps
                up = _loss(model, pos, neg, margin)
                table[row, j] = orig - eps
                dn = _loss(model, pos, neg, margin)
                table[row, j] = orig
                g[row, j] = (up - dn) / (2.0 * eps)
        out.append(g)
    return out


def _kink_distance(model: KgeModel, t: Triple) -> float:
    """Smallest absolute difference component, the L1 non-smooth margin."""
    if model.kind == "transe":
        d = model.entity_emb[t.head] + model.relation_emb[t.relation] \
            - model.entity_emb[t.tail]
        return float(np.min(np.abs(d)))
    half = model.dim // 2
    h = model.entity_emb[t.head].reshape(half, 2)
    theta = model.relation_emb[t.relation]
    rot_re = h[:, 0] * np.cos(theta) - h[:, 1] * np.sin(theta)
    rot_im = h[:, 0] * np.sin(theta) + h[:, 1] * np.cos(theta)
    tl = model.entity_emb[t.tail].reshape(half, 2)
    moduli = np.hypot(rot_re - tl[:, 0], rot_im - tl[:, 1])
    return float(np.min(moduli))


class TestGradFiniteDifference:
    CASES = [
        ("transe", "l2"), ("transe", "l1"), ("rotate", "l2"),
        ("rotate", "l1"), ("distmult", "l2"),
    ]

    @pytest.mark.parametrize("kind,norm", CASES)
    def test_matches_central_differences(self, kind, norm):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 20:
            m = _random_model(kind, norm, rng)
            pos = Triple(0, 0, 1)
            neg = Triple(2, 0, 1)
            # need an active hinge; L1 samples must sit away from kinks
            if _loss(m, pos.as_tuple(), neg.as_tuple(), 1.0) < 0.05:
                continue
            if norm == "l1" and kind in ("transe", "rotate"):
                if min(_kink_distance(m, pos), _kink_distance(m, neg)) < 1e-3:
                    continue
            analytic = _dense_grads(m, pos.as_tuple(), neg.as_tuple(), 1.0)[:2]
            fd = _fd_grads(m, pos.as_tuple(), neg.as_tuple(), 1.0)
            # shared rows can cancel to an exact analytic zero (L1 signs),
            # and untouched rows are zero, so compare every row of both tables
            for space, a, f in zip("er", analytic, fd):
                for row in range(len(f)):
                    err = np.abs(a[row] - f[row])
                    tol = 1e-8 + 1e-4 * np.maximum(np.abs(a[row]), np.abs(f[row]))
                    assert np.all(err <= tol), (kind, norm, space, row)
            checked += 1


class TestConfigValidation:
    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            KgeTrainConfig(kind="complex")

    def test_rejects_bad_norm(self):
        with pytest.raises(ValueError, match="norm"):
            KgeTrainConfig(norm="linf")

    def test_rotate_needs_even_dim(self):
        with pytest.raises(ValueError, match="even"):
            KgeTrainConfig(kind="rotate", dim=7)

    def test_rejects_negative_lr(self):
        with pytest.raises(ValueError):
            KgeTrainConfig(learning_rate=-0.1)

    @pytest.mark.parametrize("field", ["learning_rate", "margin"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            KgeTrainConfig(**{field: value})

    def test_zero_learning_rate_and_margin_allowed(self):
        cfg = KgeTrainConfig(learning_rate=0.0, margin=0.0)
        assert cfg.learning_rate == 0.0 and cfg.margin == 0.0

    def test_rejects_zero_negatives(self):
        with pytest.raises(ValueError):
            KgeTrainConfig(negatives_per_positive=0)

    @pytest.mark.parametrize("field", ["dim", "epochs", "negatives_per_positive", "seed"])
    def test_integer_fields_reject_floats_and_bools(self, field):
        whole = float(getattr(KgeTrainConfig(), field))
        for value in (whole, True):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                KgeTrainConfig(**{field: value})


class TestInit:
    def test_transe_bounds(self):
        cfg = KgeTrainConfig(kind="transe", dim=16, seed=5)
        m = init_model(cfg, 30, 4)
        bound = 6.0 / 4.0
        assert m.entity_emb.shape == (30, 16)
        assert m.relation_emb.shape == (4, 16)
        assert np.all(np.abs(m.entity_emb) <= bound)
        assert np.all(np.abs(m.relation_emb) <= bound)

    def test_rotate_phase_range(self):
        cfg = KgeTrainConfig(kind="rotate", dim=16, seed=5)
        m = init_model(cfg, 10, 3)
        assert m.relation_emb.shape == (3, 8)
        assert np.all(m.relation_emb >= 0.0)
        assert np.all(m.relation_emb < 2.0 * np.pi)

    def test_same_seed_same_init(self):
        cfg = KgeTrainConfig(dim=8, seed=11)
        a = init_model(cfg, 5, 2)
        b = init_model(cfg, 5, 2)
        assert np.array_equal(a.entity_emb, b.entity_emb)
        assert np.array_equal(a.relation_emb, b.relation_emb)


class TestTrain:
    def test_deterministic_under_seed(self, toy_graph):
        cfg = KgeTrainConfig(kind="transe", dim=8, epochs=5, seed=3)
        m1, t1 = train(toy_graph, cfg)
        m2, t2 = train(toy_graph, cfg)
        assert np.array_equal(m1.entity_emb, m2.entity_emb)
        assert np.array_equal(m1.relation_emb, m2.relation_emb)
        assert t1 == t2

    def test_zero_lr_distmult_leaves_model_at_init(self, toy_graph):
        cfg = KgeTrainConfig(kind="distmult", dim=8, epochs=3,
                             learning_rate=0.0, seed=4)
        m, _ = train(toy_graph, cfg)
        ref = init_model(cfg, toy_graph.num_entities, toy_graph.num_relations)
        assert np.array_equal(m.entity_emb, ref.entity_emb)
        assert np.array_equal(m.relation_emb, ref.relation_emb)

    def test_zero_lr_transe_only_renormalises(self, toy_graph):
        cfg = KgeTrainConfig(kind="transe", dim=8, epochs=3,
                             learning_rate=0.0, seed=4)
        m, _ = train(toy_graph, cfg)
        ref = init_model(cfg, toy_graph.num_entities, toy_graph.num_relations)
        assert_allclose(np.linalg.norm(m.entity_emb, axis=1), 1.0, rtol=1e-12)
        assert np.array_equal(m.relation_emb, ref.relation_emb)

    def test_trace_length_and_decrease(self, toy_graph):
        cfg = KgeTrainConfig(kind="transe", dim=16, epochs=60, seed=0,
                             learning_rate=0.01, negatives_per_positive=2)
        _, trace = train(toy_graph, cfg)
        assert len(trace) == 60
        assert all(np.isfinite(v) and v >= 0.0 for v in trace)
        # moving mean over 10 epochs: allow tiny SGD jitter, require real
        # progress overall (the first epochs also absorb the renorm shock)
        smooth = np.convolve(trace, np.ones(10) / 10.0, mode="valid")
        steps = np.diff(smooth[5:])
        assert np.all(steps <= 0.01)
        assert smooth[-1] < 0.5 * smooth[0]


def _naive_link_eval(model, kg, heldout, ks):
    """Rank oracle: per-candidate scalar scoring with the same filter; a tie
    with the true entity counts half, its expected share under random
    tie-breaking."""
    known = kg.known_set | {t.as_tuple() for t in heldout}
    ranks = []
    for t in heldout:
        for side in ("tail", "head"):
            true_id = t.tail if side == "tail" else t.head
            true_score = _scores(model, t.as_tuple())[0]
            rank = 1
            for e in range(kg.num_entities):
                if e == true_id:
                    continue
                cand = (
                    Triple(t.head, t.relation, e)
                    if side == "tail"
                    else Triple(e, t.relation, t.tail)
                )
                if cand.as_tuple() in known:
                    continue
                cand_score = _scores(model, cand.as_tuple())[0]
                if cand_score > true_score:
                    rank += 1
                elif cand_score == true_score:
                    rank += 0.5
            ranks.append(rank)
    arr = np.asarray(ranks, dtype=np.float64)
    return arr.mean(), {k: float(np.mean(arr <= k)) for k in ks}, len(ranks)


class TestLinkPrediction:
    KINDS = [("transe", "l2"), ("transe", "l1"), ("rotate", "l2"),
             ("rotate", "l1"), ("distmult", "l2")]

    @pytest.mark.parametrize("kind,norm", KINDS)
    def test_matches_naive_oracle(self, toy_graph, kind, norm):
        train_kg, heldout = holdout_split(toy_graph, 10, seed=5)
        cfg = KgeTrainConfig(kind=kind, dim=8, norm=norm, seed=9)
        model = init_model(cfg, toy_graph.num_entities, toy_graph.num_relations)
        got = link_predict_eval(model, train_kg, heldout, ks=(1, 3, 10))
        want_mean, want_hits, want_n = _naive_link_eval(
            model, train_kg, heldout, (1, 3, 10)
        )
        assert got.num_queries == want_n == 20
        assert_allclose(got.mean_rank, want_mean, rtol=1e-12)
        assert got.hits_at == want_hits

    def test_empty_heldout_rejected(self, toy_graph):
        cfg = KgeTrainConfig(dim=4)
        model = init_model(cfg, toy_graph.num_entities, toy_graph.num_relations)
        with pytest.raises(ValueError, match="empty"):
            link_predict_eval(model, toy_graph, [])

    def test_heldout_ids_out_of_range_name_the_field(self, toy_graph):
        # 20 entities and 2 relations: each field is checked against its table
        model = init_model(KgeTrainConfig(dim=4), 20, 2)
        train_kg, heldout = holdout_split(toy_graph, 10, seed=5)
        for bad, message in ((Triple(20, 0, 1), "head id 20"), (Triple(0, 2, 1), "relation id 2"),
                             (Triple(0, 0, 20), "tail id 20"), (Triple(0, 0, -1), "tail id -1"),
                             (Triple(-3, 0, 1), "head id -3"), (Triple(0, -1, 1), "relation id -1")):
            with pytest.raises(ValueError, match=f"^{message} out of range$"):
                link_predict_eval(model, train_kg, heldout[:3] + [bad] + heldout[3:])

    def test_perfect_model_ranks_first(self, toy_graph):
        # entities placed so each pair collapses to one point and both
        # relations are the zero translation: every true edge has distance 0
        train_kg, heldout = holdout_split(toy_graph, 10, seed=5)
        points = np.zeros((20, 4))
        for i in range(10):
            points[2 * i] = points[2 * i + 1] = [i + 1.0, 0.0, 0.0, 0.0]
        model = KgeModel(
            kind="transe", entity_emb=points,
            relation_emb=np.zeros((2, 4)), dim=4,
        )
        res = link_predict_eval(model, train_kg, heldout)
        assert res.hits_at[1] == 1.0
        assert res.mean_rank == 1.0

    def test_constant_model_ranks_in_the_middle(self, toy_graph):
        # all-zero DistMult scores every candidate 0: each query's rank is 1
        # plus half its filtered candidates, not 1
        train_kg, heldout = holdout_split(toy_graph, 10, seed=5)
        model = _model("distmult", np.zeros((20, 4)), np.zeros((2, 4)))
        res = link_predict_eval(model, train_kg, heldout, ks=(1, 10))
        known = toy_graph.known_set
        want = []
        for t in heldout:
            tails = sum((t.head, t.relation, e) in known for e in range(20))
            heads = sum((e, t.relation, t.tail) in known for e in range(20))
            want += [1.0 + (20 - tails) / 2.0, 1.0 + (20 - heads) / 2.0]
        assert res.mean_rank == pytest.approx(np.mean(want), rel=1e-12)
        assert res.mean_rank > 5.0
        assert res.hits_at == {1: 0.0, 10: float(np.mean(np.asarray(want) <= 10))}
        oracle_mean, oracle_hits, _ = _naive_link_eval(model, train_kg, heldout, (1, 10))
        assert res.mean_rank == pytest.approx(oracle_mean, rel=1e-12)
        assert res.hits_at == oracle_hits

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scores_raise(self, toy_graph, bad):
        train_kg, heldout = holdout_split(toy_graph, 10, seed=5)
        model = _model("distmult", np.full((20, 4), bad), np.ones((2, 4)))
        t = heldout[0]
        label = toy_graph.entity_vocab.label
        with pytest.raises(NonFiniteScoreError, match=f"held-out triple \\({label(t.head)}, "):
            link_predict_eval(model, train_kg, heldout)
