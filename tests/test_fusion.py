"""Cross-attention fusion network: forward oracle, gradients, training."""
from __future__ import annotations

import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from knowfuse import fusion
from knowfuse.errors import (
    BadMagicError,
    NonFiniteError,
    StoreFormatError,
    TrainingDivergedError,
    TruncatedStoreError,
)
from knowfuse.fusion import (
    FusionConfig,
    FusionNet,
    backward,
    cross_entropy,
    evaluate_records,
    forward,
    load_checkpoint,
    predict,
    save_checkpoint,
    train_classifier,
    warmup_lr,
)
from knowfuse.stores import (
    CampaignRecord,
    EmbeddingStore,
    SynthConfig,
    read_store,
    synth_dataset,
    write_store,
)

import fusion_reference as ref

TINY = FusionConfig(d_model=8, num_heads=2, multimodal_dim=6, knowledge_dim=5,
                    seed=0)


def _record_inputs(rng, cfg: FusionConfig, n_k: int = 3):
    mm = rng.normal(size=cfg.multimodal_dim)
    kg = rng.normal(size=(n_k, cfg.knowledge_dim))
    return mm, kg


def _forward_one(net, mm, kg):
    """The shipped batched forward at B=1: logits [2] and the trace."""
    logits, trace = forward(net, mm[None], kg[None])
    return logits[0], trace


class TestConfigValidation:
    @pytest.mark.parametrize("field", ["learning_rate", "warmup_fraction"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            FusionConfig(**{field: value})

    def test_rejects_negative_learning_rate(self):
        with pytest.raises(ValueError, match="learning_rate"):
            FusionConfig(learning_rate=-1e-5)

    @pytest.mark.parametrize("field", [
        "d_model", "num_heads", "multimodal_dim", "knowledge_dim", "batch_size",
        "epochs", "early_stop_patience", "seed",
    ])
    def test_integer_fields_reject_floats_and_bools(self, field):
        whole = float(getattr(FusionConfig(), field))
        for value in (whole, True):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                FusionConfig(**{field: value})


class TestAttentionOp:
    """The reference attention op that the forward oracle test builds on."""

    def test_two_key_hand_case(self):
        # scores (1/sqrt(2), 0); closed-form softmax weight for the first
        # key is 1/(1 + exp(-1/sqrt(2))) = 0.6697615493266569
        query = np.array([1.0, 0.0])
        keys = np.array([[1.0, 0.0], [0.0, 1.0]])
        values = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = ref.attention(query, keys, values)
        w1 = 1.0 / (1.0 + np.exp(-1.0 / np.sqrt(2.0)))
        assert_allclose(out[0], [w1, 1.0 - w1], rtol=1e-12)
        assert_allclose(out[0], [0.6697615493266569, 0.3302384506733431],
                        rtol=1e-12)

    def test_uniform_when_scores_tie(self):
        query = np.zeros(4)
        keys = np.random.default_rng(0).normal(size=(5, 4))
        values = np.eye(5, 4)
        out = ref.attention(query, keys, values)
        assert_allclose(out[0], values.mean(axis=0), rtol=1e-12)

    def test_single_key_passes_value_through(self):
        rng = np.random.default_rng(1)
        value = rng.normal(size=(1, 6))
        out = ref.attention(rng.normal(size=6), rng.normal(size=(1, 6)), value)
        assert_allclose(out[0], value[0], rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one key"):
            ref.attention(np.ones(3), np.empty((0, 3)), np.empty((0, 3)))
        with pytest.raises(ValueError, match="dim"):
            ref.attention(np.ones(3), np.ones((2, 4)), np.ones((2, 4)))
        with pytest.raises(ValueError, match="values"):
            ref.attention(np.ones(3), np.ones((2, 3)), np.ones((3, 3)))


class TestCrossEntropy:
    def test_even_logits(self):
        assert_allclose(cross_entropy(np.zeros((2, 2)), np.array([0, 1])),
                        [np.log(2.0), np.log(2.0)], rtol=1e-12)

    def test_confident_wrong_is_costly(self):
        losses = cross_entropy(np.array([[10.0, -10.0]] * 2), np.array([1, 0]))
        assert losses[0] > 19.0
        assert losses[1] < 1e-8

    def test_overflow_safe(self):
        val = cross_entropy(np.array([[1000.0, 0.0]]), np.array([0]))
        assert np.isfinite(val).all() and val[0] >= 0.0

    def test_matches_single_record_reference(self):
        rng = np.random.default_rng(16)
        logits = rng.normal(scale=5.0, size=(9, 2))
        labels = rng.integers(0, 2, size=9)
        want = [ref.cross_entropy(z, int(y)) for z, y in zip(logits, labels)]
        assert_allclose(cross_entropy(logits, labels), want, rtol=1e-12)


class TestForward:
    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(2)
        net = FusionNet(TINY, rng=np.random.default_rng(3))
        mm, kg = _record_inputs(rng, TINY, n_k=4)
        logits, _ = _forward_one(net, mm, kg)

        # per-head recomputation with the reference attention op
        q0 = mm @ net.proj_mm_w + net.proj_mm_b
        kv0 = kg @ net.proj_kg_w + net.proj_kg_b
        heads = [
            ref.attention(q0 @ net.attn_q[i], kv0 @ net.attn_k[i],
                          kv0 @ net.attn_v[i])[0]
            for i in range(TINY.num_heads)
        ]
        fused = np.concatenate(heads) @ net.attn_out
        want = (fused + q0) @ net.cls_w + net.cls_b
        assert_allclose(logits, want, rtol=1e-10)

    def test_zero_parameters_give_even_odds(self):
        net = FusionNet(TINY)
        for name in net.PARAM_NAMES:
            getattr(net, name)[...] = 0.0
        rng = np.random.default_rng(4)
        mm, kg = _record_inputs(rng, TINY)
        logits, _ = _forward_one(net, mm, kg)
        assert_allclose(logits, [0.0, 0.0], atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        net = FusionNet(TINY, rng=rng)
        for n_k in (1, 2, 7):
            mm, kg = _record_inputs(rng, TINY, n_k=n_k)
            _, trace = _forward_one(net, mm, kg)
            assert trace.attn.shape == (1, TINY.num_heads, n_k)
            assert_allclose(trace.attn.sum(axis=-1), 1.0, atol=1e-6)
            assert np.all(trace.attn >= 0.0)

    def test_key_value_permutation_invariance(self):
        rng = np.random.default_rng(6)
        net = FusionNet(TINY, rng=rng)
        mm, kg = _record_inputs(rng, TINY, n_k=5)
        base, _ = _forward_one(net, mm, kg)
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(5)
            shuffled, _ = _forward_one(net, mm, kg[perm])
            assert_allclose(shuffled, base, atol=1e-6)

    def test_ablation_ignores_knowledge(self):
        cfg = FusionConfig(d_model=8, num_heads=2, multimodal_dim=6,
                           knowledge_dim=5, use_knowledge=False, seed=1)
        net = FusionNet(cfg)
        rng = np.random.default_rng(7)
        mm, kg = _record_inputs(rng, cfg)
        with_kg, trace = _forward_one(net, mm, kg)
        without, _ = forward(net, mm[None], None)
        assert np.array_equal(with_kg, without[0])
        assert trace.kv0 is None and trace.attn is None

    def test_input_validation(self):
        net = FusionNet(TINY)
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError, match="multimodal"):
            forward(net, np.ones((1, 4)), rng.normal(size=(1, 2, 5)))
        with pytest.raises(ValueError, match="multimodal"):
            forward(net, np.ones(6), rng.normal(size=(1, 2, 5)))
        with pytest.raises(ValueError, match="knowledge"):
            forward(net, np.ones((1, 6)), rng.normal(size=(1, 2, 9)))
        with pytest.raises(ValueError, match="knowledge"):
            forward(net, np.ones((1, 6)), np.empty((1, 0, 5)))
        with pytest.raises(ValueError, match="knowledge"):
            forward(net, np.ones((2, 6)), rng.normal(size=(1, 2, 5)))
        with pytest.raises(ValueError, match="knowledge"):
            forward(net, np.ones((1, 6)), None)


def _flat_param_fd(net, name, mm, kg, labels, eps=1e-4):
    """Central differences of the batch-mean loss over one parameter tensor."""

    def loss():
        return float(np.mean(cross_entropy(forward(net, mm, kg)[0], labels)))

    param = getattr(net, name)
    g = np.zeros_like(param)
    it = np.nditer(param, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = param[idx]
        param[idx] = orig + eps
        up = loss()
        param[idx] = orig - eps
        dn = loss()
        param[idx] = orig
        g[idx] = (up - dn) / (2.0 * eps)
        it.iternext()
    return g


def _within(analytic, fd):
    err = np.abs(analytic - fd)
    return np.all(err <= 1e-8 + 1e-3 * np.maximum(np.abs(analytic), np.abs(fd)))


class TestBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        net = FusionNet(TINY, rng=np.random.default_rng(10))
        mm = rng.normal(size=(3, TINY.multimodal_dim))
        kg = rng.normal(size=(3, 3, TINY.knowledge_dim))
        labels = np.array([1, 0, 1])
        _, trace = forward(net, mm, kg)
        grads, _ = backward(net, trace, labels)
        for name in net.PARAM_NAMES:
            assert _within(grads[name], _flat_param_fd(net, name, mm, kg, labels)), name

    def test_input_gradients_match_fd(self):
        rng = np.random.default_rng(11)
        net = FusionNet(TINY, rng=np.random.default_rng(12))
        mm, kg = _record_inputs(rng, TINY, n_k=2)
        eps = 1e-4

        def fd_of(arr, loss):
            fd = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                up = loss()
                arr[idx] = orig - eps
                dn = loss()
                arr[idx] = orig
                fd[idx] = (up - dn) / (2.0 * eps)
                it.iternext()
            return fd

        # The shipped backward returns d kg, which concept tuning consumes.
        _, trace = _forward_one(net, mm, kg)
        _, d_kg = backward(net, trace, np.array([0]))
        fd = fd_of(kg, lambda: cross_entropy(_forward_one(net, mm, kg)[0][None],
                                             np.array([0]))[0])
        assert _within(d_kg[0], fd)

        # The reference also derives both input gradients.
        _, trace = ref.forward(net, mm, kg)
        grads = ref.backward(net, trace, 0)
        for arr, key in ((mm, "mm_vec"), (kg, "kg_vecs")):
            fd = fd_of(arr, lambda: ref.cross_entropy(ref.forward(net, mm, kg)[0], 0))
            assert _within(grads[key], fd), key

    def test_ablation_leaves_attention_untouched(self):
        cfg = FusionConfig(d_model=8, num_heads=2, multimodal_dim=6,
                           knowledge_dim=5, use_knowledge=False, seed=2)
        net = FusionNet(cfg)
        mm = np.random.default_rng(13).normal(size=(1, 6))
        _, trace = forward(net, mm, None)
        grads, d_kg = backward(net, trace, np.array([1]))
        for name in ("attn_q", "attn_k", "attn_v", "attn_out", "proj_kg_w"):
            assert not np.any(grads[name])
        assert np.any(grads["proj_mm_w"])
        assert d_kg.shape == (1, 0, cfg.knowledge_dim)


class TestBatchedPath:
    def test_matches_single_record_forward_and_backward(self):
        rng = np.random.default_rng(14)
        net = FusionNet(TINY, rng=np.random.default_rng(15))
        batch = 6
        n_k = 4
        mm = rng.normal(size=(batch, TINY.multimodal_dim))
        kg = rng.normal(size=(batch, n_k, TINY.knowledge_dim))
        labels = np.array([0, 1, 1, 0, 1, 0])

        logits_b, trace_b = forward(net, mm, kg)
        grads_b, d_kg = backward(net, trace_b, labels)

        single_grads = []
        for i in range(batch):
            logits_i, trace_i = ref.forward(net, mm[i], kg[i])
            assert_allclose(logits_b[i], logits_i, rtol=1e-10, atol=1e-12)
            assert_allclose(trace_b.attn[i], trace_i.attn, rtol=1e-10, atol=1e-12)
            single_grads.append(ref.backward(net, trace_i, int(labels[i])))
        for name in net.PARAM_NAMES:
            mean = np.mean([g[name] for g in single_grads], axis=0)
            assert_allclose(grads_b[name], mean, rtol=1e-9, atol=1e-12)
        want_kg = np.stack([g["kg_vecs"] for g in single_grads]) / batch
        assert_allclose(d_kg, want_kg, rtol=1e-9, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 6), n_k=st.integers(1, 6),
           heads=st.sampled_from([1, 2, 4]), large_kg_bias=st.booleans())
    @example(seed=3, batch=6, n_k=6, heads=4, large_kg_bias=True)
    def test_training_step_matches_reference(self, seed, batch, n_k, heads, large_kg_bias):
        """forward and backward of a training step, which attend over the
        projected rows with each head's key map on the query side, against
        the per-record oracle, which builds every key and value."""
        rng = np.random.default_rng(seed)
        cfg = FusionConfig(d_model=8, num_heads=heads, multimodal_dim=6, knowledge_dim=5,
                           seed=seed % 1000)
        net = FusionNet(cfg)
        if large_kg_bias:
            net.proj_kg_b[...] = rng.uniform(50.0, 100.0, size=cfg.d_model)
        mm = rng.normal(size=(batch, cfg.multimodal_dim))
        kg = rng.normal(size=(batch, n_k, cfg.knowledge_dim))
        labels = rng.integers(0, 2, size=batch)

        logits, trace = forward(net, mm, kg)
        grads, d_kg = backward(net, trace, labels)
        single = []
        for i in range(batch):
            logits_i, trace_i = ref.forward(net, mm[i], kg[i])
            assert_allclose(logits[i], logits_i, rtol=1e-10, atol=1e-12)
            assert_allclose(trace.attn[i], trace_i.attn, rtol=1e-10, atol=1e-12)
            single.append(ref.backward(net, trace_i, int(labels[i])))
        for name in net.PARAM_NAMES:
            mean = np.mean([g[name] for g in single], axis=0)
            assert_allclose(grads[name], mean, rtol=1e-9, atol=1e-12, err_msg=name)
        want_kg = np.stack([g["kg_vecs"] for g in single]) / batch
        assert_allclose(d_kg, want_kg, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("use_knowledge", [True, False])
    def test_parameter_gradients_do_not_depend_on_kg_grad(self, use_knowledge):
        cfg = FusionConfig(d_model=8, num_heads=2, multimodal_dim=6, knowledge_dim=5,
                           use_knowledge=use_knowledge, seed=23)
        net = FusionNet(cfg)
        rng = np.random.default_rng(24)
        net.proj_kg_b[...] = rng.normal(size=cfg.d_model)
        _, trace = forward(net, rng.normal(size=(4, 6)), rng.normal(size=(4, 3, 5)))
        labels = np.array([0, 1, 1, 0])
        with_kg, d_kg = backward(net, trace, labels)
        without, none = backward(net, trace, labels, kg_grad=False)
        assert np.array_equal(with_kg["flat"], without["flat"])
        assert none is None and d_kg.shape == ((4, 3, 5) if use_knowledge else (4, 0, 5))


class TestWarmupSchedule:
    def test_hand_values(self):
        assert_allclose(warmup_lr(1, 100, 10, 2.0), 0.2, rtol=1e-12)
        assert_allclose(warmup_lr(10, 100, 10, 2.0), 2.0, rtol=1e-12)
        assert_allclose(warmup_lr(55, 100, 10, 2.0), 1.0, rtol=1e-12)
        assert_allclose(warmup_lr(100, 100, 10, 2.0), 0.0, atol=1e-15)

    def test_peak_at_end_of_warmup(self):
        values = [warmup_lr(s, 50, 5, 1.0) for s in range(1, 51)]
        assert np.argmax(values) == 4
        assert values[4] == 1.0

    def test_step_bounds(self):
        with pytest.raises(ValueError):
            warmup_lr(0, 10, 2, 1.0)
        with pytest.raises(ValueError):
            warmup_lr(11, 10, 2, 1.0)


def _small_dataset(n=80, seed=6):
    cfg = SynthConfig(n=n, dim=12, concept_dim=8, seed=seed, class_ratio=0.5,
                      n_concepts=10, concepts_per_record=3)
    return synth_dataset(cfg)


def _small_fusion_cfg(**overrides):
    base = dict(d_model=8, num_heads=2, multimodal_dim=12, knowledge_dim=8,
                learning_rate=1e-3, batch_size=8, epochs=3, seed=0)
    base.update(overrides)
    return FusionConfig(**base)


def _dense_concept_training(records, store, cfg):
    """train_classifier's steps with a concept Adam step over the whole
    concept matrix, as it once ran: the concept matrix after each epoch.
    Validation draws no random numbers, so it is left out."""
    rng = np.random.default_rng(cfg.seed)
    net = FusionNet(cfg, rng=rng)
    concepts = store.vectors.astype(np.float64)
    ks = np.array([len(r.concept_ids) for r in records])
    total = cfg.epochs * len(fusion._batch_plan(ks, np.arange(len(records)), cfg.batch_size))
    warmup = int(round(cfg.warmup_fraction * total))
    adam, concept_adam = fusion._Adam(net.flat), fusion._Adam(concepts)
    grad_flat = np.zeros_like(net.flat)
    step, per_epoch = 0, []
    for _ in range(cfg.epochs):
        for idx in fusion._batch_plan(ks, rng.permutation(len(records)), cfg.batch_size):
            step += 1
            lr = warmup_lr(step, total, warmup, cfg.learning_rate)
            x, ids, labels = fusion._gather(records, idx)
            _, trace = forward(net, x, concepts[ids])
            _, d_kg = backward(net, trace, labels, out=grad_flat)
            adam.step(grad_flat, lr)
            gc = np.zeros_like(concepts)
            np.add.at(gc, ids, d_kg)
            concept_adam.step(gc, lr)
        per_epoch.append(concepts.copy())
    return per_epoch


def _dict_batch_plan(ks, order, batch_size):
    """_batch_plan as it ran with a dict of groups: the reference."""
    groups: dict[int, list[int]] = {}
    for i in order:
        groups.setdefault(int(ks[i]), []).append(int(i))
    return [np.asarray(groups[k][start : start + batch_size])
            for k in sorted(groups) for start in range(0, len(groups[k]), batch_size)]


class TestBatchPlan:
    @settings(max_examples=200, deadline=None)
    @given(ks=st.lists(st.integers(1, 12), max_size=80), batch_size=st.integers(1, 90),
           seed=st.integers(0, 2**32 - 1))
    @example(ks=[], batch_size=1, seed=0)
    @example(ks=[5] * 7, batch_size=7, seed=1)
    def test_matches_dict_grouping(self, ks, batch_size, seed):
        ks = np.array(ks, dtype=np.int64)
        order = np.random.default_rng(seed).permutation(len(ks))
        got = fusion._batch_plan(ks, order, batch_size)
        want = _dict_batch_plan(ks, order, batch_size)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tolist() == w.tolist()


class TestTrainClassifier:
    def test_deterministic(self):
        records, store = _small_dataset()
        cfg = _small_fusion_cfg()
        r1 = train_classifier(records, store, cfg)
        r2 = train_classifier(records, store, cfg)
        assert r1.history == r2.history
        for name in r1.net.PARAM_NAMES:
            assert np.array_equal(getattr(r1.net, name), getattr(r2.net, name))

    def test_history_shape(self):
        records, store = _small_dataset()
        res = train_classifier(records, store, _small_fusion_cfg(epochs=4))
        assert 1 <= len(res.history) <= 4
        for row in res.history:
            assert set(row) == {"epoch", "lr", "train_loss", "train_acc", "val_acc"}
            assert np.isfinite(row["train_loss"])
        assert [row["epoch"] for row in res.history] == list(
            range(1, len(res.history) + 1)
        )

    def test_best_snapshot_restored(self):
        records, store = _small_dataset(n=120)
        cfg = _small_fusion_cfg(epochs=6, early_stop_patience=2)
        res = train_classifier(records, store, cfg)
        n_val = max(1, int(round(len(records) * 15000.0 / 60810.0)))
        val = records[len(records) - n_val:]
        labels, preds_, _ = evaluate_records(res.net, val, store)
        best = max(row["val_acc"] for row in res.history)
        assert_allclose(np.mean(labels == preds_), best, rtol=1e-12)

    def test_explicit_validation_set(self):
        records, store = _small_dataset(n=100)
        res = train_classifier(records[:80], store, _small_fusion_cfg(),
                               val_records=records[80:])
        assert len(res.history) >= 1

    def test_overflowing_learning_rate_raises_at_the_batch(self):
        records, store = _small_dataset()
        cfg = _small_fusion_cfg(learning_rate=1e300)
        with np.errstate(all="ignore"), pytest.raises(
            TrainingDivergedError, match=r"fusion: non-finite loss in epoch 1, batch \d+"
        ):
            train_classifier(records, store, cfg)

    def test_single_class_rejected(self):
        records, store = _small_dataset()
        ones = [r for r in records if r.label == 1]
        with pytest.raises(ValueError, match="both"):
            train_classifier(ones, store, _small_fusion_cfg())

    def test_bad_concept_id_rejected(self):
        records, store = _small_dataset()
        records[0].concept_ids[0] = 999
        with pytest.raises(ValueError, match="concept"):
            train_classifier(records, store, _small_fusion_cfg())

    def test_trained_concepts_returned_and_changed(self):
        records, store = _small_dataset()
        cfg = _small_fusion_cfg(train_concepts=True)
        res = train_classifier(records, store, cfg)
        assert res.concepts is not store
        assert res.concepts.names == store.names
        assert res.concepts.vectors.shape == (store.n, store.dim)
        assert not np.array_equal(res.concepts.vectors, store.vectors)

    def test_adam_blocks_leave_the_result_unchanged(self, monkeypatch):
        records, store = _small_dataset()
        cfg = _small_fusion_cfg(train_concepts=True)
        whole = train_classifier(records, store, cfg)
        monkeypatch.setattr(fusion, "ADAM_BLOCK", 7)
        blocked = train_classifier(records, store, cfg)
        assert blocked.history == whole.history
        assert np.array_equal(blocked.net.flat, whole.net.flat)
        assert np.array_equal(blocked.concepts.vectors, whole.concepts.vectors)

    def test_concept_step_matches_a_whole_matrix_step(self):
        records, store = _small_dataset(n=100)
        train, val = records[:80], records[80:]
        for r in train:  # concepts 8 and 9 appear only in validation records
            r.concept_ids = [c % 8 for c in r.concept_ids]
        for i, r in enumerate(val):
            r.concept_ids[0] = 8 + i % 2
        cfg = _small_fusion_cfg(train_concepts=True, epochs=4, early_stop_patience=4)
        res = train_classifier(train, store, cfg, val_records=val)
        val_accs = [row["val_acc"] for row in res.history]
        per_epoch = _dense_concept_training(train, store, cfg)
        want = per_epoch[val_accs.index(max(val_accs))].astype(np.float32)
        assert np.array_equal(res.concepts.vectors, want)
        assert np.array_equal(res.concepts.vectors[8:], store.vectors[8:])
        assert not np.array_equal(res.concepts.vectors[:8], store.vectors[:8])

    def test_concept_snapshot_from_an_early_best_epoch(self):
        records, store = _small_dataset(n=100, seed=7)
        train, val = records[:80], records[80:]
        for r in train:  # concepts 8 and 9 appear only in validation records
            r.concept_ids = [c % 8 for c in r.concept_ids]
        for i, r in enumerate(val):
            r.concept_ids[0] = 8 + i % 2
        cfg = _small_fusion_cfg(train_concepts=True, epochs=5, early_stop_patience=5)
        res = train_classifier(train, store, cfg, val_records=val)
        val_accs = [row["val_acc"] for row in res.history]
        best = val_accs.index(max(val_accs))
        assert best < len(res.history) - 1  # the case this test is for
        per_epoch = _dense_concept_training(train, store, cfg)
        assert not np.array_equal(per_epoch[best], per_epoch[-1])
        assert np.array_equal(res.concepts.vectors, per_epoch[best].astype(np.float32))
        assert np.array_equal(res.concepts.vectors[8:], store.vectors[8:])

    def test_tuning_holds_no_float64_copy_of_the_store(self):
        # A ConceptNet-sized store: tuning keeps only the rows records use in
        # float64, so the peak stays below one float64 copy of the store
        # (39 MiB); the returned float32 copy is half of that.
        n, dim = 20_000, 256
        rng = np.random.default_rng(0)
        store = EmbeddingStore(dim=dim, names=[f"c{i}" for i in range(n)],
                               vectors=rng.standard_normal((n, dim), dtype=np.float32))
        records = [CampaignRecord(id=f"r{i}", multimodal_vec=rng.standard_normal(8),
                                  concept_ids=rng.integers(0, n, 4).tolist(), label=i % 2)
                   for i in range(48)]
        cfg = _small_fusion_cfg(multimodal_dim=8, knowledge_dim=dim, train_concepts=True,
                                epochs=2)
        tracemalloc.start()
        try:
            res = train_classifier(records[:36], store, cfg, val_records=records[36:])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(res.history) == 2
        assert peak < 8 * n * dim

    @pytest.mark.parametrize("train_concepts", [False, True])
    @pytest.mark.parametrize("epochs", [0, 4])
    def test_evaluation_is_the_restored_epochs(self, train_concepts, epochs):
        records, store = _small_dataset(n=100)
        train, val = records[:80], records[80:]
        cfg = _small_fusion_cfg(train_concepts=train_concepts, epochs=epochs,
                                early_stop_patience=1)
        res = train_classifier(train, store, cfg, val_records=val)
        labels, preds, _ = evaluate_records(res.net, val, res.concepts)
        if res.history:
            assert np.mean(labels == preds) == max(row["val_acc"] for row in res.history)
        else:  # no epoch ran: the initial draw, rounded like a trained state
            assert np.array_equal(res.net.flat, FusionNet(cfg).flat.astype(np.float32))
            assert np.array_equal(res.concepts.vectors, store.vectors)

    def test_ablation_copies_no_concepts(self):
        # The ablation net reads no concept row, so training it with
        # train_concepts tunes none and needs no float64 copy of the store.
        records, store = _small_dataset()
        res = train_classifier(records, store,
                               _small_fusion_cfg(train_concepts=True, use_knowledge=False))
        assert res.concepts is store

    def test_untrained_concepts_not_returned(self):
        records, store = _small_dataset()
        res = train_classifier(records, store, _small_fusion_cfg())
        assert res.concepts is store

    def test_empty_validation_list_rejected(self):
        # An empty list once trained on: every val_acc was nan, no epoch was
        # ever best, and the untrained initial weights came back.
        records, store = _small_dataset()
        with pytest.raises(ValueError, match="no validation records"):
            train_classifier(records, store, _small_fusion_cfg(), val_records=[])

    @pytest.mark.parametrize("overrides", [{}, {"train_concepts": True},
                                           {"train_concepts": True, "use_knowledge": False}])
    def test_returned_model_is_the_saved_model(self, tmp_path, overrides):
        records, store = _small_dataset()
        res = train_classifier(records, store, _small_fusion_cfg(**overrides))
        save_checkpoint(res.net, tmp_path / "fusion.ckpt")
        assert np.array_equal(load_checkpoint(tmp_path / "fusion.ckpt").flat, res.net.flat)
        write_store(res.concepts, tmp_path / "concepts.emb")
        assert np.array_equal(read_store(tmp_path / "concepts.emb").vectors, res.concepts.vectors)


class TestPredict:
    def test_zero_net_ties_to_label_zero(self):
        records, store = _small_dataset(n=20)
        net = FusionNet(_small_fusion_cfg())
        for name in net.PARAM_NAMES:
            getattr(net, name)[...] = 0.0
        label, (p0, p1) = predict(net, records[0], store)
        assert label == 0
        assert_allclose((p0, p1), (0.5, 0.5), atol=1e-12)

    def test_probabilities_sum_to_one(self):
        records, store = _small_dataset(n=20)
        net = FusionNet(_small_fusion_cfg(seed=3))
        for r in records:
            label, (p0, p1) = predict(net, r, store)
            assert_allclose(p0 + p1, 1.0, rtol=1e-12)
            assert label == int(p1 > p0)


    def test_matches_batched_evaluation(self):
        records, store = _small_dataset(n=20)
        for use_knowledge in (True, False):
            net = FusionNet(_small_fusion_cfg(seed=4, use_knowledge=use_knowledge))
            _, preds, p1 = evaluate_records(net, records, store)
            for r, want_label, want_p1 in zip(records, preds, p1):
                label, (_, got_p1) = predict(net, r, store)
                assert label == want_label
                assert abs(got_p1 - want_p1) <= 1e-12


def _shared_concept_records(rng, cfg, n_concepts, ks):
    """Records with the given n_k over a small concept store, so ids repeat
    across records; the first record repeats one id n_k times."""
    store = EmbeddingStore(dim=cfg.knowledge_dim, names=[f"c{i}" for i in range(n_concepts)],
                           vectors=rng.normal(size=(n_concepts, cfg.knowledge_dim)).astype(np.float32))
    records = [
        CampaignRecord(id=f"r{i}", multimodal_vec=rng.normal(size=cfg.multimodal_dim),
                       concept_ids=[0] * k if i == 0 else rng.integers(0, n_concepts, k).tolist(),
                       label=int(rng.integers(0, 2)))
        for i, k in enumerate(ks)
    ]
    return records, store


class TestEvaluationPath:
    """evaluate_records attends over the raw concept rows with the knowledge
    projection folded into the key and value maps; it must score every
    record as the per-record oracle does."""

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_concepts=st.integers(1, 6),
           shared_k=st.integers(1, 6), extra=st.lists(st.integers(1, 6), max_size=40),
           use_knowledge=st.booleans(), large_kg_bias=st.booleans())
    @example(seed=5, n_concepts=4, shared_k=3, extra=[1, 6], use_knowledge=True,
             large_kg_bias=True)
    def test_matches_reference_record_by_record(self, seed, n_concepts, shared_k, extra,
                                                use_knowledge, large_kg_bias):
        rng = np.random.default_rng(seed)
        cfg = FusionConfig(d_model=8, num_heads=2, multimodal_dim=6, knowledge_dim=5,
                           use_knowledge=use_knowledge, seed=seed % 1000)
        # 513 records share one n_k, so that group spans two batches.
        records, store = _shared_concept_records(rng, cfg, n_concepts, [shared_k] * 513 + extra)
        rng.shuffle(records)
        net = FusionNet(cfg)
        if large_kg_bias:
            # Evaluation drops the score term q_h . (proj_kg_b attn_k[h]), the
            # same for every concept of a record; make it dominate the scores.
            net.proj_kg_b[...] = rng.uniform(50.0, 100.0, size=cfg.d_model)
        labels, preds, p1 = evaluate_records(net, records, store)
        assert labels.tolist() == [r.label for r in records]
        bias_keys = np.stack([net.proj_kg_b @ w for w in net.attn_k])  # [H, dh]
        dropped, kept = [], []
        for r, pred, got in zip(records, preds, p1):
            logits, trace = ref.forward(net, r.multimodal_vec, store.vectors[r.concept_ids])
            want = fusion._softmax(logits)
            assert abs(got - want[1]) <= 1e-12, r.id
            assert pred == int(want[1] > want[0]), r.id
            if use_knowledge and large_kg_bias:
                const = np.sum(trace.q * bias_keys, axis=1)  # [H]
                scores = (trace.k @ trace.q[..., None])[..., 0]  # [H, n_k]
                dropped.append(np.abs(const))
                kept.append(np.abs(scores - const[:, None]).max(axis=1))
        if dropped:
            assert np.median(dropped) > 10 * np.median(kept)

    @pytest.mark.parametrize("use_knowledge", [True, False])
    def test_never_projects_and_folds_once_per_call(self, monkeypatch, use_knowledge):
        rng = np.random.default_rng(21)
        cfg = FusionConfig(d_model=8, num_heads=2, multimodal_dim=6, knowledge_dim=5,
                           use_knowledge=use_knowledge, seed=22)
        # Batches: the ten n_k = 2 records, then 512 and 88 n_k = 3 records.
        records, store = _shared_concept_records(rng, cfg, 7, [3] * 600 + [2] * 10)
        forwards, folds = [], []
        fwd, fold = fusion.forward, fusion._fold_knowledge
        monkeypatch.setattr(fusion, "forward",
                            lambda net, x, kg: forwards.append(x) or fwd(net, x, kg))
        monkeypatch.setattr(fusion, "_fold_knowledge",
                            lambda net: folds.append(net) or fold(net))
        net = FusionNet(cfg)
        evaluate_records(net, records, store)
        evaluate_records(net, records[:5], store)
        assert forwards == []
        assert folds == ([net, net] if use_knowledge else [])
        predict(net, records[0], store)  # the wrapper sees the calls that are made
        assert len(forwards) == 1 and folds == ([net, net] if use_knowledge else [])

    def test_record_without_concepts_is_named(self):
        records, store = _small_dataset(n=20)
        records[3].concept_ids = []
        net = FusionNet(_small_fusion_cfg(seed=4))
        msg = f"record {records[3].id}: no concepts, but the net attends over knowledge"
        for call in (lambda: evaluate_records(net, records, store),
                     lambda: predict(net, records[3], store),
                     lambda: train_classifier(records, store, _small_fusion_cfg())):
            with pytest.raises(ValueError, match=msg):
                call()
        ablation = FusionNet(_small_fusion_cfg(seed=4, use_knowledge=False))
        _, _, p1 = evaluate_records(ablation, records, store)
        assert abs(predict(ablation, records[3], store)[1][1] - p1[3]) <= 1e-12

    def test_concept_store_of_another_dim_is_named(self):
        records, store = _small_dataset(n=20)  # 8-d concepts
        wide = EmbeddingStore(dim=16, names=store.names, vectors=np.tile(store.vectors, 2))
        net = FusionNet(_small_fusion_cfg(seed=4))
        msg = "concept store dim 16 != the net's knowledge_dim 8"
        for call in (lambda: evaluate_records(net, records, wide),
                     lambda: predict(net, records[3], wide),
                     lambda: train_classifier(records, wide, _small_fusion_cfg())):
            with pytest.raises(ValueError, match=msg):
                call()
        # The ablation net reads no concept row.
        ablation = FusionNet(_small_fusion_cfg(seed=4, use_knowledge=False))
        for got, want in zip(evaluate_records(ablation, records, wide),
                             evaluate_records(ablation, records, store)):
            assert np.array_equal(got, want)


class TestCheckpoint:
    def test_round_trip_is_f32_cast(self, tmp_path):
        net = FusionNet(_small_fusion_cfg(seed=5))
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        back = load_checkpoint(path)
        assert back.cfg == net.cfg
        for name in net.PARAM_NAMES:
            want = getattr(net, name).astype(np.float32).astype(np.float64)
            assert np.array_equal(getattr(back, name), want)

    def test_second_round_trip_byte_identical(self, tmp_path):
        net = FusionNet(_small_fusion_cfg(seed=5))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(net, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_draws_no_random_init(self, tmp_path, monkeypatch):
        net = FusionNet(_small_fusion_cfg(seed=5))
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)

        def no_draws(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a random initialisation")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        back = load_checkpoint(path)
        assert np.array_equal(back.flat, net.flat.astype(np.float32).astype(np.float64))
        assert back.attn_q.base is not None and np.shares_memory(back.attn_q, back.flat)

    def test_loads_without_sidecar(self, tmp_path):
        net = FusionNet(_small_fusion_cfg(seed=5))
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        path.with_name("net.ckpt.json").unlink()
        back = load_checkpoint(path)
        assert back.cfg.d_model == net.cfg.d_model
        assert back.cfg.use_knowledge == net.cfg.use_knowledge

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "net.ckpt"
        save_checkpoint(FusionNet(_small_fusion_cfg()), path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "net.ckpt"
        save_checkpoint(FusionNet(_small_fusion_cfg()), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(TruncatedStoreError):
            load_checkpoint(path)

    def test_shorter_than_magic_is_truncated(self, tmp_path):
        path = tmp_path / "net.ckpt"
        path.write_bytes(b"FUSNET")
        with pytest.raises(TruncatedStoreError):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "net.ckpt"
        save_checkpoint(FusionNet(_small_fusion_cfg()), path)
        path.write_bytes(path.read_bytes() + b"\x01\x02")
        with pytest.raises(StoreFormatError, match="trailing"):
            load_checkpoint(path)

    def test_sidecar_header_disagreement(self, tmp_path):
        net = FusionNet(_small_fusion_cfg())
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        sidecar = path.with_name("net.ckpt.json")
        text = sidecar.read_text().replace('"d_model": 8', '"d_model": 16')
        sidecar.write_text(text)
        with pytest.raises(StoreFormatError, match="disagrees"):
            load_checkpoint(path)

    def test_non_finite_payload(self, tmp_path):
        net = FusionNet(_small_fusion_cfg())
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        raw = bytearray(path.read_bytes())
        raw[-4:] = struct.pack("<f", np.nan)
        path.write_bytes(bytes(raw))
        with pytest.raises(NonFiniteError):
            load_checkpoint(path)

    def test_header_sized_before_allocation(self, tmp_path):
        # A header-only file claiming d_model 4096 would need about 570 MB
        # of float64 parameters; the length check must come first.
        path = tmp_path / "net.ckpt"
        path.write_bytes(b"FUSNET01" + struct.pack("<5I", 4096, 4, 768, 256, 1))
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedStoreError):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_float_in_sidecar_is_a_format_error(self, tmp_path):
        path = tmp_path / "net.ckpt"
        save_checkpoint(FusionNet(_small_fusion_cfg()), path)
        sidecar = path.with_name("net.ckpt.json")
        cfg = json.loads(sidecar.read_text())
        cfg["num_heads"] = 2.0
        sidecar.write_text(json.dumps(cfg))
        with pytest.raises(StoreFormatError, match="num_heads must be an integer"):
            load_checkpoint(path)


def _old_order_checkpoint(net: FusionNet) -> bytes:
    """FUSNET01 as written per tensor: the projections, then q[i], k[i],
    v[i] for each head, then attn_out, cls_w and cls_b, each float32."""
    cfg = net.cfg
    tensors = [net.proj_mm_w, net.proj_mm_b, net.proj_kg_w, net.proj_kg_b]
    for i in range(cfg.num_heads):
        tensors += [net.attn_q[i], net.attn_k[i], net.attn_v[i]]
    tensors += [net.attn_out, net.cls_w, net.cls_b]
    header = struct.pack("<IIIII", cfg.d_model, cfg.num_heads, cfg.multimodal_dim,
                         cfg.knowledge_dim, int(cfg.use_knowledge))
    return b"FUSNET01" + header + b"".join(
        np.ascontiguousarray(t, dtype="<f4").tobytes() for t in tensors
    )


class TestFlatLayout:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_checkpoint_bytes_follow_the_per_head_order(self, tmp_path, heads):
        net = FusionNet(_small_fusion_cfg(num_heads=heads, seed=heads))
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        assert path.read_bytes() == _old_order_checkpoint(net)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_old_order_checkpoint_loads(self, tmp_path, heads):
        net = FusionNet(_small_fusion_cfg(num_heads=heads, seed=heads))
        path = tmp_path / "net.ckpt"
        path.write_bytes(_old_order_checkpoint(net))
        back = load_checkpoint(path)
        for name in net.PARAM_NAMES:
            want = getattr(net, name).astype(np.float32).astype(np.float64)
            assert np.array_equal(getattr(back, name), want), name

    def test_parameters_are_views_of_flat(self):
        net = FusionNet(_small_fusion_cfg())
        assert sum(getattr(net, name).size for name in net.PARAM_NAMES) == net.flat.size
        for name in net.PARAM_NAMES:
            assert np.shares_memory(getattr(net, name), net.flat), name
        before = net.flat.copy()
        net.attn_k[1][2, 3] = 7.5
        changed = np.flatnonzero(net.flat != before)
        assert changed.size == 1 and net.flat[changed[0]] == 7.5
        net.flat[...] = 0.0
        assert not net.attn_k.any()

    def test_gradients_share_one_flat_vector(self):
        rng = np.random.default_rng(17)
        net = FusionNet(TINY, rng=np.random.default_rng(18))
        mm = rng.normal(size=(2, TINY.multimodal_dim))
        kg = rng.normal(size=(2, 3, TINY.knowledge_dim))
        _, trace = forward(net, mm, kg)
        grads, _ = backward(net, trace, np.array([0, 1]))
        assert grads["flat"].shape == net.flat.shape
        for name in net.PARAM_NAMES:
            assert grads[name].shape == getattr(net, name).shape
            assert np.shares_memory(grads[name], grads["flat"]), name
        assert np.sum(grads["flat"] ** 2) == pytest.approx(
            sum(np.sum(grads[name] ** 2) for name in net.PARAM_NAMES), rel=1e-12
        )

    @pytest.mark.parametrize("use_knowledge", [True, False])
    def test_backward_into_a_reused_vector(self, use_knowledge):
        cfg = FusionConfig(d_model=8, num_heads=2, multimodal_dim=6, knowledge_dim=5,
                           use_knowledge=use_knowledge, seed=19)
        net = FusionNet(cfg)
        rng = np.random.default_rng(20)
        out = np.zeros_like(net.flat)
        for _ in range(3):
            mm = rng.normal(size=(2, cfg.multimodal_dim))
            kg = rng.normal(size=(2, 3, cfg.knowledge_dim))
            labels = rng.integers(0, 2, size=2)
            _, trace = forward(net, mm, kg)
            fresh, d_fresh = backward(net, trace, labels)
            reused, d_reused = backward(net, trace, labels, out=out)
            assert reused["flat"] is out
            assert np.array_equal(out, fresh["flat"])
            assert np.array_equal(d_reused, d_fresh)
            net.flat += 0.01 * out
