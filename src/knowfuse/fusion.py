"""Cross-attention fusion of a multimodal vector with knowledge vectors.

One record is classified by projecting its multimodal embedding to d_model
(the attention query) and its retrieved knowledge vectors to d_model (keys
and values), running multi-head scaled dot-product attention

    head_i = softmax(q W_i^Q (K W_i^K)^T / sqrt(d_h)) (K W_i^V)
    fused  = concat(head_1, ..., head_H) W^O

adding the projected multimodal vector back as a residual, and scoring two
logits. Training minimises cross-entropy with adaptive-moment updates whose
learning rate ramps linearly from zero over the first warmup fraction of
planned steps and then decays linearly back to zero.

forward runs a batch of records that share n_k and builds no per-row keys or
values. It projects the knowledge rows once, kv0 = C W^KG + b^KG, moves each
head's key map to the query side, r_i = W_i^K (q W_i^Q)^T, so the scores are
kv0 r_i, and applies the value map after the mix, a (kv0 W_i^V) = (a kv0) W_i^V.
backward uses the same factoring, and b^KG stays inside kv0, whose gradient
gives proj_kg_b's. Training steps, with backward, and single-record predict
call forward. Evaluation (evaluate_records) also folds W^KG into both maps
once per call and attends over the raw concept rows C:
r_i = W^KG W_i^K (q W_i^Q)^T, and the key bias adds the same term
(b^KG W_i^K) . (q W_i^Q) to every score of a record, so the softmax cancels
it; the attention weights sum to 1, so the value bias b^KG W_i^V is added
once after the mix. Both run one attention core with their own rows and maps,
and agree up to rounding. All are explicit numpy matrix products in float64;
backward is hand derived and is checked against central finite differences
and a per-record derivation in the test suite.
The ablation flag use_knowledge=False skips attention entirely and classifies
the projected multimodal vector alone.
train_classifier ends on its best epoch rounded to float32, so the net and
concept store it returns are the model that is saved, scored and predicted with.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import metrics
from .errors import NonFiniteError, StoreFormatError, TrainingDivergedError, check_fields
from .stores import BinaryReader, CampaignRecord, EmbeddingStore, write_json

CHECKPOINT_MAGIC = b"FUSNET01"

# Records per split of the default pipeline. Given no validation records,
# train_classifier gives validation the same share of its pool.
DEFAULT_SPLIT_SHAPE = {"train": 45810, "val": 15000, "test": 15000}
DEFAULT_VAL_SHARE = DEFAULT_SPLIT_SHAPE["val"] / (
    DEFAULT_SPLIT_SHAPE["train"] + DEFAULT_SPLIT_SHAPE["val"]
)


@dataclass
class FusionConfig:
    d_model: int = field(default=256, metadata={"min": 1})
    num_heads: int = field(default=4, metadata={"min": 1})
    multimodal_dim: int = field(default=768, metadata={"min": 1})
    knowledge_dim: int = field(default=256, metadata={"min": 1})
    learning_rate: float = field(default=5e-5, metadata={"min": 0})
    warmup_fraction: float = field(default=0.1, metadata={"min": 0, "max": 1})
    batch_size: int = field(default=16, metadata={"min": 1})
    epochs: int = field(default=50, metadata={"min": 0})
    early_stop_patience: int = field(default=5, metadata={"min": 1})
    seed: int = 0
    use_knowledge: bool = True
    train_concepts: bool = False

    def __post_init__(self) -> None:
        check_fields(self)
        if self.d_model % self.num_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} must divide evenly into "
                f"{self.num_heads} heads"
            )

    @property
    def head_dim(self) -> int:
        return self.d_model // self.num_heads


def _layout(cfg: FusionConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Parameter shapes in the order they sit in FusionNet.flat and in the
    FUSNET01 payload. Q, K and V share one [h, 3, d, dh] block, interleaved
    by head."""
    d, h, dh = cfg.d_model, cfg.num_heads, cfg.head_dim
    return [
        ("proj_mm_w", (cfg.multimodal_dim, d)),
        ("proj_mm_b", (d,)),
        ("proj_kg_w", (cfg.knowledge_dim, d)),
        ("proj_kg_b", (d,)),
        ("attn_qkv", (h, 3, d, dh)),
        ("attn_out", (d, d)),
        ("cls_w", (d, 2)),
        ("cls_b", (2,)),
    ]


def _n_params(cfg: FusionConfig) -> int:
    return sum(math.prod(shape) for _, shape in _layout(cfg))


def _views(flat: np.ndarray, cfg: FusionConfig) -> dict[str, np.ndarray]:
    """flat under "flat", plus a view into it under each of FusionNet.PARAM_NAMES."""
    views = {"flat": flat}
    pos = 0
    for name, shape in _layout(cfg):
        size = math.prod(shape)
        views[name] = flat[pos : pos + size].reshape(shape)
        pos += size
    views["attn_q"], views["attn_k"], views["attn_v"] = views.pop("attn_qkv").swapaxes(0, 1)
    return views


class FusionNet:
    """Parameters, each a view into one float64 vector `flat` laid out by
    _layout. Weight matrices are drawn in PARAM_NAMES order, uniform in
    +-1/sqrt(fan_in) with fan_in their second-to-last axis; biases are zero."""

    PARAM_NAMES = (
        "proj_mm_w",
        "proj_mm_b",
        "proj_kg_w",
        "proj_kg_b",
        "attn_q",
        "attn_k",
        "attn_v",
        "attn_out",
        "cls_w",
        "cls_b",
    )

    def __init__(self, cfg: FusionConfig, rng: np.random.Generator | None = None):
        self.cfg = cfg
        if rng is None:
            rng = np.random.default_rng(cfg.seed)
        vars(self).update(_views(np.zeros(_n_params(cfg)), cfg))
        for name in self.PARAM_NAMES:
            param = getattr(self, name)
            if param.ndim > 1:
                bound = 1.0 / np.sqrt(param.shape[-2])
                param[...] = rng.uniform(-bound, bound, size=param.shape)

    @classmethod
    def from_flat(cls, cfg: FusionConfig, flat: np.ndarray) -> FusionNet:
        """A net whose parameters are views into `flat`, with no random draw."""
        net = cls.__new__(cls)
        net.cfg = cfg
        vars(net).update(_views(flat, cfg))
        return net


@dataclass
class ForwardTrace:
    """Everything backward() needs, cached from one forward pass over a batch."""

    x: np.ndarray  # [B, multimodal_dim]
    q0: np.ndarray  # [B, d]
    cls_in: np.ndarray
    logits: np.ndarray
    kg: np.ndarray | None = None  # [B, n_k, knowledge_dim]
    kv0: np.ndarray | None = None  # [B, n_k, d], the projected knowledge rows
    q: np.ndarray | None = None  # [H, B, dh]
    r: np.ndarray | None = None  # [B, H, d], each head's query in row space, attn_k[h] q_h
    attn: np.ndarray | None = None  # [B, H, n_k], rows sum to 1
    mix: np.ndarray | None = None  # [B, H, d], the rows mixed by attn, before attn_v
    concat: np.ndarray | None = None


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-record -log softmax(logits)[label] for logits [B, 2], computed stably."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    return lse - shifted[np.arange(len(labels)), labels]


def _multimodal_batch(cfg: FusionConfig, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cfg.multimodal_dim:
        raise ValueError(f"multimodal batch must be [B, {cfg.multimodal_dim}], got {x.shape}")
    return x


def _attend(
    net: FusionNet, x: np.ndarray, rows: np.ndarray | None, key_map: np.ndarray | None = None,
    value_map: np.ndarray | None = None, value_bias: np.ndarray | None = None, **fields,
) -> ForwardTrace:
    """The one attention core: x [B, multimodal_dim] is projected to q0, whose
    heads q_h = q0 attn_q[h] attend over rows [B, n_k, n] with each head's key
    map [H, dh, n] on the query side and its value map [H, n, dh] after the mix:

        r_h = q_h key_map[h],  a_h = softmax(rows r_h / sqrt(dh)),
        head_h = (a_h rows) value_map[h] (+ value_bias, [d]).

    forward passes the projected rows with attn_k and attn_v, evaluation the
    raw concept rows with the maps of _fold_knowledge. With rows None the
    ablation net classifies q0 alone. `fields` fill the rest of the trace."""
    cfg = net.cfg
    q0 = x @ net.proj_mm_w + net.proj_mm_b  # [B, d]
    if rows is None:
        return ForwardTrace(x=x, q0=q0, cls_in=q0, logits=q0 @ net.cls_w + net.cls_b, **fields)
    q = q0 @ net.attn_q  # [H, B, dh]
    r = (q @ key_map).transpose(1, 0, 2)  # [B, H, n]
    attn = _softmax(r @ rows.transpose(0, 2, 1) / np.sqrt(cfg.head_dim), axis=-1)  # [B, H, n_k]
    mix = attn @ rows  # [B, H, n]
    concat = (mix.transpose(1, 0, 2) @ value_map).transpose(1, 0, 2).reshape(len(x), cfg.d_model)
    if value_bias is not None:
        concat += value_bias
    cls_in = concat @ net.attn_out + q0
    return ForwardTrace(x=x, q0=q0, cls_in=cls_in, logits=cls_in @ net.cls_w + net.cls_b,
                        q=q, r=r, attn=attn, mix=mix, concat=concat, **fields)


def forward(
    net: FusionNet, x: np.ndarray, kg: np.ndarray | None
) -> tuple[np.ndarray, ForwardTrace]:
    """Logits [B, 2] for a batch plus the cached trace: the knowledge rows are
    projected once, kv0 = kg proj_kg_w + proj_kg_b, and the projected
    multimodal rows attend over them with attn_k and attn_v (_attend).

    x is [B, multimodal_dim]. kg is [B, n_k, knowledge_dim] with n_k >= 1
    when the net uses knowledge; it is ignored (and may be None) for the
    ablation net.
    """
    cfg = net.cfg
    x = _multimodal_batch(cfg, x)  # before the kg check, which reads its batch size
    if not cfg.use_knowledge:
        trace = _attend(net, x, None)
        return trace.logits, trace

    kg = np.asarray(kg, dtype=np.float64)
    batch = x.shape[0]
    if kg.ndim != 3 or kg.shape[0] != batch or kg.shape[1] < 1 or kg.shape[2] != cfg.knowledge_dim:
        raise ValueError(f"knowledge batch must be [{batch}, n_k >= 1, {cfg.knowledge_dim}], "
                         f"got {kg.shape}")
    kv0 = kg.reshape(-1, cfg.knowledge_dim) @ net.proj_kg_w + net.proj_kg_b
    kv0 = kv0.reshape(batch, -1, cfg.d_model)
    trace = _attend(net, x, kv0, net.attn_k.transpose(0, 2, 1), net.attn_v, kg=kg, kv0=kv0)
    return trace.logits, trace


def backward(
    net: FusionNet, trace: ForwardTrace, labels: np.ndarray, out: np.ndarray | None = None,
    kg_grad: bool = True,
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """Gradients of the batch-mean cross-entropy, plus d kg [B, n_k, kg_dim]
    (None when kg_grad is False; the parameter gradients do not change).

    The gradients are views by parameter name into one vector laid out like
    net.flat, which is itself under "flat": `out` when given, else a new
    zeroed one. The ablation path leaves the attention and knowledge
    projection gradients untouched, so they stay zero in a zeroed `out` that
    only this net's gradients have been written to, and returns an empty d kg.
    """
    cfg = net.cfg
    batch = trace.x.shape[0]
    g = _views(np.zeros_like(net.flat) if out is None else out, cfg)

    dz = _softmax(trace.logits, axis=-1)
    dz[np.arange(batch), labels] -= 1.0
    dz /= batch

    g["cls_w"][...] = trace.cls_in.T @ dz
    g["cls_b"][...] = dz.sum(axis=0)
    d_cls_in = dz @ net.cls_w.T

    if trace.kv0 is None:
        d_q0 = d_cls_in
        d_kg = np.zeros((batch, 0, cfg.knowledge_dim)) if kg_grad else None
    else:
        kv0 = trace.kv0  # [B, n_k, d]
        g["attn_out"][...] = trace.concat.T @ d_cls_in
        d_head = (d_cls_in @ net.attn_out.T).reshape(batch, cfg.num_heads, -1).transpose(1, 0, 2)
        g["attn_v"][...] = trace.mix.transpose(1, 2, 0) @ d_head  # [H, d, B] @ [H, B, dh]
        w = (d_head @ net.attn_v.transpose(0, 2, 1)).transpose(1, 0, 2)  # [B, H, d]

        # Softmax backward: d_scores = A * (dA - sum(A * dA)) per row.
        d_attn = w @ kv0.transpose(0, 2, 1)
        inner = np.sum(trace.attn * d_attn, axis=-1, keepdims=True)
        d_scores = trace.attn * (d_attn - inner) / np.sqrt(cfg.head_dim)
        d_r = (d_scores @ kv0).transpose(1, 0, 2)  # [H, B, d]
        g["attn_k"][...] = d_r.transpose(0, 2, 1) @ trace.q
        d_q = d_r @ net.attn_k  # [H, B, dh]
        g["attn_q"][...] = trace.q0.T @ d_q
        d_q0 = d_cls_in + (d_q @ net.attn_q.transpose(0, 2, 1)).sum(axis=0)

        d_kv0 = trace.attn.transpose(0, 2, 1) @ w + d_scores.transpose(0, 2, 1) @ trace.r
        d_kv0 = d_kv0.reshape(-1, cfg.d_model)  # [B * n_k, d]
        g["proj_kg_w"][...] = trace.kg.reshape(len(d_kv0), -1).T @ d_kv0
        g["proj_kg_b"][...] = d_kv0.sum(axis=0)
        d_kg = (d_kv0 @ net.proj_kg_w.T).reshape(trace.kg.shape) if kg_grad else None

    g["proj_mm_w"][...] = trace.x.T @ d_q0
    g["proj_mm_b"][...] = d_q0.sum(axis=0)
    return g, d_kg


def warmup_lr(step: int, total_steps: int, warmup_steps: int, base_lr: float) -> float:
    """Linear ramp from 0 over warmup_steps, then linear decay to 0."""
    if step < 1 or step > total_steps:
        raise ValueError(f"step {step} outside [1, {total_steps}]")
    if warmup_steps > 0 and step <= warmup_steps:
        return base_lr * step / warmup_steps
    return base_lr * (total_steps - step) / (total_steps - warmup_steps)


# Adam steps blocks of this many leading-axis entries to keep temporaries in cache.
ADAM_BLOCK = 1 << 15


class _Adam:
    """Adaptive moments without bias correction, updating one parameter
    array in place; warmup covers the early low-magnitude steps."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, param: np.ndarray):
        self.param = param
        self.m = np.zeros_like(param)
        self.v = np.zeros_like(param)

    def step(self, grad_: np.ndarray, lr: float) -> None:
        for start in range(0, len(grad_), ADAM_BLOCK):
            block = slice(start, start + ADAM_BLOCK)
            m, v, g = self.m[block], self.v[block], grad_[block]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            self.param[block] -= lr * m / (np.sqrt(v) + self.eps)


@dataclass
class TrainResult:
    """The net restored to its best epoch and rounded to the float32 values a
    checkpoint keeps, one history row per epoch, and the store to evaluate it
    with: the input store, or for a knowledge net trained with train_concepts
    a copy made once training ends, whose training rows hold the tuned values."""

    net: FusionNet
    history: list[dict]
    concepts: EmbeddingStore


def _gather(records: list[CampaignRecord], idx: np.ndarray, slot: np.ndarray | None = None):
    """Stack one equal-n_k batch: inputs, concept id matrix, labels. With
    slot, each concept id becomes slot[id], its row in the training state."""
    x = np.stack([records[i].multimodal_vec for i in idx]).astype(np.float64)
    ids = np.array([records[i].concept_ids for i in idx], dtype=np.int64)
    ids = ids if slot is None else slot[ids]
    labels = np.array([records[i].label for i in idx], dtype=np.int64)
    return x, ids, labels


def _batch_plan(ks: np.ndarray, order: np.ndarray, batch_size: int) -> list[np.ndarray]:
    """Chunk a shuffled index order into batches of records sharing n_k:
    groups by ascending n_k, each in the given order, cut every batch_size rows."""
    order = order[np.argsort(ks[order], kind="stable")]
    k = ks[order]
    # k is sorted, so searchsorted(k, k) is each row's group start.
    starts = np.flatnonzero((np.arange(len(k)) - np.searchsorted(k, k)) % batch_size == 0)
    return np.split(order, starts[1:]) if len(order) else []


def _fold_knowledge(net: FusionNet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The knowledge projection folded into each head's key and value maps,
    laid out for _attend: proj_kg_w attn_k[h] as [H, dh, knowledge_dim],
    proj_kg_w attn_v[h] as [H, knowledge_dim, dh], and the value bias
    proj_kg_b attn_v[h], heads side by side in one [d] vector."""
    return ((net.proj_kg_w @ net.attn_k).transpose(0, 2, 1), net.proj_kg_w @ net.attn_v,
            (net.proj_kg_b @ net.attn_v).reshape(net.cfg.d_model))


def _eval_logits(
    net: FusionNet, folded: tuple[np.ndarray, ...], x: np.ndarray,
    ids: np.ndarray, concepts: np.ndarray,
) -> np.ndarray:
    """Logits [B, 2] of one equal-n_k batch, attending over the raw concept
    rows with the maps of _fold_knowledge (empty for the ablation net). The
    batch's temporaries die when the call returns, before the next batch."""
    x = _multimodal_batch(net.cfg, x)
    if not folded:
        return _attend(net, x, None).logits
    c = np.empty(ids.shape + (net.cfg.knowledge_dim,))
    for j in range(ids.shape[1]):  # float64 rows without a float32 copy of the whole batch
        c[:, j] = concepts[ids[:, j]]
    return _attend(net, x, c, *folded).logits


def _eval_net(net: FusionNet, records: list[CampaignRecord], concepts: np.ndarray,
              slot: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(labels, predicted labels, positive-class probabilities), batched, with
    ids mapped as _gather maps them. Knowledge maps fold once per call."""
    folded = _fold_knowledge(net) if net.cfg.use_knowledge else ()
    ks = np.array([len(r.concept_ids) for r in records])
    labels = np.array([r.label for r in records], dtype=np.int64)
    preds = np.empty(len(records), dtype=np.int64)
    p1 = np.empty(len(records), dtype=np.float64)
    for idx in _batch_plan(ks, np.arange(len(records)), 512):
        x, ids, _ = _gather(records, idx, slot)
        probs = _softmax(_eval_logits(net, folded, x, ids, concepts), axis=-1)
        # Equal logits resolve to label 0.
        preds[idx] = (probs[:, 1] > probs[:, 0]).astype(np.int64)
        p1[idx] = probs[:, 1]
    return labels, preds, p1


def _resolve_ids(records: list[CampaignRecord], store: EmbeddingStore, cfg: FusionConfig) -> None:
    if cfg.use_knowledge and store.dim != cfg.knowledge_dim:
        raise ValueError(f"concept store dim {store.dim} != the net's knowledge_dim {cfg.knowledge_dim}")
    for r in records:
        if cfg.use_knowledge and not r.concept_ids:
            raise ValueError(f"record {r.id}: no concepts, but the net attends over knowledge")
        for c in r.concept_ids:
            if not 0 <= c < store.n:
                raise ValueError(f"record {r.id}: concept id {c} outside store of {store.n}")


def train_classifier(
    records: list[CampaignRecord],
    concept_store: EmbeddingStore,
    cfg: FusionConfig,
    val_records: list[CampaignRecord] | None = None,
) -> TrainResult:
    """Train the fusion classifier with early stopping on validation accuracy.

    When val_records is None a validation share is carved off records with
    the config seed. Training stops once validation accuracy has not
    improved for early_stop_patience consecutive epochs, and the parameters
    from the best epoch are restored and rounded to float32. History rows
    carry epoch, final learning rate, mean train loss, and the train and
    validation accuracy of the float64 training state, which with
    train_concepts holds only the concept rows the records use.
    """
    if not records:
        raise ValueError("no training records")
    if val_records is not None and not val_records:
        raise ValueError("no validation records")
    rng = np.random.default_rng(cfg.seed)
    net = FusionNet(cfg, rng=rng)

    if val_records is None:
        order = rng.permutation(len(records))
        n_val = max(1, int(round(len(records) * DEFAULT_VAL_SHARE)))
        if n_val >= len(records):
            raise ValueError("too few records to split off validation")
        val_records = [records[i] for i in order[:n_val]]
        records = [records[i] for i in order[n_val:]]

    if {r.label for r in records} != {0, 1}:
        raise ValueError("training records must include both labels")

    # The ablation net reads no concept row, so it tunes none.
    tuned = cfg.train_concepts and cfg.use_knowledge
    _resolve_ids(records, concept_store, cfg)
    _resolve_ids(val_records, concept_store, cfg)

    ks = np.array([len(r.concept_ids) for r in records])
    n_batches = len(_batch_plan(ks, np.arange(len(records)), cfg.batch_size))
    total_steps = cfg.epochs * n_batches
    warmup_steps = int(round(cfg.warmup_fraction * total_steps))

    # The training state is one float64 vector: net.flat, then with concept
    # training the rows training records use and then those only validation
    # records use (_gather maps store ids to them through slot). Adam steps all
    # but the last: with zero gradient and moments, a step leaves them as is.
    n = len(net.flat)
    state, concepts, slot, used = net.flat, concept_store.vectors, None, ()
    if tuned:
        used = np.unique(np.concatenate([r.concept_ids for r in records]))
        val_ids = np.concatenate([r.concept_ids for r in val_records])
        held = np.concatenate([used, np.setdiff1d(val_ids, used)])
        slot = np.empty(concept_store.n, dtype=np.int64)
        slot[held] = np.arange(len(held))
        state = np.concatenate([net.flat, concepts[held].ravel()])
        net = FusionNet.from_flat(cfg, state[:n])
        concepts = state[n:].reshape(len(held), cfg.knowledge_dim)
    stepped = state[: n + cfg.knowledge_dim * len(used)]
    adam, grad = _Adam(stepped), np.zeros_like(stepped)

    history: list[dict] = []
    best_val = -1.0
    best = stepped.copy()
    stale = 0
    step = 0

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(records))
        epoch_loss = 0.0
        lr = 0.0
        for batch, idx in enumerate(_batch_plan(ks, order, cfg.batch_size), start=1):
            step += 1
            lr = warmup_lr(step, total_steps, warmup_steps, cfg.learning_rate)
            x, ids, batch_labels = _gather(records, idx, slot)
            logits, trace = forward(net, x, concepts[ids])
            epoch_loss += float(cross_entropy(logits, batch_labels).sum())
            if not np.isfinite(epoch_loss):
                raise TrainingDivergedError(f"fusion: non-finite loss in epoch {epoch + 1}, "
                                            f"batch {batch}")
            _, d_kg = backward(net, trace, batch_labels, out=grad[:n], kg_grad=tuned)
            if tuned:
                grad[n:] = 0.0
                np.add.at(grad[n:].reshape(len(used), -1), ids, d_kg)
            adam.step(grad, lr)

        train_acc, val_acc = (metrics.accuracy(*_eval_net(net, split, concepts, slot)[:2])
                              for split in (records, val_records))
        history.append({"epoch": epoch + 1, "lr": lr, "train_loss": epoch_loss / len(records),
                        "train_acc": train_acc, "val_acc": val_acc})
        if val_acc > best_val:
            best_val = val_acc
            best[...] = stepped
            stale = 0
        else:
            stale += 1
            if stale >= cfg.early_stop_patience:
                break

    stepped[...] = best.astype(np.float32)  # the values save_checkpoint and write_store keep
    if tuned:
        vectors = concept_store.vectors.copy()
        vectors[used] = concepts[: len(used)]
        concept_store = replace(concept_store, vectors=vectors)
    return TrainResult(net=net, history=history, concepts=concept_store)


def predict(
    net: FusionNet, record: CampaignRecord, concept_store: EmbeddingStore
) -> tuple[int, tuple[float, float]]:
    """Label and class probabilities for one record; ties go to label 0."""
    _resolve_ids([record], concept_store, net.cfg)
    kg = concept_store.vectors[record.concept_ids]
    logits, _ = forward(net, record.multimodal_vec[None], kg[None])
    probs = _softmax(logits[0])
    label = 1 if probs[1] > probs[0] else 0
    return label, (float(probs[0]), float(probs[1]))


def evaluate_records(
    net: FusionNet, records: list[CampaignRecord], concept_store: EmbeddingStore
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(labels, predictions, positive-class scores) over a record list. Pass
    TrainResult.concepts to evaluate a concept-tuned model."""
    if not records:
        raise ValueError("no records to evaluate")
    _resolve_ids(records, concept_store, net.cfg)
    return _eval_net(net, records, concept_store.vectors)


def _header(cfg: FusionConfig) -> tuple[int, int, int, int, int]:
    """The five u32 FUSNET01 header fields that follow the magic."""
    return (cfg.d_model, cfg.num_heads, cfg.multimodal_dim, cfg.knowledge_dim,
            1 if cfg.use_knowledge else 0)


def save_checkpoint(net: FusionNet, path: str | Path) -> None:
    """Write FUSNET01 weights plus a JSON config sidecar at <path>.json."""
    path = Path(path)
    header = struct.pack("<5I", *_header(net.cfg))
    path.write_bytes(CHECKPOINT_MAGIC + header + net.flat.astype("<f4").tobytes())
    write_json(asdict(net.cfg), path.with_name(path.name + ".json"))


def load_checkpoint(path: str | Path) -> FusionNet:
    """Read a FUSNET01 checkpoint (and its sidecar when present).

    The payload length is checked against the shape the header declares
    before any parameter memory is allocated.
    """
    path = Path(path)
    rd = BinaryReader(path, CHECKPOINT_MAGIC, "a fusion checkpoint")
    header = rd.unpack("<5I")

    sidecar = path.with_name(path.name + ".json")
    if sidecar.exists():
        try:
            cfg = FusionConfig(**json.loads(sidecar.read_text()))
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            raise StoreFormatError(f"{sidecar}: bad config sidecar: {exc}") from exc
        if _header(cfg) != header:
            raise StoreFormatError(f"{path}: header disagrees with config sidecar")
    else:
        d_model, num_heads, mm_dim, kg_dim, flags = header
        try:
            cfg = FusionConfig(d_model=d_model, num_heads=num_heads, multimodal_dim=mm_dim,
                               knowledge_dim=kg_dim, use_knowledge=bool(flags))
        except ValueError as exc:
            raise StoreFormatError(f"{path}: invalid header: {exc}") from exc

    values = rd.floats(_n_params(cfg))
    rd.done()
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NonFiniteError(f"{path}: non-finite value at parameter {bad[0]}")
    return FusionNet.from_flat(cfg, values.astype(np.float64))
