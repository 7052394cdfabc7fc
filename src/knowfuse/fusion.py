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

forward and backward run on a batch of records that share n_k; training,
evaluation and single-record predict all go through them. They are explicit
numpy in float64; backward is hand derived and is checked against central
finite differences in the test suite. The ablation flag use_knowledge=False skips attention entirely and
classifies the projected multimodal vector alone.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    NonFiniteError,
    StoreFormatError,
    TrainingDivergedError,
    TruncatedStoreError,
    check_fields,
)
from .stores import CampaignRecord, EmbeddingStore

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
    kg: np.ndarray | None  # [B, n_k, knowledge_dim]
    q0: np.ndarray
    cls_in: np.ndarray
    logits: np.ndarray
    kv0: np.ndarray | None = None
    q: np.ndarray | None = None  # [B, H, dh]
    k: np.ndarray | None = None  # [B, H, n_k, dh]
    v: np.ndarray | None = None  # [B, H, n_k, dh]
    attn: np.ndarray | None = None  # [B, H, n_k], rows sum to 1
    concat: np.ndarray | None = None


def _einsum(subscripts: str, *operands) -> np.ndarray:
    """einsum with contraction-path optimisation (BLAS-backed where possible)."""
    return np.einsum(subscripts, *operands, optimize=True)


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-record -log softmax(logits)[label] for logits [B, 2], computed stably."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    return lse - shifted[np.arange(len(labels)), labels]


def forward(
    net: FusionNet, x: np.ndarray, kg: np.ndarray | None
) -> tuple[np.ndarray, ForwardTrace]:
    """Logits [B, 2] for a batch plus the cached trace.

    x is [B, multimodal_dim]. kg is [B, n_k, knowledge_dim] with n_k >= 1
    when the net uses knowledge; it is ignored (and may be None) for the
    ablation net.
    """
    cfg = net.cfg
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cfg.multimodal_dim:
        raise ValueError(
            f"multimodal batch must be [B, {cfg.multimodal_dim}], got {x.shape}"
        )
    q0 = x @ net.proj_mm_w + net.proj_mm_b  # [B, d]
    if not cfg.use_knowledge:
        logits = q0 @ net.cls_w + net.cls_b
        return logits, ForwardTrace(x=x, kg=None, q0=q0, cls_in=q0, logits=logits)

    kg = np.asarray(kg, dtype=np.float64)
    if (
        kg.ndim != 3
        or kg.shape[0] != x.shape[0]
        or kg.shape[1] < 1
        or kg.shape[2] != cfg.knowledge_dim
    ):
        raise ValueError(
            f"knowledge batch must be [{x.shape[0]}, n_k >= 1, "
            f"{cfg.knowledge_dim}], got {kg.shape}"
        )
    kv0 = kg @ net.proj_kg_w + net.proj_kg_b  # [B, n_k, d]
    q = _einsum("bd,hde->bhe", q0, net.attn_q)
    k = _einsum("bnd,hde->bhne", kv0, net.attn_k)
    v = _einsum("bnd,hde->bhne", kv0, net.attn_v)
    scores = _einsum("bhe,bhne->bhn", q, k) / np.sqrt(cfg.head_dim)
    attn = _softmax(scores, axis=-1)
    head_out = _einsum("bhn,bhne->bhe", attn, v)
    concat = head_out.reshape(x.shape[0], cfg.d_model)
    cls_in = concat @ net.attn_out + q0
    logits = cls_in @ net.cls_w + net.cls_b
    return logits, ForwardTrace(
        x=x, kg=kg, q0=q0, cls_in=cls_in, logits=logits,
        kv0=kv0, q=q, k=k, v=v, attn=attn, concat=concat,
    )


def backward(
    net: FusionNet, trace: ForwardTrace, labels: np.ndarray, out: np.ndarray | None = None
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Gradients of the batch-mean cross-entropy, plus d kg [B, n_k, kg_dim].

    The gradients are views by parameter name into one vector laid out like
    net.flat, which is itself under "flat": `out` when given, else a new
    zeroed one. The ablation path leaves the attention and knowledge
    projection gradients untouched, so they stay zero in a zeroed `out` that
    only this net's gradients have been written to, and returns an empty d kg.
    """
    cfg = net.cfg
    batch = trace.x.shape[0]
    g = _views(np.zeros_like(net.flat) if out is None else out, cfg)

    p = _softmax(trace.logits, axis=-1)
    dz = p.copy()
    dz[np.arange(batch), labels] -= 1.0
    dz /= batch

    g["cls_w"][...] = trace.cls_in.T @ dz
    g["cls_b"][...] = dz.sum(axis=0)
    d_cls_in = dz @ net.cls_w.T

    if trace.kv0 is None:
        d_q0 = d_cls_in
        d_kg = np.zeros((batch, 0, cfg.knowledge_dim))
    else:
        d_fused = d_cls_in
        d_q0 = d_cls_in.copy()
        g["attn_out"][...] = trace.concat.T @ d_fused
        d_concat = d_fused @ net.attn_out.T
        d_head = d_concat.reshape(batch, cfg.num_heads, cfg.head_dim)

        # Softmax backward: d_scores = A * (dA - sum(A * dA)) per row.
        d_v = _einsum("bhn,bhe->bhne", trace.attn, d_head)
        d_attn = _einsum("bhe,bhne->bhn", d_head, trace.v)
        inner = np.sum(trace.attn * d_attn, axis=-1, keepdims=True)
        d_scores = trace.attn * (d_attn - inner) / np.sqrt(cfg.head_dim)
        d_q = _einsum("bhn,bhne->bhe", d_scores, trace.k)
        d_k = _einsum("bhn,bhe->bhne", d_scores, trace.q)

        g["attn_q"][...] = _einsum("bd,bhe->hde", trace.q0, d_q)
        d_q0 += _einsum("hde,bhe->bd", net.attn_q, d_q)
        g["attn_k"][...] = _einsum("bnd,bhne->hde", trace.kv0, d_k)
        d_kv0 = _einsum("hde,bhne->bnd", net.attn_k, d_k)
        g["attn_v"][...] = _einsum("bnd,bhne->hde", trace.kv0, d_v)
        d_kv0 += _einsum("hde,bhne->bnd", net.attn_v, d_v)

        g["proj_kg_w"][...] = _einsum("bnd,bne->de", trace.kg, d_kv0)
        g["proj_kg_b"][...] = d_kv0.sum(axis=(0, 1))
        d_kg = _einsum("bne,de->bnd", d_kv0, net.proj_kg_w)

    g["proj_mm_w"][...] = trace.x.T @ d_q0
    g["proj_mm_b"][...] = d_q0.sum(axis=0)
    return g, d_kg


def warmup_lr(step: int, total_steps: int, warmup_steps: int, base_lr: float) -> float:
    """Linear ramp from 0 over warmup_steps, then linear decay to 0."""
    if step < 1 or step > total_steps:
        raise ValueError(f"step {step} outside [1, {total_steps}]")
    if warmup_steps > 0 and step <= warmup_steps:
        return base_lr * step / warmup_steps
    if total_steps == warmup_steps:
        return 0.0
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
    net: FusionNet
    history: list[dict]
    concept_vectors: np.ndarray | None = None


def _gather(records: list[CampaignRecord], concepts: np.ndarray, idx: np.ndarray):
    """Stack one equal-n_k batch: inputs, concept rows, labels, id matrix."""
    x = np.stack([records[i].multimodal_vec for i in idx]).astype(np.float64)
    ids = np.array([records[i].concept_ids for i in idx], dtype=np.int64)
    labels = np.array([records[i].label for i in idx], dtype=np.int64)
    kg = concepts[ids] if ids.size else np.zeros((len(idx), 0, concepts.shape[1]))
    return x, kg, ids, labels


def _batch_plan(
    ks: np.ndarray, order: np.ndarray, batch_size: int
) -> list[np.ndarray]:
    """Chunk a shuffled index order into batches of records sharing n_k."""
    groups: dict[int, list[int]] = {}
    for i in order:
        groups.setdefault(int(ks[i]), []).append(int(i))
    batches = []
    for k in sorted(groups):
        idx = groups[k]
        for start in range(0, len(idx), batch_size):
            batches.append(np.asarray(idx[start : start + batch_size]))
    return batches


def _eval_net(
    net: FusionNet, records: list[CampaignRecord], concepts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(labels, predicted labels, positive-class probabilities), batched."""
    ks = np.array([len(r.concept_ids) for r in records])
    labels = np.array([r.label for r in records], dtype=np.int64)
    preds = np.empty(len(records), dtype=np.int64)
    p1 = np.empty(len(records), dtype=np.float64)
    for idx in _batch_plan(ks, np.arange(len(records)), 512):
        x, kg, _, _ = _gather(records, concepts, idx)
        logits, _ = forward(net, x, kg)
        probs = _softmax(logits, axis=-1)
        # Equal logits resolve to label 0.
        preds[idx] = (probs[:, 1] > probs[:, 0]).astype(np.int64)
        p1[idx] = probs[:, 1]
    return labels, preds, p1


def _resolve_ids(records: list[CampaignRecord], n_concepts: int) -> None:
    for r in records:
        for c in r.concept_ids:
            if not 0 <= c < n_concepts:
                raise ValueError(
                    f"record {r.id}: concept id {c} outside store of {n_concepts}"
                )


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
    from the best epoch are restored. History rows carry epoch, final
    learning rate, mean train loss, train accuracy and validation accuracy.
    """
    if not records:
        raise ValueError("no training records")
    rng = np.random.default_rng(cfg.seed)
    net = FusionNet(cfg, rng=rng)

    if val_records is None:
        order = rng.permutation(len(records))
        n_val = max(1, int(round(len(records) * DEFAULT_VAL_SHARE)))
        if n_val >= len(records):
            raise ValueError("too few records to split off validation")
        val_records = [records[i] for i in order[:n_val]]
        records = [records[i] for i in order[n_val:]]

    labels_present = {r.label for r in records}
    if labels_present != {0, 1}:
        raise ValueError("training records must include both labels")

    concepts = concept_store.vectors.astype(np.float64)
    _resolve_ids(records, concept_store.n)
    _resolve_ids(val_records, concept_store.n)

    ks = np.array([len(r.concept_ids) for r in records])
    n_batches = len(_batch_plan(ks, np.arange(len(records)), cfg.batch_size))
    total_steps = cfg.epochs * n_batches
    warmup_steps = int(round(cfg.warmup_fraction * total_steps))

    adam = _Adam(net.flat)
    grad_flat = np.zeros_like(net.flat)
    concept_adam = _Adam(concepts) if cfg.train_concepts and cfg.use_knowledge else None
    history: list[dict] = []
    best_val = -1.0
    best_flat = net.flat.copy()
    best_concepts = concepts.copy() if cfg.train_concepts else None
    stale = 0
    step = 0

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(records))
        epoch_loss = 0.0
        lr = 0.0
        for batch, idx in enumerate(_batch_plan(ks, order, cfg.batch_size), start=1):
            step += 1
            lr = warmup_lr(step, total_steps, warmup_steps, cfg.learning_rate)
            x, kg, ids, batch_labels = _gather(records, concepts, idx)
            logits, trace = forward(net, x, kg)
            epoch_loss += float(cross_entropy(logits, batch_labels).sum())
            if not np.isfinite(epoch_loss):
                raise TrainingDivergedError(
                    f"fusion: non-finite loss in epoch {epoch + 1}, batch {batch}"
                )
            _, d_kg = backward(net, trace, batch_labels, out=grad_flat)
            adam.step(grad_flat, lr)
            if concept_adam is not None:
                gc = np.zeros_like(concepts)
                np.add.at(gc, ids, d_kg)
                concept_adam.step(gc, lr)

        train_labels, train_preds, _ = _eval_net(net, records, concepts)
        val_labels, val_preds, _ = _eval_net(net, val_records, concepts)
        train_acc = float(np.mean(train_labels == train_preds))
        val_acc = float(np.mean(val_labels == val_preds))
        history.append(
            {
                "epoch": epoch + 1,
                "lr": lr,
                "train_loss": epoch_loss / len(records),
                "train_acc": train_acc,
                "val_acc": val_acc,
            }
        )
        if val_acc > best_val:
            best_val = val_acc
            best_flat[...] = net.flat
            if cfg.train_concepts:
                best_concepts[...] = concepts
            stale = 0
        else:
            stale += 1
            if stale >= cfg.early_stop_patience:
                break

    net.flat[...] = best_flat
    return TrainResult(net=net, history=history, concept_vectors=best_concepts)


def predict(
    net: FusionNet, record: CampaignRecord, concept_store: EmbeddingStore
) -> tuple[int, tuple[float, float]]:
    """Label and class probabilities for one record; ties go to label 0."""
    _resolve_ids([record], concept_store.n)
    kg = concept_store.vectors[record.concept_ids]
    logits, _ = forward(net, record.multimodal_vec[None], kg[None])
    probs = _softmax(logits[0])
    label = 1 if probs[1] > probs[0] else 0
    return label, (float(probs[0]), float(probs[1]))


def evaluate_records(
    net: FusionNet,
    records: list[CampaignRecord],
    concept_store: EmbeddingStore,
    concept_vectors: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(labels, predictions, positive-class scores) over a record list.

    concept_vectors, when given, replaces the store's vectors row for row:
    pass TrainResult.concept_vectors to evaluate a concept-tuned model.
    """
    if not records:
        raise ValueError("no records to evaluate")
    _resolve_ids(records, concept_store.n)
    if concept_vectors is None:
        concept_vectors = concept_store.vectors.astype(np.float64)
    return _eval_net(net, records, concept_vectors)


def _header(cfg: FusionConfig) -> tuple[int, int, int, int, int]:
    """The five u32 FUSNET01 header fields that follow the magic."""
    return (cfg.d_model, cfg.num_heads, cfg.multimodal_dim, cfg.knowledge_dim,
            1 if cfg.use_knowledge else 0)


def save_checkpoint(net: FusionNet, path: str | Path) -> None:
    """Write FUSNET01 weights plus a JSON config sidecar at <path>.json."""
    path = Path(path)
    header = struct.pack("<5I", *_header(net.cfg))
    path.write_bytes(CHECKPOINT_MAGIC + header + net.flat.astype("<f4").tobytes())
    sidecar = path.with_name(path.name + ".json")
    sidecar.write_text(json.dumps(asdict(net.cfg), sort_keys=True, indent=2) + "\n")


def load_checkpoint(path: str | Path) -> FusionNet:
    """Read a FUSNET01 checkpoint (and its sidecar when present).

    The payload length is checked against the shape the header declares
    before any parameter memory is allocated.
    """
    path = Path(path)
    buf = path.read_bytes()
    if buf[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise BadMagicError(f"{path}: not a fusion checkpoint (bad magic)")
    header_len = len(CHECKPOINT_MAGIC) + 20
    if len(buf) < header_len:
        raise TruncatedStoreError(f"{path}: header truncated")
    header = struct.unpack("<5I", buf[len(CHECKPOINT_MAGIC) : header_len])

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

    extra = len(buf) - header_len - 4 * _n_params(cfg)
    if extra < 0:
        raise TruncatedStoreError(f"{path}: payload {-extra} bytes short of the header's shape")
    if extra > 0:
        raise StoreFormatError(f"{path}: {extra} trailing bytes")
    values = np.frombuffer(buf, dtype="<f4", offset=header_len)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NonFiniteError(f"{path}: non-finite value at parameter {bad[0]}")
    return FusionNet.from_flat(cfg, values.astype(np.float64))
