"""Knowledge-graph embedding training.

Three score functions over dense integer triples:

    transe    f(h,r,t) = -|| h + r - t ||      (L1 or L2 norm)
    rotate    f(h,r,t) = -|| h o r - t ||      complex Hadamard rotation,
                                               relation = unit-modulus phases
    distmult  f(h,r,t) = sum_i h_i * r_i * t_i

Training minimises the margin ranking loss

    L = max(0, margin - f(pos) + f(neg))

with minibatch SGD over filtered negatives, in float64, with hand-derived
gradients. One kernel per score function scores [B, 3] id triples with
their row gradients, all that training takes; ranking uses its one-product
form, or for L1 norms the kernel, each query broadcast over every entity. A
step subtracts the active pairs' row gradients from the tables in batch
order (head rows, then tail rows), one subtraction each, repeated rows included.

RotatE layout: an entity row of even length k is read as k/2 complex numbers
in interleaved (re, im) pairs, i.e. row.reshape(k // 2, 2). A relation row
holds k/2 phase angles; the rotation multiplies each complex component by
cos(theta) + i*sin(theta). The norm is taken over complex moduli, so the L2
flavour coincides with the flat 2*(k/2)-component Euclidean norm.

The RotatE kernel computes on the real and imaginary planes of its rows,
the [n, k/2] views row[:, 0::2] and row[:, 1::2], and writes interleaved
rows only for the head and tail gradients and the ranking queries. A
squared modulus is re*re + im*im, the bits of a sum over a size-2 axis at
a fraction of its cost; no array gets a size-2 axis, since numpy's per-call
and inner-loop overhead on such an axis outweighs its arithmetic. cos and
sin are taken of the whole relation table, a few dozen rows, and gathered
per triple, rather than of every gathered row: a value's cosine is the same
wherever it is computed, so the trained models keep their bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteScoreError, TrainingDivergedError, check_fields
from .kg import HEAD, TAIL, KnowledgeGraph, Triple, corrupt

KINDS = ("transe", "rotate", "distmult")

# Bytes of one float64 block of link-prediction scores (queries x entities).
SCORE_BLOCK_BYTES = 512 * 1024

# (positive, negative) pairs per SGD step.
BATCH_SIZE = 32

# The k of each hits@k that link prediction reports.
HITS_AT = (1, 3, 10)


class BatchGrad(NamedTuple):
    """Each pair's hinge loss, and the rows the active pairs use (repeats
    included) beside their gradients, applied by scatter in this order."""

    losses: np.ndarray
    entity_rows: np.ndarray
    entity_grads: np.ndarray
    relation_rows: np.ndarray
    relation_grads: np.ndarray


@dataclass
class KgeTrainConfig:
    kind: str = field(default="transe", metadata={"choices": KINDS})
    dim: int = field(default=256, metadata={"min": 1})
    learning_rate: float = field(default=0.001, metadata={"min": 0})
    margin: float = field(default=1.0, metadata={"min": 0})
    epochs: int = field(default=100, metadata={"min": 0})
    negatives_per_positive: int = field(default=1, metadata={"min": 1})
    norm: str = field(default="l2", metadata={"choices": ("l1", "l2")})
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.kind == "rotate" and self.dim % 2 != 0:
            raise ValueError("rotate needs an even dim (interleaved re/im pairs)")


@dataclass
class KgeModel:
    """Embedding tables for one score function.

    entity_emb is [n_entities, dim]. relation_emb is [n_relations, dim]
    except for rotate, where rows hold dim/2 phase angles.
    """

    kind: str
    entity_emb: np.ndarray
    relation_emb: np.ndarray
    dim: int
    norm: str = "l2"


def init_model(cfg: KgeTrainConfig, n_entities: int, n_relations: int) -> KgeModel:
    """Fresh float64 model. Embeddings start uniform in [-6/sqrt(k), 6/sqrt(k)];
    rotate relation phases start uniform in [0, 2*pi)."""
    rng = np.random.default_rng(cfg.seed)
    bound = 6.0 / np.sqrt(cfg.dim)
    entity = rng.uniform(-bound, bound, size=(n_entities, cfg.dim))
    if cfg.kind == "rotate":
        relation = rng.uniform(0.0, 2.0 * np.pi, size=(n_relations, cfg.dim // 2))
    else:
        relation = rng.uniform(-bound, bound, size=(n_relations, cfg.dim))
    return KgeModel(
        kind=cfg.kind,
        entity_emb=entity,
        relation_emb=relation,
        dim=cfg.dim,
        norm=cfg.norm,
    )


def _trig(model: KgeModel, r) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the phases of relations r, taken once per table row."""
    rel = model.relation_emb
    return np.cos(rel).take(r, axis=0), np.sin(rel).take(r, axis=0)


def _rotate(re: np.ndarray, im: np.ndarray, cos, sin, conj: bool = False) -> np.ndarray:
    """(re + i*im) times cos + i*sin per component, or times its conjugate,
    as interleaved (re, im) rows [n, k]."""
    out = np.empty((len(re), 2 * re.shape[1]))
    out_re, out_im = out[:, 0::2], out[:, 1::2]
    np.multiply(re, cos, out=out_re)
    np.multiply(im, cos, out=out_im)
    if conj:
        out_re += im * sin
        out_im -= re * sin
    else:
        out_re -= im * sin
        out_im += re * sin
    return out


def _kernel(model: KgeModel, h, r, t, grads: bool = True):
    """Scores of the triples (h[i], r[i], t[i]) and, with grads, d score /
    d (head row, relation row, tail row) of each; for rotate, the relation
    gradient is by phase angle. A norm (for L1, a modulus) below 1e-15 gets
    the zero subgradient. TransE's head and relation gradients are one array;
    without grads the ids may broadcast ([Q, 1] queries by [1, n] entities).

    The difference d is one [..., k] plane for TransE and two [..., k/2]
    planes (real, imaginary) for RotatE, so a squared modulus is d*d or
    re*re + im*im and no reduction runs over a size-2 axis. RotatE takes cos
    and sin once per relation table row.
    """
    ent = model.entity_emb
    head, tail = ent.take(h, axis=0), ent.take(t, axis=0)
    if model.kind == "distmult":
        rel = model.relation_emb.take(r, axis=0)
        hr = head * rel
        return (hr * tail).sum(axis=-1), ((rel * tail, head * tail, hr) if grads else None)
    if model.kind == "transe":
        d = (head + model.relation_emb.take(r, axis=0) - tail,)
        sq = d[0] * d[0]
    else:
        cos, sin = _trig(model, r)
        re, im = head[..., 0::2], head[..., 1::2]
        rot = (re * cos - im * sin, re * sin + im * cos)
        d = (rot[0] - tail[..., 0::2], rot[1] - tail[..., 1::2])
        sq = d[0] * d[0] + d[1] * d[1]
    norm = np.sqrt(sq if model.norm == "l1" else sq.sum(axis=-1, keepdims=True))
    scores = -norm.sum(axis=-1)
    if not grads:
        return scores, None
    flat = norm < 1e-15
    if flat.any():
        safe = np.where(flat, 1.0, norm)
        g = [np.where(flat, 0.0, -x / safe) for x in d]  # d score / d d
    else:
        g = [-x / norm for x in d]
    if model.kind == "transe":
        return scores, (g[0], g[0], -g[0])
    g_tail = np.empty_like(tail)
    np.negative(g[0], out=g_tail[..., 0::2])
    np.negative(g[1], out=g_tail[..., 1::2])
    g_theta = g[1] * rot[0] - g[0] * rot[1]
    return scores, (_rotate(g[0], g[1], cos, sin, conj=True), g_theta, g_tail)


def grad(model: KgeModel, positive, negative, margin: float) -> BatchGrad:
    """The margin losses max(0, margin - f(pos) + f(neg)) of B pairs, given
    as [B, 3] id arrays of positives and negatives, and their gradients
    with respect to every row an active pair touches."""
    ids = np.concatenate([positive, negative])
    scores, (g_h, g_r, g_t) = _kernel(model, ids[:, 0], ids[:, 1], ids[:, 2])
    b = len(positive)
    hinge = margin - scores[:b] + scores[b:]
    up = hinge > 0.0
    active = np.concatenate([up, up])
    # L = margin - f(pos) + f(neg), so positive rows get -df, negative rows +df.
    shared = g_r is g_h
    for g in (g_h, g_t) if shared else (g_h, g_r, g_t):
        np.negative(g[:b], out=g[:b])
    ids, g_h = ids.compress(active, axis=0), g_h.compress(active, axis=0)
    return BatchGrad(np.maximum(hinge, 0.0), np.concatenate([ids[:, 0], ids[:, 2]]),
                     np.concatenate([g_h, g_t.compress(active, axis=0)]),
                     ids[:, 1], g_h if shared else g_r.compress(active, axis=0))


def _subtract_rows(table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """table[rows[i]] -= values[i] for each i in order, repeated rows too,
    through ufunc.at's one-dimensional fast path. The table must be
    C-contiguous, so that its flat reshape is a view."""
    k = table.shape[1]
    np.subtract.at(table.reshape(-1), (rows[:, None] * k + np.arange(k)).ravel(), values.ravel())


def train(kg: KnowledgeGraph, cfg: KgeTrainConfig) -> tuple[KgeModel, list[float]]:
    """Minibatch SGD over margin-ranked filtered negatives.

    Each epoch shuffles the triples into negatives_per_positive consecutive
    (positive, negative) pairs each. A batch of BATCH_SIZE pairs draws a side
    (head or tail, equal odds), then a filtered corruption, per pair, and
    subtracts the row gradients of its active pairs one by one, the step
    scale of per-pair SGD (a batch of 1). TransE entity rows are renormalised to unit
    L2 norm after every epoch. Returns the model and the per-epoch mean
    pre-step hinge loss; raises TrainingDivergedError at the first batch
    whose loss is NaN or infinite.
    """
    rng = np.random.default_rng(cfg.seed)
    model = init_model(cfg, kg.num_entities, kg.num_relations)
    lr, trace = cfg.learning_rate, []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(kg.triples))
        pairs = np.repeat(kg.triples[order], cfg.negatives_per_positive, axis=0)
        total = 0.0
        for batch, start in enumerate(range(0, len(pairs), BATCH_SIZE), start=1):
            pos = pairs[start : start + BATCH_SIZE]
            g = grad(model, pos, corrupt(pos, rng.random(len(pos)) < 0.5, rng, kg), cfg.margin)
            total += float(g.losses.sum())
            if not math.isfinite(total):
                raise TrainingDivergedError(
                    f"kge {cfg.kind}: non-finite loss in epoch {epoch}, batch {batch}"
                )
            _subtract_rows(model.entity_emb, g.entity_rows, lr * g.entity_grads)
            _subtract_rows(model.relation_emb, g.relation_rows, lr * g.relation_grads)
        if cfg.kind == "transe":
            norms = np.linalg.norm(model.entity_emb, axis=1, keepdims=True)
            np.divide(model.entity_emb, norms, out=model.entity_emb, where=norms > 0)
        trace.append(total / max(len(pairs), 1))
    return model, trace


def _query_scores(model: KgeModel, ids, side: str, table, sq_norms) -> np.ndarray:
    """Scores [Q, rows] of a block of tail (or head) queries against the
    entity rows in table, one product per block; L1 norms, which have no
    product form, broadcast each query over every entity in the kernel."""
    ent, rel = model.entity_emb, model.relation_emb
    h, r, t = ids.T
    if model.kind == "distmult":
        return (ent[h] * rel[r] if side == TAIL else rel[r] * ent[t]) @ table.T
    if model.norm == "l1":
        every = np.arange(len(ent))[None]
        heads, tails = (h[:, None], every) if side == TAIL else (every, t[:, None])
        return _kernel(model, heads, r[:, None], tails, grads=False)[0]
    if model.kind == "transe":
        x = ent[h] + rel[r] if side == TAIL else ent[t] - rel[r]
    else:  # a rotation is unitary: ||h o r - t|| = ||h - t o conj(r)||
        rows = ent[h] if side == TAIL else ent[t]
        x = _rotate(rows[:, 0::2], rows[:, 1::2], *_trig(model, r), conj=side == HEAD)
    # ||x - e||^2 = ||x||^2 + ||e||^2 - 2 x.e, clamped at 0 against rounding
    out = x @ table.T
    out *= -2.0
    out += (x * x).sum(axis=1)[:, None]
    out += sq_norms
    np.maximum(out, 0.0, out=out)
    np.sqrt(out, out=out)
    return np.negative(out, out=out)


@dataclass
class LinkPredictionResult:
    mean_rank: float
    hits_at: dict[int, float] = field(default_factory=dict)
    num_queries: int = 0


def link_predict_eval(
    model: KgeModel,
    kg: KnowledgeGraph,
    heldout: list[Triple],
) -> LinkPredictionResult:
    """Filtered link prediction over held-out triples.

    Every held-out triple contributes a tail query and a head query. For a
    tail query the true tail is ranked against all entities by score, with
    candidates that form other known true triples (graph plus held-out set)
    removed. The rank is the expected rank under random tie-breaking:
    1 + surviving candidates scoring strictly higher + half the surviving
    candidates scoring exactly the same, so a model that scores everything
    alike ranks in the middle, not first. hits@k counts ranks <= k, for
    each k in HITS_AT. Head queries are symmetric. Blocks of queries fit
    SCORE_BLOCK_BYTES. Raises ValueError, naming the field, on a held-out
    id outside the model's tables, and NonFiniteScoreError, naming the
    held-out triple, when a query has a NaN or infinite score.
    """
    if not heldout:
        raise ValueError("heldout set is empty")
    held = np.array([t.as_tuple() for t in heldout], dtype=np.int64)
    n_ent = len(model.entity_emb)
    bad = (held < 0) | (held >= [n_ent, len(model.relation_emb), n_ent])
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), 3)
        raise ValueError(f"{('head', 'relation', 'tail')[j]} id {held[i, j]} out of range")
    n = kg.num_entities
    # The known triples (graph plus held-out set) keyed in (h, r, t) and in
    # (t, r, h) order: a query's known completions are one run of keys,
    # listed as (query, entity) pairs grouped by query.
    triples = np.concatenate([kg.triples, held])
    keys, by_tail = np.sort(kg.triple_keys(triples)), np.sort(kg.triple_keys(triples[:, ::-1]))
    known = []
    for keys, query in ((keys, held), (by_tail, held[:, ::-1])):
        first = kg.triple_keys(query) - query[:, 2]
        lo = np.searchsorted(keys, first)
        count = np.searchsorted(keys, first + n) - lo
        ptr = np.concatenate([[0], np.cumsum(count)])
        at = np.arange(ptr[-1]) + np.repeat(lo - ptr[:-1], count)
        known.append((np.repeat(np.arange(len(query)), count), keys[at] % n, ptr))

    product = model.kind == "distmult" or model.norm == "l2"
    table, spread = model.entity_emb, slice(None)
    if product:
        # BLAS may give identical rows different products, and a tie must stay
        # a tie: the products score the distinct rows, spread over entities.
        table, spread = np.unique(table, axis=0, return_inverse=True)
        spread = spread.reshape(-1)
    sq_norms = (table * table).sum(axis=1)
    # The kernel path holds [rows, n_entities, dim] temporaries.
    rows = max(1, SCORE_BLOCK_BYTES // (8 * len(model.entity_emb) * (1 if product else model.dim)))
    ranks = np.empty((len(held), 2))
    for a in range(0, len(held), rows):
        block = held[a : a + rows]
        q = np.arange(len(block))
        finite = np.empty((len(block), 2), dtype=bool)
        for j, (side, (owner, entity, ptr)) in enumerate(zip((TAIL, HEAD), known)):
            scores = _query_scores(model, block, side, table, sq_norms)[:, spread]
            finite[:, j] = np.isfinite(scores).all(axis=1)
            true = scores[q, block[:, 2 - 2 * j]][:, None]
            # Every known completion, the true one too, leaves the counts.
            pairs = slice(ptr[a], ptr[a + len(block)])
            scores[owner[pairs] - a, entity[pairs]] = -np.inf
            better = np.count_nonzero(scores > true, axis=1)
            ranks[a : a + rows, j] = 1.0 + better + np.count_nonzero(scores == true, axis=1) / 2.0
        if not finite.all():
            i, j = divmod(int(np.argmin(finite)), 2)
            t, ents = heldout[a + i], kg.entities
            raise NonFiniteScoreError(
                f"non-finite score in the {(TAIL, HEAD)[j]} query of held-out triple "
                f"({ents[t.head]}, {kg.relations[t.relation]}, {ents[t.tail]})"
            )

    ranks = ranks.reshape(-1)
    return LinkPredictionResult(
        mean_rank=float(ranks.mean()),
        hits_at={k: float(np.mean(ranks <= k)) for k in HITS_AT},
        num_queries=len(ranks),
    )
