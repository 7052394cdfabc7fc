"""Knowledge-graph embedding training.

Three score functions over dense integer triples:

    transe    f(h,r,t) = -|| h + r - t ||      (L1 or L2 norm)
    rotate    f(h,r,t) = -|| h o r - t ||      complex Hadamard rotation,
                                               relation = unit-modulus phases
    distmult  f(h,r,t) = sum_i h_i * r_i * t_i

Training minimises the margin ranking loss

    L = max(0, margin - f(pos) + f(neg))

with plain SGD over filtered negatives, one update per (positive, negative)
pair. All gradients are hand derived; training runs in float64.

RotatE layout: an entity row of even length k is read as k/2 complex numbers
in interleaved (re, im) pairs, i.e. row.reshape(k // 2, 2). A relation row
holds k/2 phase angles; the rotation multiplies each complex component by
cos(theta) + i*sin(theta). The norm is taken over complex moduli, so the L2
flavour coincides with the flat 2*(k/2)-component Euclidean norm.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteScoreError
from .kg import HEAD, TAIL, KnowledgeGraph, Triple, corrupt

KINDS = ("transe", "rotate", "distmult")

# Sparse gradient rows are keyed ("e", entity_id) or ("r", relation_id).
GradSet = dict[tuple[str, int], np.ndarray]


@dataclass
class KgeTrainConfig:
    kind: str = "transe"
    dim: int = 256
    learning_rate: float = 0.001
    margin: float = 1.0
    epochs: int = 100
    negatives_per_positive: int = 1
    norm: str = "l2"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.norm not in ("l1", "l2"):
            raise ValueError(f"norm must be 'l1' or 'l2', got {self.norm!r}")
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.kind == "rotate" and self.dim % 2 != 0:
            raise ValueError("rotate needs an even dim (interleaved re/im pairs)")
        for name in ("learning_rate", "margin"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.negatives_per_positive < 1:
            raise ValueError("negatives_per_positive must be >= 1")


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

    def _check_triple(self, t: Triple) -> None:
        if not 0 <= t.head < self.entity_emb.shape[0]:
            raise ValueError(f"head id {t.head} out of range")
        if not 0 <= t.tail < self.entity_emb.shape[0]:
            raise ValueError(f"tail id {t.tail} out of range")
        if not 0 <= t.relation < self.relation_emb.shape[0]:
            raise ValueError(f"relation id {t.relation} out of range")


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


def _vec_norm(v: np.ndarray, norm: str) -> float:
    if norm == "l1":
        return float(np.sum(np.abs(v)))
    return float(np.linalg.norm(v))


def _rotate_parts(model: KgeModel, t: Triple):
    """Split out the complex pieces used by both score and grad."""
    half = model.dim // 2
    h = model.entity_emb[t.head].reshape(half, 2)
    tl = model.entity_emb[t.tail].reshape(half, 2)
    theta = model.relation_emb[t.relation]
    cos, sin = np.cos(theta), np.sin(theta)
    rot_re = h[:, 0] * cos - h[:, 1] * sin
    rot_im = h[:, 0] * sin + h[:, 1] * cos
    d_re = rot_re - tl[:, 0]
    d_im = rot_im - tl[:, 1]
    return h, cos, sin, rot_re, rot_im, d_re, d_im


def score(model: KgeModel, t: Triple) -> float:
    """Plausibility score of one triple; higher means more plausible."""
    model._check_triple(t)
    if model.kind == "transe":
        d = model.entity_emb[t.head] + model.relation_emb[t.relation] - model.entity_emb[t.tail]
        return -_vec_norm(d, model.norm)
    if model.kind == "distmult":
        return float(
            np.sum(
                model.entity_emb[t.head]
                * model.relation_emb[t.relation]
                * model.entity_emb[t.tail]
            )
        )
    # rotate
    _, _, _, _, _, d_re, d_im = _rotate_parts(model, t)
    moduli_sq = d_re * d_re + d_im * d_im
    if model.norm == "l1":
        return -float(np.sum(np.sqrt(moduli_sq)))
    return -float(np.sqrt(np.sum(moduli_sq)))


def loss_margin(model: KgeModel, positive: Triple, negative: Triple, margin: float) -> float:
    """Margin ranking loss max(0, margin - f(pos) + f(neg))."""
    return max(0.0, margin - score(model, positive) + score(model, negative))


def _score_grads(model: KgeModel, t: Triple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """d score / d (head row, relation row, tail row) for one triple.

    For rotate the relation gradient is with respect to the phase angles.
    At a zero-distance optimum the norm is not differentiable; the zero
    subgradient is returned there.
    """
    if model.kind == "transe":
        d = model.entity_emb[t.head] + model.relation_emb[t.relation] - model.entity_emb[t.tail]
        if model.norm == "l1":
            g = -np.sign(d)
        else:
            nrm = np.linalg.norm(d)
            g = np.zeros_like(d) if nrm < 1e-15 else -d / nrm
        return g, g.copy(), -g

    if model.kind == "distmult":
        h = model.entity_emb[t.head]
        r = model.relation_emb[t.relation]
        tl = model.entity_emb[t.tail]
        return r * tl, h * tl, h * r

    # rotate: chain through the rotated difference, per complex component.
    h, cos, sin, rot_re, rot_im, d_re, d_im = _rotate_parts(model, t)
    moduli_sq = d_re * d_re + d_im * d_im
    if model.norm == "l1":
        m = np.sqrt(moduli_sq)
        safe = np.where(m < 1e-15, 1.0, m)
        g_re = np.where(m < 1e-15, 0.0, -d_re / safe)
        g_im = np.where(m < 1e-15, 0.0, -d_im / safe)
    else:
        nrm = np.sqrt(np.sum(moduli_sq))
        if nrm < 1e-15:
            g_re = np.zeros_like(d_re)
            g_im = np.zeros_like(d_im)
        else:
            g_re = -d_re / nrm
            g_im = -d_im / nrm

    gh = np.empty_like(h)
    gh[:, 0] = g_re * cos + g_im * sin
    gh[:, 1] = -g_re * sin + g_im * cos
    gt = np.empty_like(h)
    gt[:, 0] = -g_re
    gt[:, 1] = -g_im
    g_theta = g_re * (-rot_im) + g_im * rot_re
    return gh.reshape(-1), g_theta, gt.reshape(-1)


def _accumulate(grads: GradSet, key: tuple[str, int], value: np.ndarray) -> None:
    if key in grads:
        grads[key] = grads[key] + value
    else:
        grads[key] = value.copy()


def grad(model: KgeModel, positive: Triple, negative: Triple, margin: float) -> GradSet:
    """Gradient of the margin loss with respect to every touched row.

    Returns a sparse mapping from ("e"|"r", id) to a gradient row, with
    contributions summed when the positive and negative triples share rows.
    An inactive hinge yields an empty mapping (the all-zero gradient).
    """
    if loss_margin(model, positive, negative, margin) <= 0.0:
        return {}
    grads: GradSet = {}
    # L = margin - f(pos) + f(neg), so positive rows get -df, negative rows +df.
    gh, gr, gt = _score_grads(model, positive)
    _accumulate(grads, ("e", positive.head), -gh)
    _accumulate(grads, ("r", positive.relation), -gr)
    _accumulate(grads, ("e", positive.tail), -gt)
    gh, gr, gt = _score_grads(model, negative)
    _accumulate(grads, ("e", negative.head), gh)
    _accumulate(grads, ("r", negative.relation), gr)
    _accumulate(grads, ("e", negative.tail), gt)
    return grads


def train(kg: KnowledgeGraph, cfg: KgeTrainConfig) -> tuple[KgeModel, list[float]]:
    """SGD over margin-ranked filtered negatives.

    Each epoch shuffles the triples, corrupts head or tail with equal
    probability for every positive, and applies one update per pair. TransE
    entity rows are renormalised to unit L2 norm after every epoch. Returns
    the trained model and the per-epoch mean hinge loss trace.
    """
    rng = np.random.default_rng(cfg.seed)
    model = init_model(cfg, kg.num_entities, kg.num_relations)
    trace: list[float] = []
    n = len(kg.triples)

    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        total = 0.0
        pairs = 0
        for idx in order:
            pos = kg.triples[idx]
            for _ in range(cfg.negatives_per_positive):
                side = HEAD if rng.random() < 0.5 else TAIL
                neg = corrupt(pos, side, rng, kg)
                g = grad(model, pos, neg, cfg.margin)
                total += loss_margin(model, pos, neg, cfg.margin)
                pairs += 1
                for (space, row), gvec in g.items():
                    if space == "e":
                        model.entity_emb[row] -= cfg.learning_rate * gvec
                    else:
                        model.relation_emb[row] -= cfg.learning_rate * gvec
        if cfg.kind == "transe":
            norms = np.linalg.norm(model.entity_emb, axis=1, keepdims=True)
            np.divide(model.entity_emb, norms, out=model.entity_emb, where=norms > 0)
        trace.append(total / max(pairs, 1))
    return model, trace


def _score_against_all(model: KgeModel, t: Triple, side: str) -> np.ndarray:
    """Scores of (h, r, e) over all entities e (side='tail') or (e, r, t)
    over all entities (side='head'), vectorised per kind."""
    ent = model.entity_emb
    if model.kind == "transe":
        r = model.relation_emb[t.relation]
        if side == TAIL:
            diffs = (ent[t.head] + r)[None, :] - ent
        else:
            diffs = ent + r[None, :] - ent[t.tail][None, :]
        if model.norm == "l1":
            return -np.sum(np.abs(diffs), axis=1)
        return -np.linalg.norm(diffs, axis=1)

    if model.kind == "distmult":
        r = model.relation_emb[t.relation]
        if side == TAIL:
            return ent @ (ent[t.head] * r)
        return ent @ (r * ent[t.tail])

    half = model.dim // 2
    theta = model.relation_emb[t.relation]
    cos, sin = np.cos(theta), np.sin(theta)
    pairs = ent.reshape(-1, half, 2)
    if side == TAIL:
        h = model.entity_emb[t.head].reshape(half, 2)
        rot_re = h[:, 0] * cos - h[:, 1] * sin
        rot_im = h[:, 0] * sin + h[:, 1] * cos
        d_re = rot_re[None, :] - pairs[:, :, 0]
        d_im = rot_im[None, :] - pairs[:, :, 1]
    else:
        tl = model.entity_emb[t.tail].reshape(half, 2)
        rot_re = pairs[:, :, 0] * cos[None, :] - pairs[:, :, 1] * sin[None, :]
        rot_im = pairs[:, :, 0] * sin[None, :] + pairs[:, :, 1] * cos[None, :]
        d_re = rot_re - tl[None, :, 0]
        d_im = rot_im - tl[None, :, 1]
    moduli_sq = d_re * d_re + d_im * d_im
    if model.norm == "l1":
        return -np.sum(np.sqrt(moduli_sq), axis=1)
    return -np.sqrt(np.sum(moduli_sq, axis=1))


@dataclass
class LinkPredictionResult:
    mean_rank: float
    hits_at: dict[int, float] = field(default_factory=dict)
    num_queries: int = 0


def link_predict_eval(
    model: KgeModel,
    kg: KnowledgeGraph,
    heldout: list[Triple],
    ks: tuple[int, ...] = (1, 3, 10),
) -> LinkPredictionResult:
    """Filtered link prediction over held-out triples.

    Every held-out triple contributes a tail query and a head query. For a
    tail query the true tail is ranked against all entities by score, with
    candidates that form other known true triples (graph plus held-out set)
    removed. The rank is the expected rank under random tie-breaking:
    1 + surviving candidates scoring strictly higher + half the surviving
    candidates scoring exactly the same, so a model that scores everything
    alike ranks in the middle, not first. hits@k counts ranks <= k. Head
    queries are symmetric. Raises NonFiniteScoreError, naming the held-out
    triple, when a query has a NaN or infinite score.
    """
    if not heldout:
        raise ValueError("heldout set is empty")
    for t in heldout:
        model._check_triple(t)

    # Known completions of each (head, relation) and (relation, tail) query,
    # the true entity among them: the filter removes them all at once.
    known_tails: dict[tuple[int, int], list[int]] = {}
    known_heads: dict[tuple[int, int], list[int]] = {}
    for h, r, tl in kg.known_set.union(t.as_tuple() for t in heldout):
        known_tails.setdefault((h, r), []).append(tl)
        known_heads.setdefault((r, tl), []).append(h)

    ranks: list[float] = []
    for t in heldout:
        for side in (TAIL, HEAD):
            scores = _score_against_all(model, t, side)
            if not np.isfinite(scores).all():
                labels = kg.entity_vocab.label, kg.relation_vocab.label
                raise NonFiniteScoreError(
                    f"non-finite score in the {side} query of held-out triple "
                    f"({labels[0](t.head)}, {labels[1](t.relation)}, {labels[0](t.tail)})"
                )
            if side == TAIL:
                true_score = scores[t.tail]
                known = scores[known_tails[(t.head, t.relation)]]
            else:
                true_score = scores[t.head]
                known = scores[known_heads[(t.relation, t.tail)]]
            better = np.count_nonzero(scores > true_score) - np.count_nonzero(known > true_score)
            ties = np.count_nonzero(scores == true_score) - np.count_nonzero(known == true_score)
            ranks.append(1.0 + better + ties / 2.0)

    ranks_arr = np.asarray(ranks, dtype=np.float64)
    return LinkPredictionResult(
        mean_rank=float(ranks_arr.mean()),
        hits_at={k: float(np.mean(ranks_arr <= k)) for k in ks},
        num_queries=len(ranks),
    )
