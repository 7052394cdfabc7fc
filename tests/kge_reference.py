"""Per-triple reference implementation of the KGE scores, gradients, trainer
and filtered ranking.

The library ships one batched kernel per score function (knowfuse.kge),
corrupts whole batches of triples (knowfuse.kg.corrupt) and trains on
minibatches of (positive, negative) pairs. This is the earlier per-triple
derivation, kept here as the oracle the batched paths are compared against:
scalar scores, hand-derived row gradients, the one-triple rejection
sampler, the per-pair SGD trainer with one update per pair, and the
per-query ranking that scores one query against every entity at a time, or
every candidate on its own.
"""
from __future__ import annotations

import numpy as np

from knowfuse.errors import CorruptionError
from knowfuse.kg import HEAD, TAIL, KnowledgeGraph, Triple
from knowfuse.kge import KgeModel, KgeTrainConfig, LinkPredictionResult, init_model

# Sparse gradient rows are keyed ("e", entity_id) or ("r", relation_id).
GradSet = dict[tuple[str, int], np.ndarray]


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


def _check_triple(model: KgeModel, t: Triple) -> None:
    if not 0 <= t.head < model.entity_emb.shape[0]:
        raise ValueError(f"head id {t.head} out of range")
    if not 0 <= t.tail < model.entity_emb.shape[0]:
        raise ValueError(f"tail id {t.tail} out of range")
    if not 0 <= t.relation < model.relation_emb.shape[0]:
        raise ValueError(f"relation id {t.relation} out of range")


def score(model: KgeModel, t: Triple) -> float:
    """Plausibility score of one triple; higher means more plausible."""
    _check_triple(model, t)
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


def score_grads(model: KgeModel, t: Triple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    gh, gr, gt = score_grads(model, positive)
    _accumulate(grads, ("e", positive.head), -gh)
    _accumulate(grads, ("r", positive.relation), -gr)
    _accumulate(grads, ("e", positive.tail), -gt)
    gh, gr, gt = score_grads(model, negative)
    _accumulate(grads, ("e", negative.head), gh)
    _accumulate(grads, ("r", negative.relation), gr)
    _accumulate(grads, ("e", negative.tail), gt)
    return grads


def corrupt(
    triple: Triple,
    side: str,
    rng: np.random.Generator,
    kg: KnowledgeGraph,
    max_attempts: int = 100,
) -> Triple:
    """Corrupt one side of one triple into a filtered negative: up to
    max_attempts uniform draws, then one draw from the explicit list of
    filtered candidates."""
    n = kg.num_entities
    if n < 2:
        raise ValueError("corruption needs at least 2 entities")
    if side not in (HEAD, TAIL):
        raise ValueError(f"side must be 'head' or 'tail', got {side!r}")

    known = kg.known_set
    original = triple.head if side == HEAD else triple.tail
    for _ in range(max_attempts):
        candidate = int(rng.integers(0, n))
        if candidate == original:
            continue
        if side == HEAD:
            key = (candidate, triple.relation, triple.tail)
        else:
            key = (triple.head, triple.relation, candidate)
        if key in known:
            continue
        return Triple(*key)

    def corrupted(e: int) -> Triple:
        if side == HEAD:
            return Triple(e, triple.relation, triple.tail)
        return Triple(triple.head, triple.relation, e)

    free = [e for e in range(n) if e != original and corrupted(e).as_tuple() not in known]
    if not free:
        raise CorruptionError(
            f"no filtered corruption exists for {triple} on {side}: "
            f"every other entity forms a known triple"
        )
    return corrupted(free[int(rng.integers(0, len(free)))])


def train(kg: KnowledgeGraph, cfg: KgeTrainConfig) -> tuple[KgeModel, list[float]]:
    """SGD over margin-ranked filtered negatives, one update per pair.

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
            pos = Triple(*kg.triples[idx].tolist())
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


def score_against_all(model: KgeModel, t: Triple, side: str) -> np.ndarray:
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


def link_predict_eval(
    model: KgeModel,
    kg: KnowledgeGraph,
    heldout: list[Triple],
    ks: tuple[int, ...] = (1, 3, 10),
) -> LinkPredictionResult:
    """Filtered link prediction, one query at a time: the true entity's
    expected rank under random tie-breaking among the candidates that form
    no other known true triple."""
    known_tails: dict[tuple[int, int], list[int]] = {}
    known_heads: dict[tuple[int, int], list[int]] = {}
    for h, r, tl in kg.known_set.union(t.as_tuple() for t in heldout):
        known_tails.setdefault((h, r), []).append(tl)
        known_heads.setdefault((r, tl), []).append(h)

    ranks: list[float] = []
    for t in heldout:
        for side in (TAIL, HEAD):
            scores = score_against_all(model, t, side)
            assert np.isfinite(scores).all()
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


def link_predict_eval_per_candidate(
    model: KgeModel,
    kg: KnowledgeGraph,
    heldout: list[Triple],
    ks: tuple[int, ...] = (1, 3, 10),
) -> LinkPredictionResult:
    """The same ranking with every candidate scored on its own by `score`, so
    identical entity rows always tie; a product over all entities need not
    round identical rows alike."""
    known = kg.known_set.union(t.as_tuple() for t in heldout)
    ranks: list[float] = []
    for t in heldout:
        for side in (TAIL, HEAD):
            true_score = score(model, t)
            rank = 1.0
            for e in range(model.entity_emb.shape[0]):
                cand = Triple(t.head, t.relation, e) if side == TAIL else Triple(e, t.relation, t.tail)
                if cand.as_tuple() in known:
                    continue
                s = score(model, cand)
                rank += 1.0 if s > true_score else 0.5 if s == true_score else 0.0
            ranks.append(rank)
    ranks_arr = np.asarray(ranks, dtype=np.float64)
    return LinkPredictionResult(
        mean_rank=float(ranks_arr.mean()),
        hits_at={k: float(np.mean(ranks_arr <= k)) for k in ks},
        num_queries=len(ranks),
    )
