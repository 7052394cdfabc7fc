"""Correctness checks against the benchmark's own reference computations.

Nothing here compares with a stored copy of an earlier output: every
expected value is recomputed in float64 from the generated inputs, or is a
property the method must have. A failed check raises CheckError.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from knowfuse import stores

SCORE_TOL = 1e-9


class CheckError(AssertionError):
    """A program output disagrees with the benchmark's reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---- retrieval ---------------------------------------------------------


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def check_retrieval(
    concepts_path: Path,
    text_path: Path,
    caption_path: Path,
    retrieved_path: Path,
    k: int,
    duplicate_of: dict[int, int],
) -> int:
    """Brute-force float64 cosine top-k against `retrieved.jsonl`.

    Every returned score must match the reference score of its name and
    the reference k-th best scores position by position. Rows that are
    exact copies score exactly alike, so the reference gives them the
    score of their original, and the program must return the earlier row
    first and never a later copy without its earlier twins. Returns the
    number of queries whose top k held such an exact tie.
    """
    store = stores.read_store(concepts_path)
    text = stores.read_store(text_path)
    caption = stores.read_store(caption_path)
    rows = read_jsonl(retrieved_path)
    require([r["id"] for r in rows] == text.names, "retrieve: ids differ from the query store")

    vecs = store.vectors.astype(np.float64)
    norms = np.linalg.norm(vecs, axis=1)
    require(bool(np.all(norms > 0)), "retrieve: generator made a zero concept row")
    unit = vecs / norms[:, None]
    queries = _unit_rows(
        _unit_rows(text.vectors.astype(np.float64)) + _unit_rows(caption.vectors.astype(np.float64))
    )
    copies = np.fromiter(duplicate_of.keys(), dtype=np.int64)
    originals = np.fromiter(duplicate_of.values(), dtype=np.int64)
    twins: dict[int, list[int]] = {}
    for c, o in duplicate_of.items():
        twins.setdefault(o, [o]).append(c)
    group_of = {row: sorted(g) for g in twins.values() for row in g}
    index_of = {name: i for i, name in enumerate(store.names)}

    ties = 0
    for start in range(0, len(rows), 64):
        scores = queries[start : start + 64] @ unit.T
        if len(copies):
            scores[:, copies] = scores[:, originals]
        best = -np.sort(-scores, axis=1)[:, :k]
        for j, row in enumerate(rows[start : start + 64]):
            got = row["concepts"]
            require(len(got) == min(k, store.n), f"retrieve {row['id']}: {len(got)} hits, expected {k}")
            unknown = [h["name"] for h in got if h["name"] not in index_of]
            require(not unknown, f"retrieve {row['id']}: names not in the store: {unknown}")
            idx = [index_of[h["name"]] for h in got]
            require(len(set(idx)) == len(idx), f"retrieve {row['id']}: repeated concept")
            for pos, (hit, i) in enumerate(zip(got, idx)):
                ref = scores[j, i]
                require(
                    abs(hit["score"] - ref) <= SCORE_TOL and abs(hit["score"] - best[j, pos]) <= SCORE_TOL,
                    f"retrieve {row['id']} position {pos}: {hit['name']} scored {hit['score']!r}, "
                    f"reference {ref!r}, reference rank-{pos + 1} score {best[j, pos]!r}",
                )
                earlier = [g for g in group_of.get(i, ()) if g < i]
                if earlier:
                    require(
                        pos >= len(earlier) and idx[pos - len(earlier) : pos] == earlier,
                        f"retrieve {row['id']}: exact tie {store.names[i]} not right after its earlier twins",
                    )
                    ties += 1
    return ties


# ---- knowledge-graph embeddings ----------------------------------------


def _all_entity_scores(kind: str, ent: np.ndarray, rel: np.ndarray, h, r, t, side: str) -> np.ndarray:
    """Scores [n_queries, n_entities] with the entity on `side` replaced."""
    if kind == "distmult":
        if side == "tail":
            return (ent[h] * rel[r]) @ ent.T
        return (rel[r] * ent[t]) @ ent.T
    if kind == "transe":
        if side == "tail":
            diff = (ent[h] + rel[r])[:, None, :] - ent[None, :, :]
        else:
            diff = ent[None, :, :] + (rel[r] - ent[t])[:, None, :]
        return -np.sqrt((diff * diff).sum(axis=2))
    # rotate: entities hold interleaved (re, im) pairs, relations phases.
    z = ent[:, 0::2] + 1j * ent[:, 1::2]
    rot = np.exp(1j * rel[r])
    if side == "tail":
        diff = (z[h] * rot)[:, None, :] - z[None, :, :]
    else:
        diff = z[None, :, :] * rot[:, None, :] - z[t][:, None, :]
    return -np.sqrt((diff.real ** 2 + diff.imag ** 2).sum(axis=2))


def filtered_rank_bounds(model, known: set, heldout: list) -> tuple[float, float, float]:
    """(optimistic, pessimistic, random-model) filtered mean ranks.

    `known` holds every true (head, relation, tail) of train plus held-out.
    A candidate counts against the true entity when it scores higher
    (optimistic) or at least as high (pessimistic), within SCORE_TOL
    scaled to the true score, after removing every other known true
    triple. The random-model figure is the expected rank under random
    scores, 1 + half the surviving candidates, averaged over queries.
    """
    tails: dict[tuple[int, int], set[int]] = {}
    heads: dict[tuple[int, int], set[int]] = {}
    for h, r, t in known:
        tails.setdefault((h, r), set()).add(t)
        heads.setdefault((r, t), set()).add(h)
    ent = np.asarray(model.entity_emb, dtype=np.float64)
    rel = np.asarray(model.relation_emb, dtype=np.float64)
    n = ent.shape[0]
    hs, rs, ts = np.array(heldout).T

    opt, pess, rand = [], [], []
    for side in ("tail", "head"):
        for start in range(0, len(heldout), 16):
            sl = slice(start, start + 16)
            scores = _all_entity_scores(model.kind, ent, rel, hs[sl], rs[sl], ts[sl], side)
            # NaN compares false both ways and would pass as rank 1.
            require(bool(np.all(np.isfinite(scores))), f"{model.kind}: non-finite scores")
            for j, q in enumerate(range(start, min(start + 16, len(heldout)))):
                true_id = ts[q] if side == "tail" else hs[q]
                others = tails[(hs[q], rs[q])] if side == "tail" else heads[(rs[q], ts[q])]
                mask = np.ones(n, dtype=bool)
                mask[list(others)] = False
                true_score = scores[j, true_id]
                tol = SCORE_TOL * max(1.0, abs(true_score))
                cand = scores[j, mask]
                opt.append(1 + np.count_nonzero(cand > true_score + tol))
                pess.append(1 + np.count_nonzero(cand >= true_score - tol))
                rand.append(1 + cand.size / 2.0)
    return float(np.mean(opt)), float(np.mean(pess)), float(np.mean(rand))


def check_kge(out: Path, kind: str, epochs: int, capture) -> float:
    """Structure and rank checks on one train-kge output directory.

    `capture` is the model, the known triples and the held-out triples
    seen at the `kge.link_predict_eval` call. Returns the reported mean rank.
    """
    model, known, heldout = capture
    link = json.loads((out / "link_metrics.json").read_text())
    hits = link["hits_at"]
    require(link["num_queries"] == 2 * len(heldout),
            f"{kind}: num_queries {link['num_queries']} for {len(heldout)} held-out triples")
    require(hits["1"] <= hits["3"] <= hits["10"], f"{kind}: hits@k not monotone: {hits}")
    with (out / "loss_trace.csv").open() as fh:
        losses = [float(row["mean_loss"]) for row in csv.DictReader(fh)]
    require(len(losses) == epochs and all(math.isfinite(x) for x in losses),
            f"{kind}: loss trace {losses}")
    if kind == "transe":
        ent = stores.read_store(out / "entities.emb").vectors.astype(np.float64)
        norms = np.linalg.norm(ent, axis=1)
        require(bool(np.all(np.abs(norms - 1.0) < 1e-5)),
                f"transe: entity norms span [{norms.min()}, {norms.max()}], expected 1")
    opt, pess, rand = filtered_rank_bounds(model, known, heldout)
    mean_rank = link["mean_rank"]
    require(opt - SCORE_TOL <= mean_rank <= pess + SCORE_TOL,
            f"{kind}: mean_rank {mean_rank} outside the reference range [{opt}, {pess}]")
    # The pessimistic bound too: a model whose scores collapse into ties
    # (all zero or NaN) reports rank 1 under optimistic tie-breaking, and
    # only the pessimistic rank shows that it ranks nothing.
    require(pess <= 0.5 * rand,
            f"{kind}: pessimistic mean rank {pess} (reported {mean_rank}) is not far below "
            f"the random-model {rand}")
    return mean_rank


# ---- classification ----------------------------------------------------


def pair_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Share of (positive, negative) pairs ordered correctly, ties one half."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    require(pos.size > 0 and neg.size > 0, "AUC needs both labels")
    wins = 0.0
    for start in range(0, pos.size, 512):
        block = pos[start : start + 512, None]
        wins += np.count_nonzero(block > neg[None, :]) + 0.5 * np.count_nonzero(block == neg[None, :])
    return wins / (pos.size * neg.size)


def check_predictions(predictions_path: Path, records_path: Path) -> tuple[dict, float]:
    """p0 + p1 = 1 and label = (p1 > p0) on every row; returns the rows by
    id and the AUC of p1 against the records' labels."""
    rows = read_jsonl(predictions_path)
    records = read_jsonl(records_path)
    require([r["id"] for r in rows] == [r["id"] for r in records],
            "predict: prediction ids differ from the records file")
    for r in rows:
        require(abs(r["p0"] + r["p1"] - 1.0) <= 1e-12, f"predict {r['id']}: p0 + p1 = {r['p0'] + r['p1']}")
        require(r["label"] == int(r["p1"] > r["p0"]), f"predict {r['id']}: label {r['label']} for {r}")
    labels = np.array([r["label"] for r in records])
    p1 = np.array([r["p1"] for r in rows])
    return {r["id"]: r for r in rows}, pair_auc(labels, p1)


def check_fusion_metrics(metrics_path: Path, epochs: int) -> int:
    """Confusion counts agree with precision, recall, F1 and accuracy in
    every split, and every planned epoch ran. Returns the train split size."""
    summary = json.loads(metrics_path.read_text())
    require(summary["epochs_ran"] == epochs, f"train-fusion ran {summary['epochs_ran']} of {epochs} epochs")
    for split in ("train", "val", "test"):
        m = summary[split]
        tp, fp, tn, fn = m["tp"], m["fp"], m["tn"], m["fn"]
        total = tp + fp + tn + fn
        precision = tp / (tp + fp) if tp + fp else float(tp + fn == 0)
        recall = tp / (tp + fn) if tp + fn else float(tp + fp == 0)
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        for name, want in (("precision", precision), ("recall", recall), ("f1", f1),
                           ("accuracy", (tp + tn) / total)):
            require(abs(m[name] - want) <= 1e-12, f"metrics.json {split}: {name} {m[name]} vs counts {want}")
    return summary["train"]["tp"] + summary["train"]["fp"] + summary["train"]["tn"] + summary["train"]["fn"]


def check_congruence(report_path: Path, text_path: Path, image_path: Path,
                     concepts_path: Path, records_path: Path) -> None:
    """Means and centroid distances recomputed in numpy, with and without
    each pair pulled halfway toward its mean concept vector."""
    rep = json.loads(report_path.read_text())
    text = stores.read_store(text_path).vectors.astype(np.float64)
    image = stores.read_store(image_path).vectors.astype(np.float64)
    concepts = stores.read_store(concepts_path)
    knowledge = np.stack([
        np.mean([concepts.row(c).astype(np.float64) for c in r["concept_names"]], axis=0)
        for r in read_jsonl(records_path)
    ])

    def summary(a, b):
        cos = np.clip((a * b).sum(1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)), -1, 1)
        return cos.mean(), np.linalg.norm(a.mean(0) - b.mean(0))

    cos0, dist0 = summary(text, image)
    cos1, dist1 = summary(_unit_rows(0.5 * (text + knowledge)), _unit_rows(0.5 * (image + knowledge)))
    got = rep["with_knowledge"]
    for name, value, want in (
        ("mean_pairwise_cosine", rep["mean_pairwise_cosine"], cos0),
        ("centroid_distance", rep["centroid_distance"], dist0),
        ("with_knowledge.mean_pairwise_cosine", got["mean_pairwise_cosine"], cos1),
        ("with_knowledge.centroid_distance", got["centroid_distance"], dist1),
        ("relative_similarity_change", rep["relative_similarity_change"], (cos1 - cos0) / abs(cos0)),
    ):
        require(abs(value - want) <= 1e-9 * max(1.0, abs(want)), f"congruence {name}: {value} vs {want}")
