"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and size arguments and
writes only the files the workload's CLI stages read. The program under
test never sees the seed, only these files.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from knowfuse import stores


def _zipf_pick(rng: np.random.Generator, size: int, n: int, exponent: float) -> np.ndarray:
    """Indices in [0, n) drawn with weight 1 / (i + 1) ** exponent."""
    weights = 1.0 / np.arange(1, n + 1) ** exponent
    cdf = np.cumsum(weights / weights.sum())
    return np.minimum(np.searchsorted(cdf, rng.random(size), side="right"), n - 1)


ZIPF = 1.0  # exponent of the partner skew within a cluster


@dataclass(frozen=True)
class GraphSize:
    entities: int
    clusters: int
    triples: int
    heldout: int


def make_graph(path: Path, seed: int, size: GraphSize) -> dict:
    """A ConceptNet-style CSV (relation, head, tail, weight) with URI tokens.

    Entities fall into equal clusters, and relation r links cluster
    source[r] to cluster target[r], both permutations, so every cluster is
    the source of one relation and the target of another. A model that
    learns the clusters ranks a true entity among one cluster, not among
    all entities. Every entity gets one triple as a head and one as a
    tail, with the partner drawn Zipf-skewed within its cluster; the rest
    of the triples pick both ends that way. The skew makes a few hubs per
    cluster, and the guaranteed degree keeps a held-out triple from naming
    an entity that training never saw. Returns the largest number of tails
    one (head, relation) pair gets, which must stay far below what
    negative sampling tolerates.
    """
    rng = np.random.default_rng(seed)
    per = size.entities // size.clusters
    members = rng.permutation(per * size.clusters).reshape(size.clusters, per)
    cluster_of = np.empty(per * size.clusters, dtype=np.int64)
    cluster_of[members] = np.arange(size.clusters)[:, None]
    source = rng.permutation(size.clusters)
    target = rng.permutation(size.clusters)
    rel_from = np.argsort(source)  # the relation whose source is cluster c
    rel_into = np.argsort(target)  # the relation whose target is cluster c

    ents = np.arange(per * size.clusters)
    r_head = rel_from[cluster_of[ents]]
    as_head = np.stack([ents, r_head, members[target[r_head], _zipf_pick(rng, ents.size, per, ZIPF)]], 1)
    r_tail = rel_into[cluster_of[ents]]
    as_tail = np.stack([members[source[r_tail], _zipf_pick(rng, ents.size, per, ZIPF)], r_tail, ents], 1)
    extra = 2 * size.triples
    rel = rng.integers(0, size.clusters, size=extra)
    free = np.stack([
        members[source[rel], _zipf_pick(rng, extra, per, ZIPF)],
        rel,
        members[target[rel], _zipf_pick(rng, extra, per, ZIPF)],
    ], 1)
    rows = np.concatenate([as_head, as_tail, free])
    rows = rows[rows[:, 0] != rows[:, 2]]
    _, first = np.unique(rows, axis=0, return_index=True)
    rows = rows[np.sort(first)][: size.triples]
    if len(rows) < size.triples:
        raise RuntimeError(f"graph generator made {len(rows)} of {size.triples} triples")

    with path.open("w", encoding="utf-8") as fh:
        for h, r, t in rows:
            fh.write(f"/r/Rel{r:03d},/c/en/concept_{h:05d},/c/en/concept_{t:05d},1.0\n")
    pair_counts = np.unique(rows[:, :2], axis=0, return_counts=True)[1]
    return {"max_tails_per_head_relation": int(pair_counts.max())}


@dataclass(frozen=True)
class CampaignSize:
    train: int
    new: int
    concepts: int
    duplicates: int  # concept rows that copy an earlier row exactly
    queries: int  # new campaigns whose text and caption vectors are written


MIN_CONCEPTS, MAX_CONCEPTS = 4, 12  # concepts per campaign
MM_DIM, CONCEPT_DIM = 768, 256  # the paper's vector sizes
SIGNAL = 0.5  # chance that a concept comes from its label's pool
SEPARATION = 1.5  # distance between the two multimodal label clusters


def _unit(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def make_campaigns(out: Path, seed: int, size: CampaignSize) -> dict:
    """Campaign records with a concept vocabulary and text/caption stores.

    Concepts split into two label pools. Each campaign carries between
    MIN_CONCEPTS and MAX_CONCEPTS concepts, each taken from its label's
    pool with probability SIGNAL and uniformly otherwise, and a
    multimodal vector from a label cluster. Text and caption vectors sit
    near the mean of the campaign's concepts, so retrieval and congruence
    see realistic neighbourhoods. `train.jsonl` feeds train-fusion and
    `new.jsonl` holds campaigns that training never sees; the text and
    caption stores of the new campaigns hold only the first `queries`.

    `duplicates` concept rows of the label-0 pool copy an earlier row of
    that pool under a later name, so the two score exactly alike for every
    query and put exact ties into retrieval's top k.

    Returns the per-campaign pool vote for the new campaigns, the
    generator's own signal, from which the AUC floor is set, and the map
    from each copied row to its original.
    """
    rng = np.random.default_rng(seed)
    half = size.concepts // 2
    pool_axis = _unit(rng.standard_normal(CONCEPT_DIM))
    pool_of = np.repeat([0, 1], half)
    concepts = (
        np.where(pool_of[:, None] == 1, 1.0, -1.0) * pool_axis
        + 0.6 * rng.standard_normal((size.concepts, CONCEPT_DIM)) / np.sqrt(CONCEPT_DIM)
    )
    quarter = half // 2
    originals = rng.choice(quarter, size=size.duplicates, replace=False)
    copies = quarter + rng.choice(half - quarter, size=size.duplicates, replace=False)
    concepts[copies] = concepts[originals]
    concept_names = [f"/c/en/idea_{i:04d}" for i in range(size.concepts)]
    concept_store = stores.EmbeddingStore(
        dim=CONCEPT_DIM, names=concept_names, vectors=concepts, kind_tag="concept"
    )
    stores.write_store(concept_store, out / "concepts.emb")

    mm_axis = _unit(rng.standard_normal(MM_DIM))
    votes = {}
    for split, n in (("train", size.train), ("new", size.new)):
        labels = (rng.random(n) < 0.4).astype(int)
        mm = (labels[:, None] - 0.5) * SEPARATION * mm_axis + rng.standard_normal((n, MM_DIM))
        # Every concept count equally often, whatever the seed: predict
        # batches records by count, so the batch shapes and the memory
        # they take stay the same from seed to seed.
        counts = rng.permutation(np.resize(np.arange(MIN_CONCEPTS, MAX_CONCEPTS + 1), n))
        ids = [f"{split}_{i:05d}" for i in range(n)]
        text = np.empty((n, CONCEPT_DIM))
        caption = np.empty((n, CONCEPT_DIM))
        vote = np.empty(n)
        with (out / f"{split}.jsonl").open("w", encoding="utf-8") as fh:
            for i in range(n):
                k = counts[i]
                from_pool = rng.random(k) < SIGNAL
                picks = np.where(
                    from_pool,
                    labels[i] * half + rng.integers(0, half, size=k),
                    rng.integers(0, size.concepts, size=k),
                )
                vote[i] = np.mean(pool_of[picks])
                centre = concepts[picks].mean(axis=0)
                text[i] = centre + 0.5 * rng.standard_normal(CONCEPT_DIM) / np.sqrt(CONCEPT_DIM)
                caption[i] = centre + 0.5 * rng.standard_normal(CONCEPT_DIM) / np.sqrt(CONCEPT_DIM)
                record = {
                    "id": ids[i],
                    "vec_name": ids[i],
                    "concept_names": [concept_names[c] for c in picks],
                    "label": int(labels[i]),
                }
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        keep = n if split == "train" else size.queries
        for name, vecs, tag in (
            ("mm", mm, "multimodal"), ("text", text[:keep], "text"), ("caption", caption[:keep], "caption")
        ):
            stores.write_store(
                stores.EmbeddingStore(dim=vecs.shape[1], names=ids[: len(vecs)], vectors=vecs, kind_tag=tag),
                out / f"{split}_{name}.emb",
            )
        votes[split] = vote
    return {"new_vote": votes["new"], "duplicate_of": dict(zip(copies.tolist(), originals.tolist()))}
