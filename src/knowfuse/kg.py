"""Knowledge-graph triple store.

Loads (head, relation, tail) triples from plain TSV or ConceptNet-style CSV
dumps into one int64 [n, 3] array of distinct ids in file order, with entity
and relation label lists indexed by id; `known_set` and membership derive
from the array. `corrupt` draws filtered negatives for [B, 3] id arrays,
on the head or the tail of each row as a boolean mask says, and tests each
candidate by its int64 triple key. A ConceptNet URI without a term is a
load error.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import CorruptionError, TripleLoadError, check_value

log = logging.getLogger(__name__)

HEAD = "head"
TAIL = "tail"

# Uniform resampling rounds `corrupt` tries before its explicit fallback.
CORRUPT_ATTEMPTS = 100


@dataclass(frozen=True)
class Triple:
    """One directed edge, all members integer ids."""

    head: int
    relation: int
    tail: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.head, self.relation, self.tail)


@dataclass
class KnowledgeGraph:
    """Distinct triples as one int64 [n, 3] id array, in file order, plus the
    entity and relation labels their ids index."""

    triples: np.ndarray
    entities: list[str]
    relations: list[str]
    duplicates_dropped: int = 0

    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    @property
    def known_set(self) -> frozenset[tuple[int, int, int]]:
        """The triples as id tuples, built from the array on every read."""
        return frozenset(map(tuple, self.triples.tolist()))

    def triple_keys(self, ids) -> np.ndarray:
        """int64 key (head * R + relation) * N + tail of each row of an [n, 3]
        id array, for N entities and R relations: keys sort as their rows do."""
        n, r = self.num_entities, self.num_relations
        if n * n * max(r, 1) >= 2**63:
            raise ValueError(f"{n} entities and {r} relations overflow int64 triple keys")
        return np.dot(np.asarray(ids, dtype=np.int64).reshape(-1, 3), (r * n, n, 1))

    @cached_property
    def known_keys(self) -> np.ndarray:
        """Sorted keys of the triples."""
        return np.sort(self.triple_keys(self.triples))

    def is_known(self, keys) -> np.ndarray:
        """Whether each int64 triple key (see `triple_keys`) is a known triple's."""
        known = self.known_keys
        if not len(known):
            return np.zeros(np.shape(keys), dtype=bool)
        # A key past the last known one clips onto it, which is smaller.
        return known.take(np.searchsorted(known, keys), mode="clip") == keys


def _strip_uri(token: str) -> str:
    """The term of a ConceptNet concept URI, `/c/<lang>/<term>[/<pos>/...]`
    ('' when it has none), '' for a relation URI `/r/` without a name, the
    final path segment of any other URI, or the token itself."""
    token = token.strip()
    parts = token.split("/")
    if parts[:2] == ["", "c"]:
        return parts[3] if len(parts) > 3 else ""
    if parts[:2] == ["", "r"] and not any(parts[2:]):
        return ""
    if "/" in token:
        token = token.rstrip("/").rsplit("/", 1)[-1]
    return token


def _parse_row(line: str, fmt: str, lineno: int) -> tuple[str, str, str]:
    if fmt == "tsv":
        cols = line.split("\t")
        if len(cols) < 3:
            raise TripleLoadError(
                f"line {lineno}: expected 3 tab-separated fields, got {len(cols)}"
            )
        h, r, t = (c.strip() for c in cols[:3])
    elif fmt == "conceptnet-csv":
        # Dump rows are relation,head,tail with URI-style tokens. Extra
        # columns are ignored. Some dumps are tab separated.
        cols = line.split("\t") if "\t" in line else line.split(",")
        if len(cols) < 3:
            raise TripleLoadError(
                f"line {lineno}: expected 3 columns (relation, head, tail), got {len(cols)}"
            )
        r, h, t = (_strip_uri(c) for c in cols[:3])
    else:
        raise ValueError(f"unknown triples format: {fmt!r}")
    if not h or not r or not t:
        raise TripleLoadError(f"line {lineno}: empty field or URI term in triple")
    return h, r, t


def load_triples(path: str | Path, fmt: str = "tsv") -> KnowledgeGraph:
    """Load a triples file into a KnowledgeGraph.

    Entity and relation ids are dense, starting at 0, assigned in
    first-appearance order (head before tail within a row); each id indexes
    its label list. Duplicate rows after parsing are dropped and counted.
    Lines that are blank or start with '#' are skipped.

    Raises TripleLoadError on malformed rows (with the line number) and on
    files that yield no triples at all.
    """
    path = Path(path)
    ents: dict[str, int] = {}  # label -> id, in first-appearance order
    rels: dict[str, int] = {}
    rows: dict[tuple[int, int, int], None] = {}  # insertion-ordered distinct rows
    parsed = 0

    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            h, r, t = _parse_row(line, fmt, lineno)
            rows[ents.setdefault(h, len(ents)), rels.setdefault(r, len(rels)),
                 ents.setdefault(t, len(ents))] = None
            parsed += 1

    if not rows:
        raise TripleLoadError(f"no triples found in {path}")
    duplicates = parsed - len(rows)
    if duplicates:
        log.info("dropped %d duplicate rows while loading %s", duplicates, path)

    return KnowledgeGraph(
        triples=np.array(list(rows), dtype=np.int64),
        entities=list(ents),
        relations=list(rels),
        duplicates_dropped=duplicates,
    )


def corrupt(
    triples: np.ndarray,
    head: np.ndarray,
    rng: np.random.Generator,
    kg: KnowledgeGraph,
) -> np.ndarray:
    """Corrupt one side of each row of an [B, 3] id array into a filtered
    negative: the head where the boolean mask `head` is True, else the tail.

    Each round resamples an entity uniformly for every row still rejected: a
    draw is rejected when it equals the row's original entity or makes a
    known true triple. When CORRUPT_ATTEMPTS rounds all fail for a row, as
    they can for a hub entity in a dense graph, one draw from the explicit
    list of its filtered candidates decides. Returns the B negatives as an array;
    raises CorruptionError, naming the triple, only when no candidate exists.
    """
    n = kg.num_entities
    if n < 2:
        raise ValueError("corruption needs at least 2 entities")
    ids = np.asarray(triples, dtype=np.int64)
    head = np.asarray(head)
    if head.dtype != bool or head.shape != (len(ids),):
        raise ValueError(f"head must be a boolean mask of {len(ids)} sides, "
                         f"got {head.dtype} of shape {head.shape}")
    original = np.where(head, ids[:, 0], ids[:, 2])
    # Putting entity c on a row's corrupted side gives the key base + c * scale.
    scale = np.where(head, kg.num_relations * n, 1)
    base = kg.triple_keys(ids) - original * scale
    if CORRUPT_ATTEMPTS and len(ids):  # the first round draws for every row
        drawn = rng.integers(0, n, size=len(ids))
        todo = np.flatnonzero((drawn == original) | kg.is_known(base + drawn * scale))
    else:
        drawn, todo = original.copy(), np.arange(len(ids))
    for _ in range(CORRUPT_ATTEMPTS - 1):
        if not todo.size:
            break
        candidates = rng.integers(0, n, size=todo.size)
        drawn[todo] = candidates
        keys = base[todo] + candidates * scale[todo]
        todo = todo[(candidates == original[todo]) | kg.is_known(keys)]
    for i in todo.tolist():  # every draw failed: the explicit complement decides
        every = np.arange(n)
        free = np.flatnonzero((every != original[i]) & ~kg.is_known(base[i] + every * scale[i]))
        if not free.size:
            raise CorruptionError(
                f"no filtered corruption exists for {Triple(*ids[i].tolist())} on "
                f"{HEAD if head[i] else TAIL}: every other entity forms a known triple"
            )
        drawn[i] = free[rng.integers(0, free.size)]
    out = ids.copy()
    np.copyto(out[:, 0], drawn, where=head)
    np.copyto(out[:, 2], drawn, where=~head)
    return out


def holdout_split(
    kg: KnowledgeGraph, count: int, seed: int
) -> tuple[KnowledgeGraph, list[Triple]]:
    """Split off `count` triples for evaluation, keeping the label lists intact.

    The training graph keeps the remaining triples in their original order.
    """
    check_value("heldout", count, int, min=1, max=len(kg.triples) - 1)
    chosen = np.zeros(len(kg.triples), dtype=bool)
    chosen[np.random.default_rng(seed).choice(len(kg.triples), size=count, replace=False)] = True
    heldout = [Triple(*row) for row in kg.triples[chosen].tolist()]
    return replace(kg, triples=kg.triples[~chosen]), heldout
