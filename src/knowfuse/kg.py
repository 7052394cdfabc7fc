"""Knowledge-graph triple store.

Loads (head, relation, tail) triples from plain TSV or ConceptNet-style CSV
dumps, with first-appearance vocabularies, into one int64 [n, 3] array of
distinct ids in file order; `known_set` and membership derive from it.
`corrupt` draws filtered negatives for [B, 3] id arrays.
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


@dataclass(frozen=True)
class Triple:
    """One directed edge, all members integer ids."""

    head: int
    relation: int
    tail: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.head, self.relation, self.tail)


class Vocab:
    """Bidirectional label <-> dense id map, ids assigned in insertion order."""

    def __init__(self) -> None:
        self._labels: list[str] = []
        self._ids: dict[str, int] = {}

    def add(self, label: str) -> int:
        """Return the id for label, assigning the next dense id if new."""
        idx = self._ids.get(label)
        if idx is None:
            idx = len(self._labels)
            self._ids[label] = idx
            self._labels.append(label)
        return idx

    def label(self, idx: int) -> str:
        return self._labels[idx]

    @property
    def labels(self) -> list[str]:
        return list(self._labels)

    def __len__(self) -> int:
        return len(self._labels)


@dataclass
class KnowledgeGraph:
    """Distinct triples as one int64 [n, 3] id array, in file order, plus the
    vocabularies their ids index."""

    triples: np.ndarray
    entity_vocab: Vocab
    relation_vocab: Vocab
    duplicates_dropped: int = 0

    @property
    def num_entities(self) -> int:
        return len(self.entity_vocab)

    @property
    def num_relations(self) -> int:
        return len(self.relation_vocab)

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
        ids = np.asarray(ids, dtype=np.int64).reshape(-1, 3)
        return (ids[:, 0] * r + ids[:, 1]) * n + ids[:, 2]

    @cached_property
    def known_keys(self) -> np.ndarray:
        """Sorted keys of the triples."""
        return np.sort(self.triple_keys(self.triples))

    def is_known(self, ids) -> np.ndarray:
        """Whether each row of an [n, 3] id array is a known triple."""
        keys, known = self.triple_keys(ids), self.known_keys
        at = np.searchsorted(known, keys)
        hit = at < len(known)
        hit[hit] = known[at[hit]] == keys[hit]
        return hit


def _strip_uri(token: str) -> str:
    """The term of a ConceptNet concept URI, `/c/<lang>/<term>[/<pos>/...]`,
    the final path segment of any other URI, or the token itself."""
    token = token.strip()
    parts = token.split("/")
    if len(parts) > 3 and parts[:2] == ["", "c"] and parts[3]:
        return parts[3]
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
        raise TripleLoadError(f"line {lineno}: empty field in triple")
    return h, r, t


def load_triples(path: str | Path, fmt: str = "tsv") -> KnowledgeGraph:
    """Load a triples file into a KnowledgeGraph.

    Vocabulary ids are dense, starting at 0, assigned in first-appearance
    order (head before tail within a row). Duplicate rows after parsing are
    dropped and counted. Lines that are blank or start with '#' are skipped.

    Raises TripleLoadError on malformed rows (with the line number) and on
    files that yield no triples at all.
    """
    path = Path(path)
    entity_vocab = Vocab()
    relation_vocab = Vocab()
    rows: dict[tuple[int, int, int], None] = {}  # insertion-ordered distinct rows
    parsed = 0

    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            h, r, t = _parse_row(line, fmt, lineno)
            rows[entity_vocab.add(h), relation_vocab.add(r), entity_vocab.add(t)] = None
            parsed += 1

    if not rows:
        raise TripleLoadError(f"no triples found in {path}")
    duplicates = parsed - len(rows)
    if duplicates:
        log.info("dropped %d duplicate rows while loading %s", duplicates, path)

    return KnowledgeGraph(
        triples=np.array(list(rows), dtype=np.int64),
        entity_vocab=entity_vocab,
        relation_vocab=relation_vocab,
        duplicates_dropped=duplicates,
    )


def corrupt(
    triples: np.ndarray,
    sides: np.ndarray,
    rng: np.random.Generator,
    kg: KnowledgeGraph,
    max_attempts: int = 100,
) -> np.ndarray:
    """Corrupt one side of each row of an [B, 3] id array into a filtered
    negative; `sides` holds the B sides, 'head' or 'tail'.

    Each round resamples an entity uniformly for every row still rejected: a
    draw is rejected when it equals the row's original entity or makes a
    known true triple. When max_attempts rounds all fail for a row, as they
    can for a hub entity in a dense graph, one draw from the explicit list of
    its filtered candidates decides. Returns the B negatives as an array;
    raises CorruptionError, naming the triple, only when no candidate exists.
    """
    n = kg.num_entities
    if n < 2:
        raise ValueError("corruption needs at least 2 entities")
    sides = np.asarray(sides)
    if not ((sides == HEAD) | (sides == TAIL)).all():
        raise ValueError("every side must be 'head' or 'tail'")
    ids = np.asarray(triples, dtype=np.int64)
    out, col, todo = ids.copy(), np.where(sides == HEAD, 0, 2), np.arange(len(ids))
    original = ids[todo, col]
    for _ in range(max_attempts):
        if not todo.size:
            break
        candidates = rng.integers(0, n, size=todo.size)
        out[todo, col[todo]] = candidates
        todo = todo[(candidates == original[todo]) | kg.is_known(out[todo])]
    for i in todo.tolist():  # every draw failed: the explicit complement decides
        every = np.repeat(ids[i : i + 1], n, axis=0)
        every[:, col[i]] = np.arange(n)
        free = np.flatnonzero((every[:, col[i]] != original[i]) & ~kg.is_known(every))
        if not free.size:
            raise CorruptionError(
                f"no filtered corruption exists for {Triple(*ids[i].tolist())} on {sides[i]}: "
                f"every other entity forms a known triple"
            )
        out[i] = every[free[rng.integers(0, free.size)]]
    return out


def holdout_split(
    kg: KnowledgeGraph, count: int, seed: int
) -> tuple[KnowledgeGraph, list[Triple]]:
    """Split off `count` triples for evaluation, keeping vocabularies intact.

    The training graph keeps the remaining triples in their original order.
    """
    check_value("heldout", count, int, min=1, max=len(kg.triples) - 1)
    chosen = np.zeros(len(kg.triples), dtype=bool)
    chosen[np.random.default_rng(seed).choice(len(kg.triples), size=count, replace=False)] = True
    heldout = [Triple(*row) for row in kg.triples[chosen].tolist()]
    return replace(kg, triples=kg.triples[~chosen]), heldout
