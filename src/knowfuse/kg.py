"""Knowledge-graph triple store.

Loads (head, relation, tail) triples from plain TSV or from ConceptNet-style
CSV dumps, builds dense integer vocabularies in first-appearance order, and
provides the filtered entity corruption used for negative sampling.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocab):
            return NotImplemented
        return self._labels == other._labels


@dataclass
class KnowledgeGraph:
    """Parsed triples plus vocabularies and a membership set for filtering."""

    triples: list[Triple]
    entity_vocab: Vocab
    relation_vocab: Vocab
    known_set: frozenset[tuple[int, int, int]] = field(default_factory=frozenset)
    duplicates_dropped: int = 0

    @property
    def num_entities(self) -> int:
        return len(self.entity_vocab)

    @property
    def num_relations(self) -> int:
        return len(self.relation_vocab)

    def with_triples(self, triples: list[Triple]) -> "KnowledgeGraph":
        """A graph over the same vocabularies but a different triple list."""
        return KnowledgeGraph(
            triples=list(triples),
            entity_vocab=self.entity_vocab,
            relation_vocab=self.relation_vocab,
            known_set=frozenset(t.as_tuple() for t in triples),
        )

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
        """Sorted keys of known_set."""
        return np.sort(self.triple_keys(list(self.known_set)))

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
    triples: list[Triple] = []
    seen: set[tuple[int, int, int]] = set()
    duplicates = 0

    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            h, r, t = _parse_row(line, fmt, lineno)
            triple = Triple(
                head=entity_vocab.add(h),
                relation=relation_vocab.add(r),
                tail=entity_vocab.add(t),
            )
            key = triple.as_tuple()
            if key in seen:
                duplicates += 1
                continue
            seen.add(key)
            triples.append(triple)

    if not triples:
        raise TripleLoadError(f"no triples found in {path}")
    if duplicates:
        log.info("dropped %d duplicate rows while loading %s", duplicates, path)

    return KnowledgeGraph(
        triples=triples,
        entity_vocab=entity_vocab,
        relation_vocab=relation_vocab,
        known_set=frozenset(seen),
        duplicates_dropped=duplicates,
    )


def corrupt(
    triple: Triple,
    side: str,
    rng: np.random.Generator,
    kg: KnowledgeGraph,
    max_attempts: int = 100,
) -> Triple:
    """Corrupt one side of a triple into a filtered negative.

    Resamples an entity uniformly until the result differs from the input on
    the chosen side and is not a known true triple. When max_attempts uniform
    draws all fail, as they can for a hub entity in a dense graph, one draw
    from the explicit list of filtered candidates decides. Raises
    CorruptionError only when no candidate exists.

    `triple` may also be an [B, 3] id array, with `side` an array of B sides:
    each round draws for every row still rejected, and the B negatives come
    back as an array. For B = 1 the draws are those of the single form.
    """
    if isinstance(triple, Triple):
        if side not in (HEAD, TAIL):
            raise ValueError(f"side must be 'head' or 'tail', got {side!r}")
        row = corrupt(np.array([triple.as_tuple()]), np.array([side]), rng, kg, max_attempts)
        return Triple(*row[0].tolist())
    n = kg.num_entities
    if n < 2:
        raise ValueError("corruption needs at least 2 entities")
    sides = np.asarray(side)
    if not ((sides == HEAD) | (sides == TAIL)).all():
        raise ValueError("every side must be 'head' or 'tail'")
    ids = np.asarray(triple, dtype=np.int64)
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
    rng = np.random.default_rng(seed)
    chosen = set(rng.choice(len(kg.triples), size=count, replace=False).tolist())
    heldout = [t for i, t in enumerate(kg.triples) if i in chosen]
    remaining = [t for i, t in enumerate(kg.triples) if i not in chosen]
    return kg.with_triples(remaining), heldout
