"""Embedding stores, campaign records, synthetic data, and the artifact codecs.

Binary store layout (little endian throughout):

    magic   8 bytes  b"EMBSTOR1"
    dim     u32
    n       u64
    kind    u16 length + UTF-8 bytes
    names   n * (u16 length + UTF-8 bytes)
    data    n * dim float32, row-major

Campaign records travel as JSON lines, one object per record with fields
id, vec_name (a row name in a multimodal store), concept_names (row names
in a concept store) and label. Each id appears on one line only.

BinaryReader is the one checked reader of binary files, stores and fusion
checkpoints alike; write_json, write_jsonl and write_csv are the one writer
of each text artifact. The two large JSONL outputs, retrieved.jsonl and
predictions.jsonl, go through the line encoder of write_retrieved_jsonl and
write_predictions_jsonl: it joins pre-encoded pieces into the bytes
write_jsonl would write for the same objects, without building them.
"""
from __future__ import annotations

import csv
import itertools
import json
import struct
from dataclasses import dataclass, field
from operator import add, itemgetter
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    DimMismatchError,
    DuplicateNameError,
    NonFiniteError,
    StoreFormatError,
    TruncatedStoreError,
    check_fields,
)

STORE_MAGIC = b"EMBSTOR1"


@dataclass
class EmbeddingStore:
    """An ordered, named collection of equal-length float32 vectors."""

    dim: int
    names: list[str]
    vectors: np.ndarray
    kind_tag: str = ""

    def __post_init__(self) -> None:
        self.vectors = np.ascontiguousarray(self.vectors, dtype=np.float32)
        if self.dim < 1:
            raise DimMismatchError(f"dim must be >= 1, got {self.dim}")
        if self.vectors.shape != (len(self.names), self.dim):
            raise DimMismatchError(
                f"vectors shape {self.vectors.shape} does not match "
                f"{len(self.names)} names x dim {self.dim}"
            )
        seen: set[str] = set()
        for name in self.names:
            if name in seen:
                raise DuplicateNameError(f"duplicate row name {name!r}")
            seen.add(name)
        bad = ~np.isfinite(self.vectors)
        if bad.any():
            row = int(np.nonzero(bad.any(axis=1))[0][0])
            raise NonFiniteError(
                f"non-finite value in row {row} ({self.names[row]!r})"
            )
        self._index = {name: i for i, name in enumerate(self.names)}

    @property
    def n(self) -> int:
        return len(self.names)

    def row(self, name: str) -> np.ndarray:
        try:
            return self.vectors[self._index[name]]
        except KeyError:
            raise KeyError(f"no row named {name!r} in store") from None

    def row_index(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"no row named {name!r} in store")
        return self._index[name]

    def __contains__(self, name: str) -> bool:
        return name in self._index


def _encode_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError(f"name too long to encode ({len(raw)} bytes)")
    return struct.pack("<H", len(raw)) + raw


def write_store(store: EmbeddingStore, path: str | Path) -> None:
    """Serialise a store; output bytes are a pure function of the contents."""
    parts = [
        STORE_MAGIC,
        struct.pack("<I", store.dim),
        struct.pack("<Q", store.n),
        _encode_str(store.kind_tag),
    ]
    parts.extend(_encode_str(name) for name in store.names)
    parts.append(np.ascontiguousarray(store.vectors, dtype="<f4").tobytes())
    Path(path).write_bytes(b"".join(parts))


def write_json(obj, path: str | Path) -> None:
    """One sorted-key JSON document, indented by two spaces."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_jsonl(objs, path: str | Path) -> None:
    """One sorted-key JSON object per line, written as `objs` yields them."""
    _write_lines((json.dumps(obj, sort_keys=True) + "\n" for obj in objs), path)


def _write_lines(lines, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(lines)


# The line encoder's rules are json.dumps(obj, sort_keys=True)'s: keys in
# sorted order, strings by json's ASCII escaping, and floats by
# float.__repr__, with json's spellings of nan and the infinities.
_json_str = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(xs) -> list[str]:
    out = list(map(float.__repr__, xs))
    if not _NON_FINITE.keys().isdisjoint(out):
        out = [_NON_FINITE.get(r, r) for r in out]
    return out


class _HitHeads(dict):
    """Concept name -> '{"name": <name>, "score": ', encoded on first use."""

    def __missing__(self, name: str) -> str:
        self[name] = head = f'{{"name": {_json_str(name)}, "score": '
        return head


def write_retrieved_jsonl(hits_by_query, path: str | Path) -> None:
    """For each (query name, [(concept name, score), ...]) of `hits_by_query`,
    the line {"concepts": [{"name": name, "score": score}, ...], "id": query
    name}, as write_jsonl writes it."""
    head = _HitHeads().__getitem__
    name_of, score_of = itemgetter(0), itemgetter(1)

    def line(query: str, hits) -> str:
        # Maps, not a loop, so that no Python frame runs per hit.
        concepts = "}, ".join(map(add, map(head, map(name_of, hits)),
                                  _json_floats(map(score_of, hits))))
        if hits:
            concepts += "}"
        return f'{{"concepts": [{concepts}], "id": {_json_str(query)}}}\n'

    _write_lines(itertools.starmap(line, hits_by_query), path)


def write_predictions_jsonl(ids, labels: np.ndarray, p1: np.ndarray, path: str | Path) -> None:
    """For each record id, with its predicted label and positive-class
    probability, the line {"id": id, "label": label, "p0": 1 - p1, "p1": p1},
    as write_jsonl writes it."""
    # Ids come from JSON records and may be any scalar, which json.dumps
    # writes as write_jsonl does.
    _write_lines((f'{{"id": {rec_id}, "label": {label}, "p0": {p0}, "p1": {p}}}\n'
                  for rec_id, label, p0, p in zip(map(json.dumps, ids), labels.tolist(),
                                                  _json_floats((1.0 - p1).tolist()),
                                                  _json_floats(p1.tolist()))), path)


def write_csv(header: list[str], rows, path: str | Path) -> None:
    """`header`, then one CSV line per row of `rows`."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class BinaryReader:
    """A file's bytes and a cursor, placed after the file's `magic`.

    Every read checks its bounds first and raises TruncatedStoreError. A
    file that does not start with `magic` raises BadMagicError, which says
    it is not `what` (such as "an embedding store")."""

    def __init__(self, path: str | Path, magic: bytes, what: str) -> None:
        self.path = path
        self.buf = memoryview(Path(path).read_bytes())
        self.pos = 0
        start = self._skip(len(magic))
        if self.buf[start : self.pos] != magic:
            raise BadMagicError(f"{path}: not {what} (bad magic)")

    def _skip(self, n: int) -> int:
        """Move the cursor n bytes on; return where it was."""
        start = self.pos
        if start + n > len(self.buf):
            raise TruncatedStoreError(
                f"{self.path}: needed {n} bytes at offset {start}, file has {len(self.buf)}"
            )
        self.pos += n
        return start

    def unpack(self, fmt: str) -> tuple:
        """struct.unpack of `fmt`, which sets its own byte order, at the cursor."""
        return struct.unpack_from(fmt, self.buf, self._skip(struct.calcsize(fmt)))

    def strings(self, n: int) -> list[str]:
        """n strings, each a u16 byte length and that many UTF-8 bytes,
        decoded in one pass over the file's bytes."""
        data, pos, end = self.buf.obj, self.pos, len(self.buf)
        out = []
        try:
            for _ in range(n):
                start = pos + 2
                if start > end:
                    self.pos = pos
                    self._skip(2)  # raises TruncatedStoreError
                stop = start + (data[pos] | data[pos + 1] << 8)
                if stop > end:
                    self.pos = start
                    self._skip(stop - start)  # raises TruncatedStoreError
                out.append(data[start:stop].decode("utf-8"))
                pos = stop
        except UnicodeDecodeError as exc:
            raise StoreFormatError(f"{self.path}: undecodable name bytes") from exc
        self.pos = pos
        return out

    def floats(self, count: int) -> np.ndarray:
        """A read-only view of the next `count` little-endian float32s."""
        return np.frombuffer(self.buf, dtype="<f4", count=count, offset=self._skip(4 * count))

    def done(self) -> None:
        """Raise StoreFormatError if bytes remain after the cursor."""
        if self.pos != len(self.buf):
            raise StoreFormatError(f"{self.path}: {len(self.buf) - self.pos} trailing bytes")


def read_store(path: str | Path) -> EmbeddingStore:
    """Read a store file, validating structure and contents.

    Raises BadMagicError, TruncatedStoreError, DuplicateNameError,
    NonFiniteError or DimMismatchError as appropriate; plain OSError
    surfaces for missing or unreadable paths.
    """
    rd = BinaryReader(path, STORE_MAGIC, "an embedding store")
    dim, n = rd.unpack("<IQ")
    if dim < 1:
        raise DimMismatchError(f"{path}: dim must be >= 1, got {dim}")
    (kind_tag,) = rd.strings(1)
    names = rd.strings(n)
    vectors = rd.floats(n * dim)
    rd.done()
    return EmbeddingStore(dim=dim, names=names, vectors=vectors.reshape(n, dim).copy(),
                          kind_tag=kind_tag)


@dataclass
class CampaignRecord:
    """One classification example: a multimodal vector, its retrieved
    concept row ids, and a binary label (1 = successful)."""

    id: str
    multimodal_vec: np.ndarray
    concept_ids: list[int]
    label: int

    def __post_init__(self) -> None:
        self.multimodal_vec = np.asarray(self.multimodal_vec, dtype=np.float32)
        if self.multimodal_vec.ndim != 1:
            raise ValueError(f"record {self.id}: multimodal_vec must be 1-d")
        if not np.isfinite(self.multimodal_vec).all():
            raise ValueError(f"record {self.id}: non-finite multimodal_vec")
        if isinstance(self.label, (bool, np.bool_)) or self.label not in (0, 1):
            raise ValueError(f"record {self.id}: label must be 0 or 1, got {self.label!r}")


def records_to_store(records: list[CampaignRecord]) -> EmbeddingStore:
    """Stack record vectors into a store, row names = record ids."""
    if not records:
        raise ValueError("no records")
    dim = records[0].multimodal_vec.shape[0]
    return EmbeddingStore(
        dim=dim,
        names=[r.id for r in records],
        vectors=np.stack([r.multimodal_vec for r in records]),
        kind_tag="multimodal",
    )


def write_records_jsonl(
    records: list[CampaignRecord], concept_store: EmbeddingStore, path: str | Path
) -> None:
    """One JSON object per line: {id, vec_name, concept_names, label}."""
    write_jsonl(
        ({"id": r.id, "vec_name": r.id, "label": r.label,
          "concept_names": [concept_store.names[i] for i in r.concept_ids]} for r in records),
        path,
    )


def _records_style_rows(path: str | Path, *extra: str):
    """Yield (line number, id, concept_names, *extra fields) for each
    non-blank line of a records-style JSONL file.

    Raises ValueError, naming the line, on malformed JSON, a missing field,
    concept_names that are not a list of strings, or an id that an earlier
    line already used, by type and value (1, 1.0 and true are three ids);
    and when the file holds no records.
    """
    first_line: dict = {}
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                rec_id, names, *values = (obj[key] for key in ("id", "concept_names", *extra))
                first = first_line.setdefault((type(rec_id), rec_id), lineno)
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}: bad record on line {lineno}: {exc}") from exc
            if not (isinstance(names, list) and all(isinstance(c, str) for c in names)):
                raise ValueError(f"{path}: line {lineno}: concept_names must be a list of names")
            if first != lineno:
                raise ValueError(
                    f"{path}: line {lineno}: duplicate id {rec_id!r} (first on line {first})"
                )
            yield lineno, rec_id, names, *values
    if not first_line:
        raise ValueError(f"{path}: no records found")


def read_records_jsonl(
    path: str | Path, mm_store: EmbeddingStore, concept_store: EmbeddingStore
) -> list[CampaignRecord]:
    """Resolve a JSONL records file against its stores.

    Raises ValueError on malformed lines, repeated ids or unresolvable
    names, with the line number in the message.
    """
    records: list[CampaignRecord] = []
    for lineno, rec_id, concept_names, vec_name, label in _records_style_rows(
        path, "vec_name", "label"
    ):
        # Only the JSON integers 0 and 1: int() would also turn 1.7,
        # true and "1" into labels.
        if type(label) is not int or label not in (0, 1):
            raise ValueError(
                f"{path}: line {lineno}: label must be the integer 0 or 1, got {label!r}"
            )
        if not isinstance(vec_name, str) or vec_name not in mm_store:
            raise ValueError(
                f"{path}: line {lineno}: vec_name {vec_name!r} not in store"
            )
        try:
            ids = [concept_store.row_index(c) for c in concept_names]
        except KeyError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
        records.append(
            CampaignRecord(
                id=rec_id,
                multimodal_vec=mm_store.row(vec_name).copy(),
                concept_ids=ids,
                label=label,
            )
        )
    return records


def read_concept_map(path: str | Path) -> dict[str, list[str]]:
    """id -> concept_names from a records-style JSONL, other fields ignored;
    rejects what read_records_jsonl rejects in those two fields, and an id
    that is not a string, since each id names a store row."""
    concept_map = {}
    for lineno, rec_id, names in _records_style_rows(path):
        if not isinstance(rec_id, str):
            raise ValueError(f"{path}: line {lineno}: id {rec_id!r} is not a string")
        concept_map[rec_id] = names
    return concept_map


@dataclass
class SynthConfig:
    """Controls for the synthetic campaign generator.

    class_ratio is the fraction of label-0 (unsuccessful) records.
    concept_signal_strength is the probability that each retrieved concept
    is drawn from the label's own concept pool rather than uniformly, so 0
    makes concepts pure noise and 1 makes them (nearly) determine the label.
    """

    n: int = field(default=1000, metadata={"min": 10})
    dim: int = field(default=768, metadata={"min": 1})
    class_ratio: float = field(default=0.6063, metadata={"min": 0, "max": 1, "open": True})
    concept_signal_strength: float = field(default=1.0, metadata={"min": 0, "max": 1})
    seed: int = 0
    concept_dim: int = field(default=256, metadata={"min": 1})
    n_concepts: int = field(default=50, metadata={"min": 4, "even": True})
    concepts_per_record: int = field(default=10, metadata={"min": 1})
    # A negative separation would swap the two class clusters.
    cluster_separation: float = field(default=1.0, metadata={"min": 0})

    def __post_init__(self) -> None:
        check_fields(self)


def synth_dataset(cfg: SynthConfig) -> tuple[list[CampaignRecord], EmbeddingStore]:
    """Generate labelled records plus a concept store.

    Multimodal vectors form two Gaussian clusters whose centres sit
    cluster_separation apart along a random direction, one cluster per
    label. Concepts split into two pools with well separated Gaussian
    vectors; each record samples concepts_per_record ids, taking each from
    its label's pool with probability concept_signal_strength and uniformly
    from all concepts otherwise.
    """
    rng = np.random.default_rng(cfg.seed)

    n0 = int(round(cfg.n * cfg.class_ratio))
    n0 = min(max(n0, 1), cfg.n - 1)
    labels = np.array([0] * n0 + [1] * (cfg.n - n0))
    labels = rng.permutation(labels)

    axis = rng.standard_normal(cfg.dim)
    axis /= np.linalg.norm(axis)
    centers = np.stack([-0.5 * cfg.cluster_separation * axis, 0.5 * cfg.cluster_separation * axis])
    mm = centers[labels] + rng.standard_normal((cfg.n, cfg.dim))

    c_axis = rng.standard_normal(cfg.concept_dim)
    c_axis /= np.linalg.norm(c_axis)
    pool_centers = np.stack([-2.0 * c_axis, 2.0 * c_axis])
    half = cfg.n_concepts // 2
    pool_of_concept = np.repeat([0, 1], half)
    concept_vecs = (
        pool_centers[pool_of_concept]
        + 0.25 * rng.standard_normal((cfg.n_concepts, cfg.concept_dim))
    )
    concept_store = EmbeddingStore(
        dim=cfg.concept_dim,
        names=[f"concept_{i:04d}" for i in range(cfg.n_concepts)],
        vectors=concept_vecs,
        kind_tag="concept",
    )

    k = cfg.concepts_per_record
    from_pool = rng.random((cfg.n, k)) < cfg.concept_signal_strength
    pool_pick = rng.integers(0, half, size=(cfg.n, k))
    any_pick = rng.integers(0, cfg.n_concepts, size=(cfg.n, k))
    pool_base = labels[:, None] * half
    concept_ids = np.where(from_pool, pool_base + pool_pick, any_pick)

    width = len(str(cfg.n - 1))
    records = [
        CampaignRecord(
            id=f"rec_{i:0{width}d}",
            multimodal_vec=mm[i],
            concept_ids=concept_ids[i].tolist(),
            label=int(labels[i]),
        )
        for i in range(cfg.n)
    ]
    return records, concept_store
