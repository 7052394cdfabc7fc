"""Mutated and truncated FUSNET01 and EMBSTOR1 files.

Every case must end in a KnowfuseError or a valid load: never another
exception, and never an allocation much larger than the file itself.
"""
from __future__ import annotations

import json
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowfuse.errors import KnowfuseError
from knowfuse.fusion import FusionConfig, FusionNet, load_checkpoint, save_checkpoint
from knowfuse.stores import EmbeddingStore, read_store, write_store

# The files below are a few hundred bytes; a reader that sizes its payload
# from an unchecked header asks for orders of magnitude more.
PEAK_LIMIT = 1 << 20


def _fusion_files() -> tuple[bytes, bytes]:
    cfg = FusionConfig(d_model=4, num_heads=2, multimodal_dim=3, knowledge_dim=3, seed=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.ckpt"
        save_checkpoint(FusionNet(cfg), path)
        return path.read_bytes(), path.with_name("net.ckpt.json").read_bytes()


def _store_file() -> bytes:
    store = EmbeddingStore(
        dim=2, names=["a", "bb", "ccc"], vectors=np.arange(6.0).reshape(3, 2), kind_tag="kind"
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.emb"
        write_store(store, path)
        return path.read_bytes()


CKPT, SIDECAR = _fusion_files()
STORE = _store_file()


@st.composite
def _mutated(draw, data: bytes, header_end: int) -> bytes:
    """data with byte edits, u32 overwrites in the header, a cut and a tail."""
    buf = bytearray(data)
    for pos, value in draw(st.lists(st.tuples(st.integers(0, len(buf) - 1),
                                              st.integers(0, 255)), max_size=4)):
        buf[pos] = value
    for pos, value in draw(st.lists(st.tuples(st.integers(8, header_end - 4),
                                              st.integers(0, 2**32 - 1)), max_size=2)):
        buf[pos : pos + 4] = struct.pack("<I", value)
    buf = buf[: draw(st.integers(0, len(buf)))]
    return bytes(buf) + draw(st.binary(max_size=8))


def _load_bounded(load, path: Path) -> None:
    tracemalloc.start()
    try:
        load(path)
    except KnowfuseError:
        pass
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert peak < PEAK_LIMIT, peak


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz")


class TestFusionCheckpoint:
    @settings(max_examples=150, deadline=None)
    @given(ckpt=_mutated(CKPT, 28), sidecar=st.one_of(
        st.none(), st.just(SIDECAR), _mutated(SIDECAR, 12)))
    def test_mutated_checkpoint(self, workdir, ckpt, sidecar):
        path = workdir / "net.ckpt"
        path.write_bytes(ckpt)
        side = workdir / "net.ckpt.json"
        side.unlink(missing_ok=True)
        if sidecar is not None:
            side.write_bytes(sidecar)
        _load_bounded(load_checkpoint, path)

    @settings(max_examples=60, deadline=None)
    @given(key=st.sampled_from(sorted(json.loads(SIDECAR))),
           value=st.one_of(st.none(), st.booleans(), st.integers(-2**40, 2**40),
                           st.floats(allow_nan=True), st.text(max_size=4),
                           st.lists(st.integers(), max_size=2)))
    def test_sidecar_value_swapped(self, workdir, key, value):
        path = workdir / "net.ckpt"
        path.write_bytes(CKPT)
        cfg = json.loads(SIDECAR)
        cfg[key] = value
        (workdir / "net.ckpt.json").write_text(json.dumps(cfg))
        _load_bounded(load_checkpoint, path)


class TestEmbeddingStore:
    @settings(max_examples=150, deadline=None)
    @given(data=_mutated(STORE, 20))
    def test_mutated_store(self, workdir, data):
        path = workdir / "s.emb"
        path.write_bytes(data)
        _load_bounded(read_store, path)
