"""Shared fixtures: a small solvable graph and helpers for on-disk files."""
from __future__ import annotations

import os

# One BLAS thread, as in CI, before the knowfuse import below loads numpy:
# timed tests then do not slow down when the suite shares its cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import re  # noqa: E402
from pathlib import Path  # noqa: E402

import pytest

from knowfuse.cli import build_parser
from knowfuse.kg import KnowledgeGraph, load_triples

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_library_snippet() -> str:
    """The python block under the README's "Library use" heading."""
    section = README.read_text().split("## Library use", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, flags=re.S)
    assert match, "README has no python block under 'Library use'"
    return match.group(1)


def cli_sections() -> dict[str, tuple[str, list[str]]]:
    """Each subcommand that reads a config section: its section name and
    the keys that section may hold, as build_parser declares them."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: (p.get_default("section"), list(p.get_default("settings")))
            for name, p in sub.choices.items() if p.get_default("section")}


def pair_bundle_rows() -> list[tuple[str, str, str]]:
    """Labelled triples for a 20-entity, 2-relation, 60-triple graph.

    Entities come in 10 pairs (a, b). A bundle over a relation contributes
    the four edges (a,a), (b,b), (a,b), (b,a). Relation r2 bundles all 10
    pairs, r1 bundles the first 5, so both relations can be embedded as a
    zero translation with each pair collapsing to one point. Every held-out
    edge then has its true completion scored strictly above all filtered
    alternatives.
    """
    rows: list[tuple[str, str, str]] = []
    for i in range(10):
        a, b = f"e{2 * i}", f"e{2 * i + 1}"
        rels = ("r1", "r2") if i < 5 else ("r2",)
        for rel in rels:
            rows.append((a, rel, a))
            rows.append((b, rel, b))
            rows.append((a, rel, b))
            rows.append((b, rel, a))
    return rows


def write_tsv(rows: list[tuple[str, str, str]], path: Path) -> Path:
    path.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows))
    return path


@pytest.fixture(scope="session")
def toy_graph_rows() -> list[tuple[str, str, str]]:
    return pair_bundle_rows()


@pytest.fixture(scope="session")
def toy_graph(
    tmp_path_factory: pytest.TempPathFactory,
    toy_graph_rows: list[tuple[str, str, str]],
) -> KnowledgeGraph:
    path = tmp_path_factory.mktemp("kg") / "toy.tsv"
    write_tsv(toy_graph_rows, path)
    return load_triples(path)
