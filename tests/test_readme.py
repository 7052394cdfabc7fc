"""The README's library snippet runs against the API that exists."""
from __future__ import annotations

import re

from knowfuse.cli import main

from conftest import README, cli_sections, pair_bundle_rows, readme_library_snippet, write_tsv


def test_library_snippet_runs(tmp_path, monkeypatch):
    write_tsv(pair_bundle_rows(), tmp_path / "graph.tsv")
    assert main([
        "synth", "--n", "80", "--dim", "12", "--concept-dim", "8",
        "--n-concepts", "10", "--concepts-per-record", "3",
        "--class-ratio", "0.5", "--seed", "1", "--out", str(tmp_path),
    ]) == 0
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(readme_library_snippet(), str(README), "exec"), namespace)
    assert len(namespace["hits"]) == 5
    assert namespace["label"] in (0, 1)
    assert abs(namespace["p0"] + namespace["p1"] - 1.0) < 1e-12


def test_config_table_lists_each_sections_keys():
    section = README.read_text().split("### Config file", 1)[1].split("\n## ", 1)[0]
    documented: dict[str, list[str]] = {}
    for name, key in re.findall(r"^\| `(\w+)` \| `(\w+)` \|", section, flags=re.M):
        documented.setdefault(name, []).append(key)
    declared = {name: sorted(keys) for name, keys in cli_sections().values()}
    assert {name: sorted(keys) for name, keys in documented.items()} == declared
