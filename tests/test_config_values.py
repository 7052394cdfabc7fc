"""Every config value is checked against its key's kind and rules: a bad
value is one `error:` line naming the key and exit 1, never a traceback."""
from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowfuse import kge
from knowfuse.cli import main

from conftest import cli_sections, pair_bundle_rows, write_tsv

# Tiny settings per section, so that a run that passes the checks is quick.
TINY = {
    "synth": {"n": 20, "dim": 4, "concept_dim": 4, "n_concepts": 4, "concepts_per_record": 2},
    "kge": {"dim": 4, "epochs": 1, "heldout": 4},
    "retrieval": {"k": 2},
    "fusion": {"epochs": 1, "batch_size": 8, "d_model": 4, "num_heads": 2},
}
_SECTIONS = cli_sections()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("inputs")
    assert main(["synth", "--n", "30", "--dim", "6", "--concept-dim", "4", "--n-concepts", "6",
                 "--concepts-per-record", "3", "--class-ratio", "0.5", "--out", str(d)]) == 0
    write_tsv(pair_bundle_rows(), d / "toy.tsv")
    return d


def _argv(command: str, d: Path) -> list[str]:
    """`command` with its input paths and no setting flags."""
    paths = {
        "synth": [],
        "train-kge": ["--triples", str(d / "toy.tsv")],
        "retrieve": ["--concepts", str(d / "concepts.emb"), "--queries", str(d / "concepts.emb")],
        "train-fusion": ["--records", str(d / "records.jsonl"), "--mm-store",
                         str(d / "multimodal.emb"), "--concept-store", str(d / "concepts.emb")],
    }
    return [command, *paths[command]]


def _run(command: str, config: dict, d: Path) -> tuple[int, str]:
    """Exit code and stderr of `command` run on `config`."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*_argv(command, d), "--config", str(path), "--out", str(Path(tmp) / "out")])
    return code, err.getvalue()


@pytest.mark.parametrize("command, config, key", [
    ("train-fusion", {"splits": 3}, "splits"),
    ("train-fusion", {"fusion": {"learning_rate": "0.1"}}, "learning_rate"),
    ("synth", {"synth": {"class_ratio": "0.5"}}, "class_ratio"),
    ("train-kge", {"kge": {"heldout": "2"}}, "heldout"),
    ("train-kge", {"kge": {"margin": "1"}}, "margin"),
    ("retrieve", {"retrieval": {"k": 2.5}}, "k must be an integer"),
    ("train-fusion", {"splits": {"train": 0, "val": 0, "test": 0}}, "splits.train"),
    ("train-fusion", {"fusion": {"train_concepts": "false"}}, "train_concepts"),
    ("train-fusion", {"fusion": {"train_concepts": 1}}, "train_concepts"),
    ("synth", {"seed": True}, "seed"),
    ("synth", {"seed": 1.0}, "seed"),
    ("synth", {"seed": "abc"}, "seed"),
    ("train-kge", {"kge": {"margin": True, "learning_rate": False}}, "learning_rate"),
    ("train-fusion", {"splits": {"train": 0.6, "val": 0.2, "test": 0.2, "dev": 0.1}}, "splits"),
    ("train-fusion", {"fusion": {"warmup_fraction": None}}, "fusion.warmup_fraction"),
    ("train-kge", {"kge": {"heldout": None}}, "kge.heldout"),
])
def test_bad_value_is_one_error_line_naming_the_key(command, config, key, inputs):
    section = _SECTIONS[command][0]
    code, err = _run(command, config | {section: TINY[section] | config.get(section, {})}, inputs)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err, err


def test_float_splits_are_proportions(inputs):
    config = {"splits": {"train": 0.6, "val": 0.2, "test": 0.2}, "fusion": TINY["fusion"]}
    assert _run("train-fusion", config, inputs) == (0, "")


@pytest.mark.parametrize("command, flag", [
    ("retrieve", "--seed"), ("predict", "--seed"), ("predict", "--config"),
    ("congruence", "--seed"), ("congruence", "--config"),
])
def test_commands_take_only_the_flags_they_read(command, flag, tmp_path):
    required = {
        "retrieve": ["--concepts", "c.emb", "--queries", "q.emb"],
        "predict": ["--checkpoint", "f.ckpt", "--records", "r.jsonl", "--mm-store", "m.emb",
                    "--concept-store", "c.emb"],
        "congruence": ["--text-store", "t.emb", "--image-store", "i.emb"],
    }
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main([command, *required[command], flag, "1", "--out", str(tmp_path)]) == 1
    assert f"unrecognized arguments: {flag} 1" in err.getvalue()


_leaf = (st.none() | st.booleans() | st.integers(-3, 8) | st.floats(-2, 2)
         | st.sampled_from([math.nan, math.inf, -math.inf])
         | st.text(max_size=4) | st.sampled_from([*kge.KINDS, "l1", "l2", "tsv", "conceptnet-csv"]))
_json = _leaf | st.recursive(_leaf, lambda inner: (
    st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    | st.fixed_dictionaries({"train": inner, "val": inner, "test": inner})
), max_leaves=4)


@st.composite
def _config(draw):
    """(command, config): the command's tiny settings, one key set to any JSON value."""
    command = draw(st.sampled_from(sorted(_SECTIONS)))
    section, keys = _SECTIONS[command]
    config = {section: dict(TINY[section])}
    where, key = draw(st.sampled_from([(None, "seed"), (None, "splits"),
                                       *((section, k) for k in keys)]))
    (config[where] if where else config)[key] = draw(_json)
    return command, config


@settings(max_examples=100, deadline=None)
@given(case=_config())
def test_any_json_value_exits_zero_or_one_line(inputs, case):
    command, config = case
    code, err = _run(command, config, inputs)
    assert code in (0, 1)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
