"""Timers and spans installed around knowfuse's public functions.

Two instruments, both patched in from outside the package:

* `StageTimer` times the two stage-level functions that run once per
  train-kge command, `kge.train` and `kge.link_predict_eval`, and keeps
  their arguments so the checks can recompute ranks. It is the only timer
  below the CLI in an untraced run.
* `Tracer` wraps every public function of each layer module (and the
  constructors that do work) in a span. Spans are aggregated in memory per
  (stage, function) into a call count, total time and self time, where
  self time excludes the time of nested spans. Per-pair and per-query
  calls therefore cost a counter update, not a stored span.
"""
from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict

from knowfuse import cli, congruence, fusion, kg, kge, metrics, retrieval, stores

LAYERS = (kg, kge, stores, retrieval, fusion, metrics, congruence)
# Constructors that validate or transform data; cheap value types such as
# Triple or the config dataclasses stay unwrapped.
CONSTRUCTORS = (
    (stores, "EmbeddingStore"),
    (retrieval, "ConceptIndex"),
    (congruence, "ModalityPairSet"),
    (fusion, "FusionNet"),
)
NAMESPACES = (cli, *LAYERS)


class _Patches:
    """Attribute replacements that can be undone, newest first."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace_everywhere(self, original, replacement) -> None:
        """Point every knowfuse module attribute bound to `original` at
        `replacement`, so `from .kg import corrupt` style imports see it."""
        for module in NAMESPACES:
            for name, value in list(vars(module).items()):
                if value is original:
                    self.set(module, name, replacement)

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class StageTimer:
    """Times `kge.train` and `kge.link_predict_eval` and records their inputs."""

    def __init__(self) -> None:
        self.calls: list[dict] = []
        self._patches = _Patches()

    def install(self) -> None:
        for name in ("train", "link_predict_eval"):
            self._patches.set(kge, name, self._timed(name, getattr(kge, name)))

    def uninstall(self) -> None:
        self._patches.undo()

    def _timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self.calls.append(
                {"fn": name, "s": time.perf_counter() - start, "args": args, "result": result}
            )
            return result

        return wrapper


class Tracer:
    """Aggregated spans per (stage, function name) while installed."""

    def __init__(self) -> None:
        self.stage = ""
        self.spans: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[float] = []
        self._patches = _Patches()

    def install(self) -> None:
        for module in LAYERS:
            prefix = module.__name__.rsplit(".", 1)[-1]
            for name, value in list(vars(module).items()):
                if (
                    not name.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    self._patches.replace_everywhere(value, self._wrap(f"{prefix}.{name}", value))
        for module, cls_name in CONSTRUCTORS:
            cls = getattr(module, cls_name)
            prefix = module.__name__.rsplit(".", 1)[-1]
            self._patches.set(cls, "__init__", self._wrap(f"{prefix}.{cls_name}", cls.__init__))

    def uninstall(self) -> None:
        self._patches.undo()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def span(self, name: str, fn, *args):
        """Run fn(*args) inside a span named `name`."""
        return self._wrap(name, fn)(*args)

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
                agg = self.spans[(self.stage, name)]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - child
            if observe is not None:
                observe(self.counts, self.stage, args, result)
            return result

        return wrapper

    def total(self, name: str, stage: str | None = None) -> tuple[int, float, float]:
        """(calls, total s, self s) for a function over one stage or all."""
        calls, total, self_s = 0, 0.0, 0.0
        for (st, fn), (c, t, s) in self.spans.items():
            if fn == name and (stage is None or st == stage):
                calls, total, self_s = calls + c, total + t, self_s + s
        return calls, total, self_s

    def count(self, name: str, stage: str | None = None) -> float:
        return sum(v for (st, key), v in self.counts.items()
                   if key == name and (stage is None or st == stage))


def _count_active(counts, stage, args, result) -> None:
    counts[(stage, "kge.grad.active")] += bool(result)


def _count_store_bytes(counts, stage, args, result) -> None:
    counts[(stage, "stores.read_store.bytes")] += os.path.getsize(args[0])


def _count_records(counts, stage, args, result) -> None:
    counts[(stage, "stores.read_records_jsonl.records")] += len(result)


def _count_evaluated(counts, stage, args, result) -> None:
    counts[(stage, "fusion.evaluate_records.records")] += len(args[1])


def _count_epochs(counts, stage, args, result) -> None:
    counts[(stage, "fusion.train_classifier.epochs")] += len(result.history)


_OBSERVERS = {
    "kge.grad": _count_active,
    "stores.read_store": _count_store_bytes,
    "stores.read_records_jsonl": _count_records,
    "fusion.evaluate_records": _count_evaluated,
    "fusion.train_classifier": _count_epochs,
}


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced round; a figure whose function never
    ran in the round is left out."""
    m: dict[str, float] = {}

    def total_s(name, key=None, stage=None):
        calls, total, _ = tr.total(name, stage)
        if calls:
            m[key or f"{name}.s"] = total

    for cmd in ("train_kge", "retrieve", "train_fusion", "predict", "congruence"):
        calls, _, self_s = tr.total(f"cli.{cmd}")
        if calls:
            m[f"cli.{cmd}.self_s"] = self_s

    for name in ("kg.load_triples", "kg.holdout_split", "kg.corrupt"):
        total_s(name)
    corrupt_calls = tr.total("kg.corrupt")[0]
    if corrupt_calls:
        m["kg.corrupt.calls"] = corrupt_calls

    grad_calls = tr.total("kge.grad")[0]
    if grad_calls:
        m["kge.score.calls_per_pair"] = tr.total("kge.score")[0] / grad_calls
    for kind in kge.KINDS:
        stage = f"train_kge.{kind}"
        calls, _, self_s = tr.total("kge.train", stage)
        if not calls:
            continue
        m[f"kge.train.{kind}.self_s"] = self_s
        grads, grad_s, _ = tr.total("kge.grad", stage)
        m[f"kge.grad.{kind}.s"] = grad_s
        m[f"kge.grad.{kind}.active_share"] = tr.count("kge.grad.active", stage) / grads
        total_s("kge.link_predict_eval", f"kge.link_predict_eval.{kind}.s", stage)

    calls, read_s, _ = tr.total("stores.read_store")
    if calls:
        m["stores.read_store.s"] = read_s
        m["stores.read_store.mb_per_s"] = tr.count("stores.read_store.bytes") / 2**20 / read_s
    total_s("stores.write_store")
    calls, jsonl_s, _ = tr.total("stores.read_records_jsonl")
    if calls:
        m["stores.read_records_jsonl.records_per_s"] = (
            tr.count("stores.read_records_jsonl.records") / jsonl_s
        )

    total_s("retrieval.ConceptIndex")
    calls, top_s, _ = tr.total("retrieval.top_k")
    if calls:
        m["retrieval.top_k.calls"] = calls
        m["retrieval.top_k.us_per_call"] = 1e6 * top_s / calls
    total_s("retrieval.combine_text_caption")

    calls, _, _ = tr.total("fusion.train_classifier")
    if calls:
        total_s("fusion.train_classifier")
        m["fusion.train_classifier.epochs"] = tr.count("fusion.train_classifier.epochs")
    calls, eval_s, _ = tr.total("fusion.evaluate_records")
    if calls:
        m["fusion.evaluate_records.records_per_s"] = (
            tr.count("fusion.evaluate_records.records") / eval_s
        )
    for name in ("fusion.predict", "fusion.forward"):
        calls, s, _ = tr.total(name)
        if calls:
            m[f"{name}.us_per_call"] = 1e6 * s / calls
    for name in ("fusion.save_checkpoint", "fusion.load_checkpoint", "metrics.auc",
                 "metrics.evaluate", "congruence.report", "congruence.write_pair_csv"):
        total_s(name)
    return m
