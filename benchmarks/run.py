#!/usr/bin/env python3
"""Run one knowfuse benchmark workload in one process.

    python3 benchmarks/run.py --workload paper --seed 1 --seconds 36 --trace 0

The run generates the workload's inputs from --seed, warms up on a tiny
copy of them, then repeats whole rounds of the workload's CLI stages for
--seconds, calling `knowfuse.cli.main` in process. After the first round it
checks every output against the benchmark's own reference computations;
every later round must write byte-identical outputs. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.

--trace 0 reports the end-to-end metrics, each timing the median over the
run's rounds. --trace 1 alternates untraced rounds with rounds in which every
public function of the layer modules is wrapped in a span, and reports the
per-layer metrics plus trace.overhead_s. --profile writes the top cProfile
entries of each stage under .bench_out/profile/ and reports no metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import cProfile
import ctypes
import gc
import hashlib
import io
import json
import multiprocessing
import os
import pstats
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

_START = time.perf_counter()
# One BLAS thread, fixed before numpy loads: the reference machine has two
# shared cores, and a BLAS pool would make every timing depend on the
# neighbours' load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# No transparent huge pages for numpy's large arrays: whether the kernel
# has a huge page to give depends on the whole machine's memory, and with
# them the same seed's peak_rss_mb moved between 145 and 161 MiB.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3


def _fix_malloc_thresholds() -> None:
    """Pin glibc malloc's mmap and trim thresholds.

    By default glibc raises its mmap threshold each time a large block is
    freed and trims the top of the heap once enough is free there, so
    whether a medium-sized numpy temporary costs fresh pages depends on
    every allocation before it. Filtered ranking allocates such temporaries
    for every query, and in a long-lived process it took 0.55 s on one call
    and 1.15 s, with 218,000 page faults, on the next. With the thresholds
    fixed, blocks under 4 MiB reuse the heap and larger ones are always
    mapped afresh, the same in every round. Other C libraries are left alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 4 << 20)
    mallopt(m_trim_threshold, 1 << 30)


_fix_malloc_thresholds()


def _load_program():
    """Import the program from the checkout's own src/, never from elsewhere."""
    if not (ROOT / "src" / "knowfuse" / "__init__.py").is_file():
        raise SystemExit(f"error: no src/knowfuse under {ROOT}; run from a knowfuse checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        raise SystemExit(f"error: no BENCHMARK.json under {ROOT}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


_load_program()

from checks import CheckError  # noqa: E402
from knowfuse import cli  # noqa: E402
from tracer import StageTimer, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - _START


class StageFailed(RuntimeError):
    """A CLI stage exited non-zero or a library call raised."""


class Context:
    """Runs and times the operations of a round: CLI stages and API calls."""

    def __init__(self, timer: StageTimer) -> None:
        self.timer = timer
        self.tracer: Tracer | None = None
        self.profiles: dict[str, cProfile.Profile] | None = None
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0

    def call(self, stage: str, argv: list[str]) -> float:
        """Run one knowfuse command; return its wall time in seconds.

        Each command starts from a collected heap, as it would in a process
        of its own, so garbage of earlier stages neither moves the peak
        memory nor lands its collection in this command's time."""
        gc.collect()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            elapsed, rc = self._timed(stage, f"cli.{argv[0].replace('-', '_')}", cli.main, argv)
        if rc != 0:
            self.failed += 1
            raise StageFailed(f"{stage}: knowfuse {argv[0]} exited with {rc}")
        return elapsed

    def op(self, stage: str, fn, *args):
        """Run one library call; return (seconds, result)."""
        try:
            return self._timed(stage, None, fn, *args)
        except Exception as exc:
            self.failed += 1
            raise StageFailed(f"{stage}: {fn.__name__} raised {exc!r}") from exc

    def _timed(self, stage, span, fn, *args):
        self.attempted += 1
        profile = None
        if self.profiles is not None:
            profile = self.profiles.setdefault(stage, cProfile.Profile())
        if self.tracer is not None:
            self.tracer.stage = stage
            if span is not None:
                fn, args = self.tracer.span, (span, fn, *args)
        if profile is not None:
            profile.enable()
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        if profile is not None:
            profile.disable()
        self.elapsed += elapsed
        return elapsed, result

    def stage_calls(self) -> list[dict]:
        """Timed stage-level calls since the last request, oldest first."""
        calls, self.timer.calls = self.timer.calls, []
        return calls


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(out)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _generate(wl, work: Path, seed: int, tiny: bool) -> dict:
    """Generate inputs in a forked child, so that the generator's arrays
    never count toward this process's peak_rss_mb. A plain Process and
    Pipe, because an executor would start threads in this process."""
    work.mkdir(parents=True)
    mp = multiprocessing.get_context("fork")
    receive, send = mp.Pipe(duplex=False)
    child = mp.Process(target=_generate_in_child, args=(send, wl, work, seed, tiny))
    child.start()
    send.close()
    try:
        ok, result = receive.recv()
    finally:
        child.join()
    if not ok:
        raise RuntimeError(f"{wl.name} input generator failed:\n{result}")
    return result


def _generate_in_child(send, wl, work: Path, seed: int, tiny: bool) -> None:
    try:
        send.send((True, wl.generate(work, seed, tiny)))
    except BaseException:
        send.send((False, traceback.format_exc()))


def _setup(wl, seed: int, work: Path, timer: StageTimer) -> tuple[dict, float]:
    """Generate inputs and warm up, SETUP_REPEATS times; keep the last
    inputs and return the median set-up time (imports included)."""
    times = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        base = work / f"setup{i}"
        inp = _generate(wl, base / "inputs", seed, tiny=False)
        wl.prepare(inp)
        warm = _generate(wl, base / "warm", seed, tiny=True)
        wl.prepare(warm)
        wl.round(Context(timer), warm, base / "warm_out")
        timer.calls.clear()
        times.append(time.perf_counter() - start)
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(base)
    return inp, IMPORT_S + statistics.median(times)


def _run(args, ctx: Context) -> dict[str, float]:
    wl = WORKLOADS[args.workload]
    work = OUT / f"work-{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    timer = ctx.timer
    timer.install()
    try:
        inp, setup_s = _setup(wl, args.seed, work, timer)
        out = work / "out"
        if args.profile:
            ctx.profiles = {}
            wl.round(ctx, inp, out)
            _write_profiles(wl.name, ctx.profiles)
            return {}
        return _measure(wl, inp, out, args, ctx, setup_s)
    finally:
        timer.uninstall()
        shutil.rmtree(work, ignore_errors=True)


def _measure(wl, inp, out, args, ctx: Context, setup_s: float) -> dict[str, float]:
    tracer = Tracer() if args.trace else None
    walls, traced_walls, raws, layer_rounds = [], [], [], []
    quality, first_digest, peak_mb = {}, None, None
    # The checks of the first round do not count toward --seconds.
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or not raws:
        for traced in ((False, True) if tracer else (False,)):
            ctx.elapsed = 0.0
            if traced:
                tracer.reset()
                tracer.install()
                ctx.tracer = tracer
            try:
                raw = wl.round(ctx, inp, out)
            finally:
                if traced:
                    tracer.uninstall()
                    ctx.tracer = None
            if traced:
                traced_walls.append(ctx.elapsed)
                layer_rounds.append(layer_metrics(tracer))
            else:
                walls.append(ctx.elapsed)
                raws.append(raw)
            if peak_mb is None:
                # Set-up plus one round, before the checks allocate their
                # references and before later rounds fragment the heap.
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            digest = _digest(out)
            if first_digest is None:
                checked = time.perf_counter()
                quality = wl.check(inp, out, raw)
                deadline += time.perf_counter() - checked
                first_digest = digest
            elif digest != first_digest:
                raise CheckError("outputs differ between rounds of the same inputs")

    if tracer:
        metrics = {name: statistics.median(r[name] for r in layer_rounds) for name in layer_rounds[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        _write_trace(wl.name, args.seed, tracer)
    else:
        metrics = wl.metrics(raws, quality)
        metrics["setup_s"] = setup_s
        metrics["wall_s"] = statistics.fmean(walls)
        metrics["peak_rss_mb"] = peak_mb
    return metrics


def _write_trace(workload: str, seed: int, tracer: Tracer) -> None:
    """Spans of the last traced round, aggregated per stage and function."""
    rows = [
        {"stage": stage, "fn": fn, "calls": c, "total_s": t, "self_s": s}
        for (stage, fn), (c, t, s) in sorted(tracer.spans.items())
    ]
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(rows, indent=1) + "\n")


def _write_profiles(workload: str, profiles: dict) -> None:
    target = OUT / "profile" / workload
    target.mkdir(parents=True, exist_ok=True)
    for stage, profile in profiles.items():
        text = io.StringIO()
        for key in ("tottime", "cumulative"):
            text.write(f"==== {workload} / {stage}, top 30 by {key}\n")
            pstats.Stats(profile, stream=text).sort_stats(key).print_stats(30)
        (target / f"{stage}.txt").write_text(text.getvalue())
        print(f"profile: {target / (stage + '.txt')}")


def _declared(kind: str) -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true",
                        help="write per-stage cProfile tables instead of measuring")
    args = parser.parse_args(argv)

    declared = _declared("per_layer" if args.trace else "end_to_end")
    correct = True
    ctx = Context(StageTimer())
    metrics: dict[str, float] = {}
    try:
        metrics = _run(args, ctx)
    except (CheckError, StageFailed) as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        correct = False
    if args.profile and correct:
        return 0

    unknown = sorted(set(metrics) - set(declared))
    if unknown:
        raise SystemExit(f"error: metrics not declared in BENCHMARK.json: {unknown}")
    missing = sorted(set(declared) - set(metrics))
    if correct and missing:
        raise SystemExit(f"error: declared metrics this run did not measure: {missing}")
    report = {name: {"value": value, "unit": declared[name]["unit"]} for name, value in metrics.items()}
    for name, m in report.items():
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": ctx.attempted,
                      "failed": ctx.failed, "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
