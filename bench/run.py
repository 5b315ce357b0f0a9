"""Benchmark of the geodetic CLI and library on seeded workloads.

    python3 bench/run.py --workload geodeticity|ladders|languages \
        --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the program from its
``src`` directory.  Whole rounds of the workload's operations run, in one
process and one thread, as long as another round still fits in --seconds
(at least one round); every operation's output is checked against the
reference module.  Set-up (importing geodetic and generating the seeded
input files) is timed before the first round and again between rounds.

With --trace 0 the last stdout line holds the end-to-end metrics: setup_s,
wall_s, cpu_s, max_op_s (medians over rounds) and peak_rss_mb.  The times
are reference seconds: a fixed speed probe (probe.py) is sampled before,
during and after each set-up and each operation, and each stretch of time
is weighed by the speed the samples show, so that the drifting speed of a
shared machine cancels out.  With --trace 1 the probe is off and every time
is in plain seconds; an untraced round and a traced round alternate, the
per-layer metrics of the traced rounds are reported, and the spans are
written to .bench_out/spans-<workload>.csv.gz under the checkout root, with
the operation labels in .bench_out/ops-<workload>.csv.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5          # before the first round, then SETUP_BETWEEN after each round
SETUP_BETWEEN = 2

import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class Program:
    """The freshly imported geodetic modules; operations look names up here."""

    MODULES = ("cli", "graphs", "groups", "geometry", "lang", "words")

    def __init__(self):
        for name in [m for m in sys.modules if m == "geodetic" or m.startswith("geodetic.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        package = importlib.import_module("geodetic")
        if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
            raise ImportError(f"geodetic was imported from {package.__file__}, not from {SRC}")
        for name in self.MODULES:
            setattr(self, name, importlib.import_module(f"geodetic.{name}"))
        self.modules = [package] + [getattr(self, name) for name in self.MODULES]

    def reinstate(self) -> None:
        """Make this import the one sys.modules holds again, after a later one."""
        for mod in self.modules:
            sys.modules[mod.__name__] = mod

    def run_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
        return rc, out.getvalue(), err.getvalue()


class Run:
    """Operation accounting across the rounds of one run."""

    def __init__(self, program, ops, timer, tracer=None):
        self.program = program
        self.ops = ops
        self.timer = timer          # Meter.run, or probe.unmetered in the traced mode
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.op_times = [[] for _ in ops]   # untraced rounds only: (reference s, plain s)
        self.op_labels = []          # op id -> label, for the span file

    def _fail(self, op, why, wrong=False) -> None:
        self.failed += 1
        self.wrong += wrong
        print(f"FAILED {op.label}: {why}", file=sys.stderr)

    def round(self, traced: bool) -> dict:
        wall = cpu = slowest = plain_wall = 0.0
        output_bytes = 0
        for i, op in enumerate(self.ops):
            # Each operation starts like a fresh command: the benchmark's own
            # objects are frozen out of the collector's generations.
            gc.unfreeze()
            gc.collect()
            gc.freeze()
            if self.tracer is not None:
                self.tracer.op = len(self.op_labels)
            self.op_labels.append(f"{op.label}{' [traced]' if traced else ''}")
            self.attempted += 1
            timed = self.timer(functools.partial(op.call, self.program))
            result, error = timed.result, timed.error
            wall += timed.ref_wall
            cpu += timed.ref_cpu
            plain_wall += timed.wall
            slowest = max(slowest, timed.ref_wall)
            if not traced:
                self.op_times[i].append((timed.ref_wall, timed.wall))
            if error is not None:
                self._fail(op, f"{type(error).__name__}: {error}")
                continue
            if op.cli:
                output_bytes += len(result[1].encode())
                if result[0] != op.rc:
                    self._fail(op, f"exit code {result[0]}, expected {op.rc}: {result[2].strip()}")
                    continue
            try:
                op.check(result)
            except workloads.CheckError as exc:
                self._fail(op, f"wrong output: {exc}", wrong=True)
            except Exception as exc:   # output too malformed for the check to read
                self._fail(op, f"unreadable output: {type(exc).__name__}: {exc}", wrong=True)
        return {"wall_s": wall, "cpu_s": cpu, "max_op_s": slowest, "plain_wall_s": plain_wall,
                "output_bytes": output_bytes}


def setup_once(workload: str, seed: int, tmp_base: str, timer):
    """One timed set-up: a fresh import of the program and newly written inputs.

    Returns the program, the operation factory and the set-up time.
    """
    def setup():
        program = Program()
        tmpdir = tempfile.mkdtemp(dir=tmp_base)
        return program, workloads.WORKLOADS[workload](random.Random(seed), tmpdir)
    timed = timer(setup)
    if timed.error is not None:
        raise timed.error
    return (*timed.result, timed.ref_wall)


def median_of(rounds, key):
    return statistics.median(r[key] for r in rounds)


def keep_going(start: float, last: float, seconds: float) -> bool:
    """Whether another round (as long as the last one) still ends within the time."""
    now = perf_counter()
    return now - start + (now - last) <= seconds


def measure(run: Run, seconds: float, setups: list, resetup) -> dict:
    """Untraced rounds; the end-to-end metrics.

    Set-up is timed again between rounds, so its median, like the others,
    is taken over the whole run rather than over its first half second.
    """
    rounds = []
    start = last = perf_counter()
    while not rounds or keep_going(start, last, seconds):
        last = perf_counter()
        rounds.append(run.round(traced=False))
        setups += [resetup() for _ in range(SETUP_BETWEEN)]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": median_of(rounds, "wall_s"),
        "cpu_s": median_of(rounds, "cpu_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "max_op_s": median_of(rounds, "max_op_s"),
    }


def measure_traced(run: Run, seconds: float) -> tuple[dict, bool]:
    """Alternate untraced and traced rounds; per-layer metrics from the traced ones.

    Span times are plain seconds, so the wall times set beside them here are
    too, not reference seconds.
    """
    tracer = run.tracer
    untraced, traced = [], []
    start = last = perf_counter()
    while not traced or keep_going(start, last, seconds):
        last = perf_counter()
        untraced.append(run.round(traced=False))
        tracer.install()
        tracer.reset_counts()
        first = len(tracer.span_name)
        try:
            r = run.round(traced=True)
        finally:
            tracer.remove()
        tracer.counts["cli.output_bytes"] = r["output_bytes"]
        traced.append(tracer.round_metrics(first, r["plain_wall_s"]))
    base = median_of(untraced, "plain_wall_s")
    metrics = {key: statistics.median(t[key] for t in traced) for key in traced[0]}
    metrics["trace.untraced_wall_s"] = base
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - base
    consistent = True
    for t in traced:
        layer_sum = sum(t[f"{layer}.self_s"] for layer in tracing.LAYERS)
        if layer_sum > t["trace.wall_s"]:
            print(f"layer self times sum to {layer_sum:.6f} s, above the traced wall "
                  f"{t['trace.wall_s']:.6f} s", file=sys.stderr)
            consistent = False
    return metrics, consistent


UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "max_op_s": "s"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tmp_base = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_base, exist_ok=True)
    tmp_root = tempfile.mkdtemp(dir=tmp_base)
    meter = None if args.trace else probe.Meter(probe.Probe())
    timer = probe.unmetered if meter is None else meter.run
    try:
        setups = []
        try:
            for _ in range(SETUP_REPEATS):
                program, make_ops, seconds = setup_once(args.workload, args.seed, tmp_root, timer)
                setups.append(seconds)
        except ImportError as exc:
            print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
            return 2
        ops = make_ops()

        def resetup() -> float:
            seconds = setup_once(args.workload, args.seed, tmp_root, timer)[2]
            program.reinstate()
            return seconds
        correct = True
        if args.trace:
            tracer = tracing.Tracer(program.modules)
            run = Run(program, ops, timer, tracer)
            metrics, correct = measure_traced(run, args.seconds)
            tracer.write(os.path.join(ROOT, ".bench_out"), args.workload, run.op_labels)
        else:
            run = Run(program, ops, timer)
            metrics = measure(run, args.seconds, setups, resetup)
        print("# median per operation: plain s, plain s" if args.trace
              else "# median per operation: reference s, plain s")
        for op, times in zip(ops, run.op_times):
            ref_s, plain_s = (statistics.median(t[j] for t in times) for j in (0, 1))
            print(f"# {ref_s:9.4f} {plain_s:9.4f}  {op.label}")
        print(f"# {len(run.op_times[0])} untraced round(s) of {len(ops)} operations")
        result = {
            "correct": correct and run.wrong == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
        }
        print(json.dumps(result))
        return 0
    finally:
        if meter is not None:
            meter.close()
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            os.rmdir(tmp_base)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
