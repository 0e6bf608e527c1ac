"""Benchmark for hypforms.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Runs one workload of workloads.py, one operation at a time on one thread,
and checks every result.  Each operation starts with the package's caches
empty, as in a new `hypforms` process.

--trace 0 passes over the seeded inputs again and again until --seconds have
gone, at least min_passes whole passes; the last pass may stop part way.
An operation shorter than VISIT_SECONDS runs up to VISIT_REPEATS times back
to back at each visit.  Each input's sample is its best time over the run;
every output of an input must be the same at every visit.  Each visit
runs on a CPU that a short probe found not slowed (see CpuPicker).  The
first pass is fully checked; later passes leave out the checks that cost
as much as the operation.  Set-up (a new interpreter importing the package,
then making the inputs) is timed three times before the first pass and
then between operations, at most every two seconds.

--trace 1 runs every traced input once untraced and once traced in this
process, checks that the outputs are identical, prints the per-layer metrics
and writes the spans to perfbench/out/.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

The package is imported from src/ of the checkout this file sits in; with
no package there the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracer import Tracer
from workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MODULES = ("core", "certify", "classify", "families", "asymptotics", "verify", "cli")
SETUP_REPEATS = 3
SETUP_GAP = 2.0  # seconds between set-up samples during the passes
# Other load on a shared machine makes single runs of an operation up to
# twice as slow; back-to-back repeats of a short operation let its best time
# find the machine's quiet moments.
VISIT_SECONDS = 0.05
VISIT_REPEATS = 5
PROBE_RATIO = 1.25  # a CPU whose probe is slower than this is passed over


def load_package() -> SimpleNamespace:
    # suites run sequentially, as with the variable unset
    os.environ.pop("HYPFORMS_THREADS", None)
    sys.path.insert(0, str(SRC))
    try:
        mods = {m: importlib.import_module(f"hypforms.{m}") for m in MODULES}
    except ImportError as exc:
        print(f"cannot import hypforms from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if SRC.resolve() not in Path(mods["core"].__file__).resolve().parents:
        print(f"hypforms was imported from {mods['core'].__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return SimpleNamespace(**mods)


def clear_caches() -> None:
    """Empty every functools cache in the package, as a new process would."""
    seen = set()
    for name, mod in list(sys.modules.items()):
        if name == "hypforms" or name.startswith("hypforms."):
            for value in vars(mod).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear) and id(value) not in seen:
                    seen.add(id(value))
                    clear()


def digest(wl, item, result) -> str:
    return hashlib.sha256(repr(wl.signature(item, result)).encode()).hexdigest()


@dataclass
class Tally:
    """The times of every operation, by input, the digest of each input's
    first output, and the operations attempted and failed."""

    times: dict = field(default_factory=dict)  # Item -> [seconds]
    digests: dict = field(default_factory=dict)  # Item -> hex digest
    attempted: int = 0
    failed: int = 0
    by_kind: Counter = field(default_factory=Counter)  # (kind, "attempted"|"failed")

    @property
    def busy(self) -> float:
        return sum(sum(ts) for ts in self.times.values())

    def best_ms(self) -> list[tuple[str, float]]:
        """Each input's best time, in ms."""
        return [(item.kind, 1e3 * min(ts)) for item, ts in self.times.items()]

    def run(self, wl, item, thorough: bool = True):
        """One operation, timed alone; an exception fails it and the run
        goes on.  Caches start empty, as in a new `hypforms` process.
        Returns the result, or None when the operation raised."""
        clear_caches()
        t0 = perf_counter()
        try:
            result = wl.run(item)
        except Exception:
            result, outcome = None, Outcome(1, 1, traceback.format_exc(limit=3))
        self.times.setdefault(item, []).append(perf_counter() - t0)
        if result is not None:
            try:
                outcome = wl.check(item, result, thorough)
                d = digest(wl, item, result)
                if self.digests.setdefault(item, d) != d:
                    outcome = Outcome(outcome.attempted, max(outcome.failed, 1),
                                      f"output differs from an earlier run; {outcome.problem}")
            except Exception:
                outcome = Outcome(1, 1, "check raised " + traceback.format_exc(limit=3))
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.by_kind[item.kind, "attempted"] += outcome.attempted
        self.by_kind[item.kind, "failed"] += outcome.failed
        if outcome.problem:
            print(f"FAILED {wl.name} {item.kind} {item.text[:60]!r}: {outcome.problem}",
                  file=sys.stderr)
        return result

    def visit(self, wl, item, thorough: bool) -> None:
        """The operation, repeated back to back while it is short."""
        t0 = perf_counter()
        for _ in range(VISIT_REPEATS):
            self.run(wl, item, thorough)
            if perf_counter() - t0 >= VISIT_SECONDS:
                return


def probe_seconds() -> float:
    """A fixed piece of float and tuple work of about 0.2 ms, like the
    curve stepper's: how fast the current CPU runs Python just now."""
    t0 = perf_counter()
    x, y, pts = 0.3, 0.7, []
    for _ in range(400):
        a, b = x * x - 3.0 * y * y, 2.0 * x * y
        n = math.hypot(a, b)
        x, y = x + 1e-4 * a / n, y + 1e-4 * b / n
        pts.append((x, y))
    return perf_counter() - t0


class CpuPicker:
    """On a shared host each CPU slows down by up to half for a second or
    more at a time, on its own.  Before each visit the run probes the CPU
    it is pinned to and moves to the next one while the probe takes more
    than PROBE_RATIO times the fastest probe so far, so that few visits fall
    on a slowed CPU.  With every CPU slowed it stays where it was."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.k = 0
        self.best = float("inf")

    def pick(self) -> None:
        for _ in self.cpus:
            os.sched_setaffinity(0, {self.cpus[self.k]})
            t = min(probe_seconds() for _ in range(3))
            self.best = min(self.best, t)
            if t <= PROBE_RATIO * self.best:
                return
            self.k = (self.k + 1) % len(self.cpus)

    def release(self) -> None:
        os.sched_setaffinity(0, self.cpus)


def measure(wl, items, seconds: float, between_ops) -> tuple[Tally, float]:
    """A closed loop: each operation starts after the last one returns.
    Passes over the inputs until `seconds` have gone and wl.min_passes
    passes are whole.  Returns the tally and the passes made, a fraction
    for the last one."""
    tally, t0 = Tally(), perf_counter()
    cpu = CpuPicker()
    passes = 0
    while True:
        for n, item in enumerate(items):
            if passes >= wl.min_passes and perf_counter() - t0 >= seconds:
                cpu.release()
                return tally, passes + n / len(items)
            cpu.pick()
            tally.visit(wl, item, thorough=passes == 0)
            between_ops()
        passes += 1


def import_seconds() -> float:
    """Interpreter start plus package import, in a new process."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import hypforms.cli"
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code, str(SRC)], check=True)
    return perf_counter() - t0


class SetUp:
    """Set-up timing: a new interpreter importing the package, then making
    the inputs in this process."""

    def __init__(self, wl, seed: int):
        self.wl, self.seed = wl, seed
        self.times: list[float] = []
        self.last = 0.0

    def once(self) -> list:
        t_import = import_seconds()
        t0 = perf_counter()
        items = self.wl.generate(random.Random(self.seed))
        self.times.append(t_import + perf_counter() - t0)
        self.last = perf_counter()
        return items

    def between_ops(self) -> None:
        # sampled across the run as the operations are, so that its median
        # sees the same stretches of machine load
        if perf_counter() - self.last >= SETUP_GAP:
            self.once()


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def summary(label: str, values: list[float]) -> str:
    if not values:
        return f"{label}: no samples"
    return (f"{label}: p50 {statistics.median(values):.3f} ms, "
            f"p90 {p90(values):.3f} ms (n={len(values)})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    hf = load_package()
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](hf)
    setup = SetUp(wl, args.seed)
    if args.trace:
        return traced_run(wl, setup.once(), args)
    for _ in range(SETUP_REPEATS):
        items = setup.once()

    t0 = perf_counter()
    tally, passes = measure(wl, items, args.seconds, setup.between_ops)
    elapsed = perf_counter() - t0
    best = tally.best_ms()
    print(f"workload {wl.name} seed {args.seed}: {passes:.2f} passes over {len(items)} "
          f"inputs, {elapsed:.2f} s; {tally.attempted} attempted, {tally.failed} failed")
    print(summary("operation, best of the run", [t for _, t in best]))
    if wl.name == "certify":
        print(summary("accepted forms", [t for k, t in best if k == "accept"]))
        print(summary("rejected forms", [t for k, t in best if k != "accept"]))
    print(f"setup: {', '.join(f'{s:.4f}' for s in setup.times)} s")
    emit(tally.failed == 0, tally.attempted, tally.failed,
         end_to_end_metrics(best, setup.times))
    return 0


def end_to_end_metrics(best: list[tuple[str, float]], setups: list[float]) -> dict:
    ops = [t for _, t in best]
    return {
        "wall_s": (sum(ops) / 1e3, "s"),
        "op_p50_ms": (statistics.median(ops), "ms"),
        "op_p90_ms": (p90(ops), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_passes(wl, items):
    """Each operation untraced and then traced, back to back, so that slow
    drift in machine speed falls on both sides of the overhead ratio.  The
    last value returned is True when every traced output equals the
    untraced one and every rebound attribute was restored."""
    plain, traced, tracer = Tally(), Tally(), Tracer()
    restored = same = True
    for n, item in enumerate(items):
        expected = plain.run(wl, item)
        tracer.op = n
        try:
            tracer.install()
            got = traced.run(wl, item)
        finally:
            tracer.uninstall()
        restored = restored and tracer.restored()
        same = same and (expected is None) == (got is None) and (
            expected is None or wl.signature(item, expected) == wl.signature(item, got))
    return plain, traced, tracer, restored and same


def layer_metrics(wl, plain: Tally, traced: Tally, tracer) -> dict:
    metrics = tracer.metrics()
    is_certify = wl.name == "certify"
    plain_ms = plain.best_ms()
    accept = [t for k, t in plain_ms if is_certify and k == "accept"]
    reject = [t for k, t in plain_ms if is_certify and k != "accept"]
    metrics.update({
        "certify.accept_p50_ms": (statistics.median(accept) if accept else 0.0, "ms"),
        "certify.reject_p50_ms": (statistics.median(reject) if reject else 0.0, "ms"),
        "verify.cases": (traced.by_kind["suite", "attempted"], "count"),
        "verify.cases_failed": (traced.by_kind["suite", "failed"], "count"),
        "trace.overhead_ratio": (traced.busy / plain.busy - 1.0, "ratio"),
    })
    return metrics


def traced_run(wl, items, args) -> int:
    plain, traced, tracer, ok = traced_passes(wl, wl.trace_items(items))
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{wl.name}-{args.seed}.json"
    tracer.write(trace_path)
    metrics = layer_metrics(wl, plain, traced, tracer)
    print(f"workload {wl.name} seed {args.seed}: untraced {plain.busy:.3f} s, traced "
          f"{traced.busy:.3f} s, {len(tracer.spans)} spans written to {trace_path}")
    print(summary("untraced operation", [t for _, t in plain.best_ms()]))
    for k, (v, unit) in metrics.items():
        print(f"  {k} = {v:.6g} {unit}")
    if not ok:
        print("FAILED traced outputs differ from untraced outputs, or a rebound "
              "attribute was not restored", file=sys.stderr)
    failed = plain.failed + traced.failed
    emit(failed == 0 and ok, plain.attempted + traced.attempted, failed, metrics)
    return 0


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
