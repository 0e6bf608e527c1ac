"""Run the benchmark on checkouts and write the numbers to one JSON file.

    python3 tools/bench.py --out BENCH_N.json parent=../parent child=.

Each NAME=CHECKOUT argument names a checkout of this repository.  The
script runs that checkout's own perfbench/run.py, unchanged, with seed
SEED for the run_seconds of this repository's BENCHMARK.json, and keeps
the JSON object each run prints last.  It runs the workloads that file
declares.
For the end-to-end metrics it makes ROUNDS rounds of --trace 0 runs: each
round runs every checkout in turn on each workload, and every other round
reverses the order of the checkouts, so that drift in the speed of the
machine falls on all of them alike.  Ten rounds give the ten alternated
pairs that a claimed gain is judged on.  For the per-layer metrics it then
makes TRACED_ROUNDS rounds of --trace 1 runs, alternated the same way: a
single traced run swings far more than the medians do.

The file holds the machine and the Python version, and for each checkout
its commit (null when its src/ or perfbench/ differ from that commit, so
that the numbers belong to no commit), a sha256 of its src/ tree, every
run, and the median and quartiles of each metric over its runs.  Compare only entries of one file: they come from
one machine and one stretch of time.  It uses the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

TRACES = (0, 1)
ROUNDS = 10
TRACED_ROUNDS = 3
SEED = 1


def git(checkout: Path, *args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(checkout), *args],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def src_digest(checkout: Path) -> str:
    """sha256 over the relative path and bytes of every file under src/."""
    h = hashlib.sha256()
    src = checkout / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu": cpu,
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
    }


def declared() -> tuple[tuple[str, ...], float]:
    """The workload names and the seconds of each run in BENCHMARK.json."""
    path = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    return tuple(w["name"] for w in doc["workloads"]), float(doc["run_seconds"])


def run_once(checkout: Path, workload: str, trace: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    return {
        "returncode": proc.returncode,
        "run_s": round(wall, 3),
        "correct": result.get("correct"),
        "attempted": result.get("attempted"),
        "failed": result.get("failed"),
        "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
        "stderr_tail": proc.stderr.strip().splitlines()[-3:],
    }


def summary(runs: list[dict]) -> dict:
    """Each metric's median and quartiles over the runs."""
    names = sorted({k for r in runs for k in r["metrics"]})
    out = {}
    for k in names:
        values = [r["metrics"][k] for r in runs if k in r["metrics"]]
        q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
        out[k] = {"median": q2, "q1": q1, "q3": q3}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs="+", metavar="NAME=CHECKOUT")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    named = []
    for arg in args.checkouts:
        name, sep, path = arg.partition("=")
        checkout = Path(path).resolve()
        if not sep or not name or not (checkout / "perfbench" / "run.py").is_file():
            ap.error(f"{arg!r} is not NAME=CHECKOUT with a perfbench/run.py")
        named.append((name, checkout))

    workloads, seconds = declared()
    runs = {name: {f"{w}/trace{t}": [] for w in workloads for t in TRACES}
            for name, _ in named}
    plan = [(r, w, int(r >= ROUNDS), named if r % 2 == 0 else named[::-1])
            for r in range(ROUNDS + TRACED_ROUNDS) for w in workloads]
    for r, workload, trace, order in plan:
        for name, checkout in order:
            print(f"round {r + 1}: {name} {workload} --trace {trace}",
                  file=sys.stderr, flush=True)
            runs[name][f"{workload}/trace{trace}"].append(
                run_once(checkout, workload, trace, seconds))

    entries = {}
    for name, checkout in named:
        status = git(checkout, "status", "--porcelain", "--", "src", "perfbench")
        entries[name] = {
            "commit": git(checkout, "rev-parse", "HEAD") if status == "" else None,
            "src_or_perfbench_changed": None if status is None else bool(status),
            "src_sha256": src_digest(checkout),
            "summary": {key: summary(rs) for key, rs in runs[name].items()},
            "runs": runs[name],
        }
    doc = {
        "machine": machine(),
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "command": "perfbench/run.py --workload W --seed S --seconds T --trace 0|1",
        "seed": SEED,
        "seconds": seconds,
        "rounds": ROUNDS,
        "traced_rounds": TRACED_ROUNDS,
        "order": "rounds alternate the order of the checkouts, trace 0 then trace 1",
        "entries": entries,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
