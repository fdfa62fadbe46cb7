"""qdho benchmark: the CLI end to end (``--trace 0``) or layer by layer (``--trace 1``).

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; qdho is imported from its ``src``.
Configs are made from the seed (see workloads.py). With ``--trace 0`` the
benchmark times set-up in fresh interpreters, then runs whole passes of the
workload, each in a fresh interpreter, until S seconds have gone, and
reports

    setup_s       median time a fresh interpreter takes to import qdho, parse
                  the workload's configs and build its initial states;
    points_per_s  median over passes of grid points delivered per second of
                  CLI time (an evolve/classical CSV row, a compare t= line,
                  or 1 for steady and verify);
    peak_rss_mb   median over passes of the pass process's peak RSS.

With ``--trace 1`` the passes run with every public qdho function wrapped
in a span and the per-layer metrics are reported instead (median over
passes). Every output is checked (checks.py); an operation whose exit code
or output is wrong counts as failed. The last stdout line is the result as
JSON; run outputs go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"
#: Fresh interpreters timed per run for setup_s, after one untimed warm-up
#: (bytecode and file caches, which users do not pay on every run).
SETUP_PROBES = 9
#: Every run must end within this many seconds.
DEADLINE_S = 170.0
#: One BLAS thread: on a small shared machine a second thread made pass
#: times spread three times wider (IQR 30% against 11% of the median).
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed operation)."""


def _child(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the run ended")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=CHILD_ENV,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[:2]} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[:2]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def _setup_seconds(items: list[str], deadline: float) -> float:
    _child(["setup", *items], deadline)
    samples = [json.loads(_child(["setup", *items], deadline).stdout)
               for _ in range(SETUP_PROBES)]
    return statistics.median(samples)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "qdho" / "__init__.py").is_file():
        raise BenchError(f"no qdho sources under {ROOT / 'src'}")
    ops = workloads.build(workload, seed)
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        items = []
        for op in ops:
            if op.has_config:
                path = workdir / f"{op.name}.ini"
                path.write_text(workloads.config_text(op), encoding="utf-8")
                items.append(f"{'classical' if op.verb == 'classical' else 'run'}:{path}")
        setup_s = None if trace else _setup_seconds(items, deadline)
        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            args = ["pass", workload, str(seed), str(workdir)]
            if trace:
                args.append(str(OUT / f"trace-{workload}-seed{seed}-pass{len(passes)}.jsonl"))
            proc = _child(args, deadline)
            passes.append(json.loads(proc.stdout.splitlines()[-1]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in passes:
        for failure in p["failures"]:
            print(f"failed: {failure}", file=sys.stderr)
    if trace:
        metrics = {
            name: {"value": statistics.median(p["layers"][name] for p in passes), "unit": unit}
            for name, unit in tracing.PER_LAYER_UNITS.items()
        }
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "points_per_s": {
                "value": statistics.median(p["points"] / p["cli_s"] for p in passes),
                "unit": "points/s",
            },
            "peak_rss_mb": {"value": statistics.median(p["rss_mb"] for p in passes),
                            "unit": "MB"},
        }
    return {
        "correct": all(p["incorrect"] == 0 for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
