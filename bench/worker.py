"""One pass of a workload, or one set-up probe, in a fresh interpreter.

    python3 bench/worker.py setup KIND:CONFIG...
    python3 bench/worker.py pass WORKLOAD SEED WORKDIR [TRACE_PATH]

``setup`` does what every CLI run does before its verb: import qdho, parse
the configs (KIND is ``run`` or ``classical``) and build the initial
states, and prints the seconds that took. ``pass`` runs the workload's
operations through ``qdho.cli.main`` on the configs run.py wrote into
WORKDIR, checks every output, and prints one JSON line. With TRACE_PATH it
first wraps the qdho functions in spans and writes them there at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def setup(items: list[str]) -> float:
    """Seconds this fresh interpreter takes to import qdho, parse and build."""
    start = time.perf_counter()
    from qdho import cli, config

    for item in items:
        kind, path = item.split(":", 1)
        if kind == "classical":
            config.load_classical_config(path)
        else:
            cfg = config.load_run_config(path)
            cli.build_initial_state(cfg.state, cfg.trunc)
    return time.perf_counter() - start


def invoke(argv: list[str]) -> tuple[int, str, str, float]:
    """Run one CLI verb in-process: exit code, stdout, stderr, wall seconds."""
    from qdho import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def run_ops(ops, workdir: Path, tracer=None) -> dict:
    """Invoke and check each operation; failures are counted, not raised."""
    import checks

    tally = {"points": 0, "cli_s": 0.0, "attempted": 0, "failed": 0, "incorrect": 0,
             "failures": []}
    for op in ops:
        if tracer is not None:
            tracer.operation = op.name
        path = str(workdir / f"{op.name}.ini") if op.has_config else None
        code, stdout, stderr, elapsed = invoke(op.argv(path))
        tally["attempted"] += 1
        tally["cli_s"] += elapsed
        try:
            tally["points"] += checks.check(op, code, stdout, stderr)
        except checks.CheckFailure as exc:
            tally["failed"] += 1
            # An output that exits 0 but fails its checks is a wrong answer.
            tally["incorrect"] += code == 0
            tally["failures"].append(f"{op.name}: {exc}")
    return tally


def run_pass(workload: str, seed: int, workdir: Path, trace_path: str | None) -> dict:
    import qdho
    import workloads

    if not Path(qdho.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"qdho imported from {qdho.__file__}, not from {ROOT / 'src'}")
    tracer = None
    if trace_path:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    tally = run_ops(workloads.build(workload, seed), workdir, tracer)
    tally["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        from qdho import liouville

        tracer.write(trace_path)
        tally["layers"] = tracing.layer_metrics(
            tracer.spans, liouville._cached_propagator.cache_info()
        )
        tally["layers"]["trace.wall_s"] = tally["cli_s"]
    return tally


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"]:
        print(json.dumps(setup(argv[1:])))
        return 0
    if argv[:1] == ["pass"] and len(argv) in (4, 5):
        trace_path = argv[4] if len(argv) == 5 else None
        print(json.dumps(run_pass(argv[1], int(argv[2]), Path(argv[3]), trace_path)))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
