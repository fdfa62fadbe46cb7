"""Tests of the benchmark itself: its output checks, its tracing, its failure mode.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import tracing
import worker
import workloads

BENCH = Path(__file__).resolve().parent


def _run(op, tmp_path):
    path = None
    if op.has_config:
        path = tmp_path / f"{op.name}.ini"
        path.write_text(workloads.config_text(op), encoding="utf-8")
    code, stdout, stderr, _ = worker.invoke(op.argv(None if path is None else str(path)))
    return code, stdout, stderr


def _quantum(verb, **kwargs):
    defaults = dict(dim=24, support_max=9, state={"kind": "coherent", "re": 0.6, "im": 0.8,
                                                  "modulus": 1.0},
                    t_end=3.0, num_points=11, rng=random.Random(0))
    return workloads.quantum_op(f"small_{verb}", verb, **{**defaults, **kwargs})


#: A compare small enough for a test whose oracles still agree to 1e-7.
SMALL_COMPARE = dict(dim=16, support_max=5, t_end=1.0, num_points=3,
                     state={"kind": "coherent", "re": 0.3, "im": 0.4, "modulus": 0.5})


def _replace_field(stdout, row, column, transform):
    lines = stdout.splitlines()
    fields = lines[row].split(",")
    fields[column] = repr(transform(float(fields[column])))
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_evolve_check_rejects_a_perturbed_expect_n(tmp_path):
    op = _quantum("evolve")
    code, stdout, stderr = _run(op, tmp_path)
    assert checks.check(op, code, stdout, stderr) == 11
    bad = _replace_field(stdout, 6, 2, lambda n: n * (1 + 1e-5))
    with pytest.raises(checks.CheckFailure, match="expect_n"):
        checks.check(op, code, bad, stderr)


@pytest.mark.parametrize("gamma", [0.5, 2.0, 3.0])
def test_classical_check_rejects_a_perturbed_rk4_column(tmp_path, gamma):
    op = workloads.classical_op("small_classical", random.Random(1), omega=2.0, gamma=gamma,
                                t_end=10.0, num_points=21)
    code, stdout, stderr = _run(op, tmp_path)
    assert checks.check(op, code, stdout, stderr) == 21
    bad = _replace_field(stdout, 9, 3, lambda x: x + 1e-6)
    with pytest.raises(checks.CheckFailure, match="x_rk4"):
        checks.check(op, code, bad, stderr)


@pytest.mark.parametrize("op", [
    workloads.Op(name="verify", verb="verify"),
    _quantum("steady", support_max=0, state={"kind": "fock", "n": 0}, t_end=0.0,
             num_points=1, dim=32, nu=0.3),
    _quantum("compare", **SMALL_COMPARE),
], ids=lambda op: op.verb)
def test_result_checks_reject_a_fail_line(tmp_path, op):
    code, stdout, stderr = _run(op, tmp_path)
    assert checks.check(op, code, stdout, stderr) >= 1
    lines = stdout.splitlines()
    assert lines[-1].startswith("RESULT pass")
    lines[-1] = lines[-1].replace("RESULT pass", "RESULT fail")
    with pytest.raises(checks.CheckFailure, match="RESULT"):
        checks.check(op, code, "\n".join(lines) + "\n", stderr)


def test_compare_check_counts_grid_lines(tmp_path):
    op = _quantum("compare", **SMALL_COMPARE)
    code, stdout, stderr = _run(op, tmp_path)
    assert checks.check(op, code, stdout, stderr) == 3
    short = "\n".join(line for line in stdout.splitlines() if not line.startswith("t=1"))
    with pytest.raises(checks.CheckFailure, match="t= lines"):
        checks.check(op, code, short, stderr)


def test_moment_law_matches_its_differential_equation():
    op = _quantum("evolve")
    h = 1e-5
    for t in (0.3, 1.0, 2.5):
        lhs = (checks.moment_law(op.spec, t + h) - checks.moment_law(op.spec, t - h)) / (2 * h)
        rhs = -(op.spec["mu"] - op.spec["nu"]) * checks.moment_law(op.spec, t) + op.spec["nu"]
        assert lhs == pytest.approx(rhs, rel=1e-8)


@pytest.mark.parametrize("omega,gamma", [(2.0, 0.5), (1.0, 1.0), (1.0, 3.0)])
def test_exact_classical_solution_solves_the_oscillator(omega, gamma):
    spec = {"omega": omega, "gamma": gamma, "x0": 0.7, "y0": -1.3}
    assert checks.classical_exact(spec, 0.0) == pytest.approx((0.7, -1.3), abs=1e-15)
    h = 1e-4
    for t in (0.5, 2.0):
        x_m, _ = checks.classical_exact(spec, t - h)
        x, y = checks.classical_exact(spec, t)
        x_p, _ = checks.classical_exact(spec, t + h)
        assert (x_p - x_m) / (2 * h) == pytest.approx(y, abs=1e-7)
        accel = (x_p - 2 * x + x_m) / h**2
        assert accel + 2 * gamma * y + omega**2 * x == pytest.approx(0.0, abs=1e-5)


def test_seed_changes_no_amount_of_work():
    def shape(op):
        spec = {k: v for k, v in op.spec.items() if k not in ("theta", "x0", "y0", "state")}
        state = op.spec.get("state", {})
        return (op.verb, op.flags, tuple(sorted(spec.items())), state.get("kind"),
                state.get("modulus"), tuple(level for level, _ in state.get("terms", ())))

    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 1), workloads.build(name, 2)
        assert [workloads.config_text(op) for op in a if op.has_config] == [
            workloads.config_text(op) for op in workloads.build(name, 1) if op.has_config]
        assert [shape(op) for op in a] == [shape(op) for op in b]
        assert a != b


def test_traced_self_times_add_up_to_the_pass_wall_time(tmp_path):
    ops = workloads.build("classical_trajectory", 1)
    for op in ops:
        (tmp_path / f"{op.name}.ini").write_text(workloads.config_text(op), encoding="utf-8")
    trace_path = tmp_path / "trace.jsonl"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "pass", "classical_trajectory", "1",
         str(tmp_path), str(trace_path)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    tally = json.loads(proc.stdout.splitlines()[-1])
    assert tally["failed"] == 0 and tally["attempted"] == 3
    layers = tally["layers"]
    wall = layers["trace.wall_s"]
    summed = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS if layer != "verification")
    summed += layers["verification.suites.self_s"]
    # Self times partition the root spans; what is left is the time between
    # the clock reads around cli.main and the root span's own clock reads.
    assert 0.98 * wall <= summed <= wall
    assert layers["classical.rk4.calls"] == sum(op.spec["num_points"] - 1 for op in ops)
    assert layers["classical.rk4.self_s"] == max(
        layers[k] for k in layers if k.endswith(".self_s") and k != "classical.self_s")

    spans = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert len(spans) == layers["trace.spans"]
    for i, span in enumerate(spans):
        assert span["start_ns"] <= span["end_ns"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert span["parent"] < i
            assert parent["start_ns"] <= span["start_ns"] <= span["end_ns"] <= parent["end_ns"]
        else:
            assert span["name"] == "cli.main"


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "classical_trajectory",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "qdho" in proc.stderr


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER_UNITS.items())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "points_per_s", "peak_rss_mb"]
