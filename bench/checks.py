"""Output checks: each CLI output against values the benchmark computes itself.

Nothing here imports qdho. Expected values come from closed-form physics
(the first-moment law of the master equation, the exact solution of the
classical oscillator in each damping regime) or from properties every
valid output must have (unit trace, positivity, one row per grid time,
a passing RESULT line).
"""

from __future__ import annotations

import math

#: |expect_n - moment law|. The closed form is exact inside the retained
#: block; what escapes above the cutoff was measured at 6e-9 (D = 24).
EXPECT_N_TOL = 1e-7
#: RK4 and analytic columns against the exact classical solution, relative
#: to the size of the start point. Measured worst: 3e-10 (benchmark configs).
CLASSICAL_TOL = 1e-8
#: The configs keep qdho's default oracle_tol; every compare distance must meet it.
ORACLE_TOL = 1e-7
#: Rounding allowance on purity <= 1.
PURITY_SLACK = 1e-12
#: Grid times are printed with 17 significant digits (CSV) or 6 (compare).
_CSV_T_TOL = 1e-12
_COMPARE_T_TOL = 5e-6


class CheckFailure(Exception):
    """A CLI output disagrees with what the benchmark computed."""


def grid(spec: dict) -> list[float]:
    n = spec["num_points"]
    t0, t1 = spec["t_start"], spec["t_end"]
    if n == 1:
        return [t0]
    return [t0 + (t1 - t0) * i / (n - 1) for i in range(n)]


def initial_mean_n(spec: dict) -> float:
    """<N> of the initial state on the retained levels, computed from its definition."""
    state = spec["state"]
    if state["kind"] == "mixture":
        return sum(level * weight for level, weight in state["terms"])
    if state["kind"] == "fock":
        return float(state["n"])
    # Coherent: Poisson weights |alpha|^(2n)/n!, renormalized on D levels.
    r2 = state["modulus"] ** 2
    logs = [n * math.log(r2) - math.lgamma(n + 1) for n in range(spec["dim"])]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    return sum(n * w for n, w in enumerate(weights)) / sum(weights)


def moment_law(spec: dict, t: float) -> float:
    """<N>(t) from d<N>/dt = -(mu - nu) <N> + nu."""
    mu, nu = spec["mu"], spec["nu"]
    n0 = initial_mean_n(spec)
    if mu == nu:
        return n0 + nu * t
    n_ss = nu / (mu - nu)
    return n_ss + (n0 - n_ss) * math.exp(-(mu - nu) * t)


def classical_exact(spec: dict, t: float) -> tuple[float, float]:
    """(x, dx/dt) of x'' + 2 gamma x' + omega^2 x = 0, for any damping."""
    w, g, x0, y0 = spec["omega"], spec["gamma"], spec["x0"], spec["y0"]
    decay = math.exp(-g * t)
    if w > g:
        big = math.sqrt(w * w - g * g)
        c, s = math.cos(big * t), math.sin(big * t)
        x = decay * (x0 * c + (y0 + g * x0) / big * s)
        y = decay * (y0 * c - (w * w * x0 + g * y0) / big * s)
        return x, y
    if w == g:
        b = y0 + g * x0
        return decay * (x0 + b * t), decay * (y0 - g * b * t)
    kappa = math.sqrt(g * g - w * w)
    r1, r2 = -g + kappa, -g - kappa
    c1 = (y0 - r2 * x0) / (r1 - r2)
    c2 = x0 - c1
    e1, e2 = math.exp(r1 * t), math.exp(r2 * t)
    return c1 * e1 + c2 * e2, r1 * c1 * e1 + r2 * c2 * e2


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def _csv_rows(stdout: str, header: list[str], spec: dict) -> list[list[str]]:
    lines = stdout.splitlines()
    _require(bool(lines) and lines[0].split(",") == header,
             f"CSV header {lines[0] if lines else '<none>'!r} is not {','.join(header)!r}")
    rows = [line.split(",") for line in lines[1:]]
    times = grid(spec)
    _require(len(rows) == len(times), f"{len(rows)} CSV rows for {len(times)} grid times")
    for row, t in zip(rows, times):
        _require(len(row) == len(header), f"row at t={t:.6g} has {len(row)} fields")
        _require(abs(float(row[0]) - t) <= _CSV_T_TOL * max(1.0, t),
                 f"row time {row[0]} is not grid time {t!r}")
    return rows


def _result_line(stdout: str) -> None:
    lines = stdout.splitlines()
    _require(bool(lines) and lines[-1].startswith("RESULT pass"),
             f"last line {lines[-1] if lines else '<none>'!r} is not 'RESULT pass ...'")


def check_evolve(spec: dict, stdout: str) -> int:
    k_max = min(spec["photon_levels"], spec["dim"] - 1)
    header = (["t", "trace_re", "expect_n", "purity"]
              + [f"p{k}" for k in range(k_max + 1)] + ["min_eigenvalue"])
    rows = _csv_rows(stdout, header, spec)
    for row in rows:
        t = float(row[0])
        trace, n, purity, min_eig = float(row[1]), float(row[2]), float(row[3]), float(row[-1])
        _require(abs(trace - 1.0) <= spec["trace_tol"], f"trace {trace!r} at t={t:.6g}")
        expected = moment_law(spec, t)
        _require(abs(n - expected) <= EXPECT_N_TOL * max(1.0, expected),
                 f"expect_n {n!r} at t={t:.6g}, moment law gives {expected!r}")
        _require(0.0 < purity <= 1.0 + PURITY_SLACK, f"purity {purity!r} at t={t:.6g}")
        _require(min_eig >= -spec["positivity_tol"],
                 f"min_eigenvalue {min_eig!r} at t={t:.6g}")
    return len(rows)


def check_compare(spec: dict, stdout: str) -> int:
    _result_line(stdout)
    t_lines = [line for line in stdout.splitlines() if line.startswith("t=")]
    times = grid(spec)
    _require(len(t_lines) == len(times), f"{len(t_lines)} t= lines for {len(times)} grid times")
    for line, t in zip(t_lines, times):
        fields = dict(item.split("=", 1) for item in line.split())
        _require(abs(float(fields["t"]) - t) <= _COMPARE_T_TOL * max(1.0, t),
                 f"compare line time {fields['t']} is not grid time {t!r}")
        for key in ("analytic_vs_expm", "analytic_vs_rk4", "expm_vs_rk4"):
            _require(float(fields[key]) <= ORACLE_TOL, f"{key}={fields[key]} at t={t:.6g}")
    return len(t_lines)


def check_steady(spec: dict, stdout: str) -> int:
    _result_line(stdout)
    mu, nu = spec["mu"], spec["nu"]
    n_ss = nu / (mu - nu)
    line = next((ln for ln in stdout.splitlines() if ln.startswith("expect_n=")), None)
    _require(line is not None, "no expect_n= line")
    fields = dict(item.split("=", 1) for item in line.split())
    _require(abs(float(fields["target"]) - n_ss) <= 1e-9 * max(1.0, n_ss),
             f"target {fields['target']} is not nu/(mu-nu) = {n_ss!r}")
    _require(abs(float(fields["expect_n"]) - n_ss) <= spec["steady_tol"],
             f"expect_n {fields['expect_n']} is not within steady_tol of {n_ss!r}")
    return 1


def check_verify(stdout: str) -> int:
    _result_line(stdout)
    suites = [line for line in stdout.splitlines() if line.startswith("identity=")]
    _require(bool(suites), "no identity= lines")
    for line in suites:
        _require(line.endswith(" pass"), f"suite line {line!r} does not pass")
    return 1


def check_classical(spec: dict, stdout: str, stderr: str) -> int:
    header = ["t", "x_analytic", "y_analytic", "x_rk4", "y_rk4", "deviation"]
    rows = _csv_rows(stdout, header, spec)
    scale = max(1.0, abs(spec["x0"]), abs(spec["y0"]))
    analytic = spec["omega"] > spec["gamma"]
    if not analytic:
        _require(stderr.startswith("warning:"), "no warning for the missing analytic columns")
    for row in rows:
        t = float(row[0])
        x, y = classical_exact(spec, t)
        for label, value, exact in (("x_rk4", row[3], x), ("y_rk4", row[4], y)):
            _require(abs(float(value) - exact) <= CLASSICAL_TOL * scale,
                     f"{label} {value} at t={t:.6g}, exact {exact!r}")
        if analytic:
            for label, value, exact in (("x_analytic", row[1], x), ("y_analytic", row[2], y)):
                _require(abs(float(value) - exact) <= CLASSICAL_TOL * scale,
                         f"{label} {value} at t={t:.6g}, exact {exact!r}")
            _require(float(row[5]) <= CLASSICAL_TOL * scale, f"deviation {row[5]} at t={t:.6g}")
        else:
            _require(row[1] == row[2] == row[5] == "",
                     f"analytic columns filled at t={t:.6g} although omega <= gamma")
    return len(rows)


def check(op, code: int, stdout: str, stderr: str) -> int:
    """Points the operation delivered; raises CheckFailure on any mismatch."""
    _require(code == 0, f"exit code {code}: {stderr.strip()[:300]}")
    try:
        if op.verb == "evolve":
            return check_evolve(op.spec, stdout)
        if op.verb == "compare":
            return check_compare(op.spec, stdout)
        if op.verb == "steady":
            return check_steady(op.spec, stdout)
        if op.verb == "verify":
            return check_verify(stdout)
        return check_classical(op.spec, stdout, stderr)
    except (ValueError, KeyError, IndexError) as exc:
        raise CheckFailure(f"unparsable output: {exc!r}") from None
