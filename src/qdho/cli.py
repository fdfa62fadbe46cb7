"""Command-line front end: evolve | compare | steady | classical | verify.

Each verb formats what the library computes on its time grid; the
integrators, their step rules and their grid walks live in the library.
The config file sets every run option but one: ``--check-truncation``
certifies the truncation of ``evolve`` and ``compare``.

Exit codes: 0 success, 1 validation/config error (overflowing rates
included), 2 tolerance or acceptance failure, 3 internal numeric failure (a
non-finite certificate or distance, lost Hermiticity, or out of memory).
CSV output uses 17 significant digits in scientific notation so repeated
runs are byte-identical and values round-trip exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings

import numpy as np

from . import classical, liouville, observables, propagator, verification
from .config import (
    ClassicalRunConfig,
    ConfigError,
    RunConfig,
    StateSpec,
    load_classical_config,
    load_run_config,
)
from .fock import (
    DensityMatrix,
    ValidationError,
    coherent_state,
    fock_state,
    mixture_state,
    thermal_state,
    validate_density,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_TOLERANCE = 2
EXIT_NUMERIC = 3


class ToleranceFailure(Exception):
    """A computed quantity exceeded its configured tolerance."""


class NumericFailure(Exception):
    """NaN or Inf appeared in a computed quantity."""


def build_initial_state(spec: StateSpec, trunc) -> DensityMatrix:
    if spec.kind == "fock":
        return fock_state(spec.n, trunc)
    if spec.kind == "coherent":
        return coherent_state(spec.alpha, trunc)
    if spec.kind == "thermal":
        return thermal_state(spec.n_bar, trunc)
    return mixture_state(list(spec.terms), trunc)


def _analytic_on_grid(rho0: DensityMatrix, cfg: RunConfig, times: np.ndarray) -> np.ndarray:
    """Closed-form states on the grid, each certified first under check_truncation."""
    states, escapes = propagator.evolve_analytic_grid(
        rho0, cfg.params, times, tolerances=cfg.tolerances, certify=cfg.check_truncation
    )
    if escapes is None:
        return states
    for t, dist in zip(times, escapes):
        if not np.isfinite(dist):
            raise NumericFailure(f"truncation check produced {dist} at t={float(t):.6g}")
        if dist > propagator.TRUNCATION_DOUBLING_TOL:
            raise ToleranceFailure(
                f"truncation not converged at t={float(t):.6g}: doubling-D distance "
                f"{dist:.3e} > {propagator.TRUNCATION_DOUBLING_TOL:.1e}"
            )
    return states


def _evolve_on_grid(rho0: DensityMatrix, cfg: RunConfig, times: np.ndarray) -> np.ndarray:
    if cfg.method == "analytic":
        return _analytic_on_grid(rho0, cfg, times)
    if cfg.check_truncation:
        # The certificate always uses the closed form, whatever the method:
        # it certifies the truncation, not the integrator.
        _analytic_on_grid(rho0, cfg, times)
    grid = {
        "nu-zero": propagator.evolve_nu_zero_grid,
        "expm": liouville.evolve_numeric_expm_grid,
        "rk4": liouville.evolve_numeric_rk4_grid,
    }[cfg.method]
    return grid(rho0, cfg.params, times, tolerances=cfg.tolerances)


def cmd_evolve(cfg: RunConfig) -> str:
    """Time series of observables as CSV, one row per grid point."""
    rho0 = build_initial_state(cfg.state, cfg.trunc)
    times = cfg.grid.times()
    states = _evolve_on_grid(rho0, cfg, times)
    k_max = min(cfg.photon_levels, cfg.trunc.dim - 1)
    header = (
        ["t", "trace_re", "expect_n", "purity"]
        + [f"p{k}" for k in range(k_max + 1)]
        + ["min_eigenvalue"]
    )
    lines = [",".join(header)]
    row = ",".join(["%.16e"] * len(header))
    for t, rho in zip(times, states):
        report = validate_density(rho, cfg.tolerances)
        if not report.ok:
            raise ToleranceFailure(f"state invariants failed at t={float(t):.6g}: {report.describe()}")
        dist = observables.photon_distribution(rho)
        values = (
            [float(t), float(np.trace(rho).real), observables.expect_n(rho), observables.purity(rho)]
            + [float(dist[k]) for k in range(k_max + 1)]
            + [report.min_eigenvalue]
        )
        lines.append(row % tuple(values))
    return "\n".join(lines) + "\n"


def cmd_compare(cfg: RunConfig) -> tuple[str, int]:
    """Closed form vs both oracles on one grid; fails on oracle_tol breach."""
    rho0 = build_initial_state(cfg.state, cfg.trunc)
    times = cfg.grid.times()
    tols = cfg.tolerances
    analytic = _analytic_on_grid(rho0, cfg, times)
    via_expm = liouville.evolve_numeric_expm_grid(rho0, cfg.params, times, tolerances=tols)
    via_rk4 = liouville.evolve_numeric_rk4_grid(rho0, cfg.params, times, tolerances=tols)
    pairs = {"analytic_vs_expm": 0.0, "analytic_vs_rk4": 0.0, "expm_vs_rk4": 0.0}
    lines = []
    for i, t in enumerate(times):
        d_ae = observables.frobenius_distance(analytic[i], via_expm[i])
        d_ar = observables.frobenius_distance(analytic[i], via_rk4[i])
        d_er = observables.frobenius_distance(via_expm[i], via_rk4[i])
        for key, d in (("analytic_vs_expm", d_ae), ("analytic_vs_rk4", d_ar), ("expm_vs_rk4", d_er)):
            if not np.isfinite(d):
                raise NumericFailure(f"distance {key} is {d} at t={float(t):.6g}")
            pairs[key] = max(pairs[key], d)
        lines.append(
            f"t={t:.6g} analytic_vs_expm={d_ae:.6e} analytic_vs_rk4={d_ar:.6e} "
            f"expm_vs_rk4={d_er:.6e}"
        )
    for key, worst in pairs.items():
        lines.append(f"max {key}={worst:.6e} (tol {tols.oracle_tol:.1e})")
    overall = max(pairs.values())
    ok = overall <= tols.oracle_tol
    lines.append(f"RESULT {'pass' if ok else 'fail'} max_residual={overall:.6e}")
    return "\n".join(lines) + "\n", EXIT_OK if ok else EXIT_TOLERANCE


def cmd_steady(cfg: RunConfig) -> tuple[str, int]:
    """Relax the vacuum to t = 20/(mu-nu) by ``[run] method``; compare with the thermal state."""
    params = cfg.params
    if params.mu <= params.nu:
        raise ConfigError(
            f"steady state requires mu > nu, got mu={params.mu}, nu={params.nu}"
        )
    t_ss = 20.0 / (params.mu - params.nu)
    n_target = params.nu / (params.mu - params.nu)
    rho_ss = _evolve_on_grid(fock_state(0, cfg.trunc), cfg, np.array([t_ss]))[0]
    n_measured = observables.expect_n(rho_ss)
    target = thermal_state(n_target, cfg.trunc)
    dist = observables.frobenius_distance(rho_ss, target)
    dev = abs(n_measured - n_target)
    ok = dev <= cfg.steady_tol and dist <= cfg.steady_tol
    lines = [
        f"evolved vacuum to t={t_ss:.6g} (mu={params.mu}, nu={params.nu}, D={cfg.trunc.dim})",
        f"expect_n={n_measured:.10f} target={n_target:.10f} deviation={dev:.6e}",
        f"frobenius_distance_to_thermal={dist:.6e} (tol {cfg.steady_tol:.1e})",
        f"RESULT {'pass' if ok else 'fail'} max_residual={max(dev, dist):.6e}",
    ]
    return "\n".join(lines) + "\n", EXIT_OK if ok else EXIT_TOLERANCE


def cmd_classical(cfg: ClassicalRunConfig) -> str:
    """CSV trajectory of the classical oscillator, analytic and RK4 side by side.

    The RK4 walk steps segment by segment; the closed form runs over the
    whole grid at once, the deviation is one vectorized hypot, and each row
    is one format. Critical and overdamped runs (omega <= gamma) leave the
    analytic and deviation columns blank and warn once.
    """
    params, p0 = cfg.params, cfg.start
    times = cfg.grid.times()
    rk4 = np.array([[p.x, p.y] for p in classical.evolve_classical_rk4_grid(p0, params, times)])
    if params.omega > params.gamma:
        exact = classical.evolve_classical_analytic_grid(p0, params, times)
        with np.errstate(over="ignore"):  # an overflow is an inf deviation, not a warning line
            diff = exact - rk4
        deviation = np.hypot(diff[:, 0], diff[:, 1])
        columns = (times, exact[:, 0], exact[:, 1], rk4[:, 0], rk4[:, 1], deviation)
        row = ",".join(["%.16e"] * 6) + "\n"
    else:
        columns = (times, rk4[:, 0], rk4[:, 1])
        row = "%.16e,,,%.16e,%.16e,\n"
        # Only a trajectory that was computed warns.
        warnings.warn(
            f"omega={params.omega} <= gamma={params.gamma}: analytic columns unsupported (RK4 only)"
        )
    lines = ["t,x_analytic,y_analytic,x_rk4,y_rk4,deviation\n"]
    lines += [row % values for values in zip(*(c.tolist() for c in columns))]
    return "".join(lines)


def cmd_verify() -> tuple[str, int]:
    """Run every identity suite and report residuals."""
    suites = verification.run_identity_suites()
    lines = [s.describe() for s in suites]
    worst = max(s.max_residual for s in suites)
    ok = all(s.passed for s in suites)
    lines.append(f"RESULT {'pass' if ok else 'fail'} max_residual={worst:.6e}")
    return "\n".join(lines) + "\n", EXIT_OK if ok else EXIT_TOLERANCE


class _Parser(argparse.ArgumentParser):
    # Usage problems are validation errors (exit 1); argparse's default exit
    # code 2 is reserved for tolerance failures here.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _parse(argv) -> argparse.Namespace:
    """The verb and its flags; a flag the verb does not read exits 1 with the verb's usage."""
    parser = _Parser(prog="qdho", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    # Each verb registers only the flags it reads.
    for verb in ("evolve", "compare", "steady", "classical", "verify"):
        p = sub.add_parser(verb)
        if verb != "verify":
            p.add_argument("--config", required=True, help="path to the run config file")
        p.add_argument("--out", default="stdout", help="output path, or 'stdout'")
        if verb in ("evolve", "compare"):
            p.add_argument("--check-truncation", action="store_true", dest="check_truncation")
    args, stray = parser.parse_known_args(argv)
    if stray:
        sub.choices[args.verb].error(f"unrecognized arguments: {' '.join(stray)}")
    return args


def _write_output(text: str, destination: str) -> None:
    if destination in ("stdout", "-"):
        sys.stdout.write(text)
    else:
        try:
            with open(destination, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {destination}: {exc}") from None


def main(argv=None) -> int:
    """Run one verb and return its exit code.

    A warning the verb raises prints as one ``warning: <message>`` line per
    distinct message, ahead of any error line. The warning filters in force
    still apply: a warning they turn into an error propagates.
    """
    with warnings.catch_warnings(record=True) as caught:
        code, failure = _run(argv)
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    if failure:
        print(failure, file=sys.stderr)
    return code


def _run(argv) -> tuple[int, str | None]:
    """(exit code, the stderr line of a failure or None)."""
    try:
        args = _parse(argv)
        if args.verb == "verify":
            text, code = cmd_verify()
        elif args.verb == "classical":
            text, code = cmd_classical(load_classical_config(args.config)), EXIT_OK
        else:
            cfg = load_run_config(args.config)
            if getattr(args, "check_truncation", False):
                cfg = dataclasses.replace(cfg, check_truncation=True)
            if args.verb == "evolve":
                text, code = cmd_evolve(cfg), EXIT_OK
            elif args.verb == "compare":
                text, code = cmd_compare(cfg)
            else:
                text, code = cmd_steady(cfg)
        _write_output(text, args.out)
        return code, None
    except (ConfigError, ValidationError, ValueError) as exc:
        return EXIT_VALIDATION, f"error: {exc}"
    except ToleranceFailure as exc:
        return EXIT_TOLERANCE, f"tolerance failure: {exc}"
    except (NumericFailure, ArithmeticError, FloatingPointError, OverflowError) as exc:
        return EXIT_NUMERIC, f"numeric failure: {exc}"
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        return EXIT_NUMERIC, f"numeric failure: out of memory{detail}"


if __name__ == "__main__":
    sys.exit(main())
