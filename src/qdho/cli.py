"""Command-line front end: evolve | compare | steady | classical | verify.

Exit codes: 0 success, 1 validation/config error, 2 tolerance or acceptance
failure, 3 internal numeric failure (NaN/Inf). CSV output uses 17
significant digits in scientific notation so repeated runs are
byte-identical and values round-trip exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

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

#: Classical CSV runs integrate much finer than the bare stability bound so
#: the deviation column sits well under 1e-8.
_CLASSICAL_STEP_LIMIT = 4e-3
#: RK4 grid runs use twice the minimum step count for accuracy headroom.
_RK4_MARGIN = 2


class ToleranceFailure(Exception):
    """A computed quantity exceeded its configured tolerance."""


class NumericFailure(Exception):
    """NaN or Inf appeared in a computed quantity."""


def _fmt(value: float) -> str:
    return f"{value:.16e}"


def build_initial_state(spec: StateSpec, trunc) -> DensityMatrix:
    if spec.kind == "fock":
        return fock_state(spec.n, trunc)
    if spec.kind == "coherent":
        return coherent_state(spec.alpha, trunc)
    if spec.kind == "thermal":
        return thermal_state(spec.n_bar, trunc)
    return mixture_state(list(spec.terms), trunc)


def _analytic_on_grid(
    rho0: DensityMatrix, cfg: RunConfig, times: np.ndarray
) -> list[DensityMatrix]:
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


def _evolve_on_grid(rho0: DensityMatrix, cfg: RunConfig, times: np.ndarray) -> list[DensityMatrix]:
    if cfg.method == "analytic":
        return _analytic_on_grid(rho0, cfg, times)
    if cfg.check_truncation:
        # The certificate always uses the closed form, whatever the method:
        # it certifies the truncation, not the integrator.
        _analytic_on_grid(rho0, cfg, times)
    params = cfg.params
    tols = cfg.tolerances
    if cfg.method == "nu-zero":
        return [
            propagator.evolve_nu_zero(rho0, params.mu, params.omega, float(t), tolerances=tols)
            for t in times
        ]
    if cfg.method == "expm":
        return [liouville.evolve_numeric_expm(rho0, params, float(t), tolerances=tols) for t in times]
    return _rk4_on_grid(rho0, cfg, times)


def _rk4_on_grid(rho0: DensityMatrix, cfg: RunConfig, times: np.ndarray) -> list[DensityMatrix]:
    # RK4 is the one method that steps sequentially along the grid.
    params = cfg.params
    out = []
    current = rho0
    prev_t = 0.0
    for t in times:
        seg = float(t) - prev_t
        if seg > 0:
            steps = _RK4_MARGIN * liouville.stability_steps(params, rho0.dim, seg)
            current = liouville.evolve_numeric_rk4(
                current, params, seg, steps, tolerances=cfg.tolerances
            )
        out.append(current)
        prev_t = float(t)
    return out


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
    for t, rho in zip(times, states):
        if not np.all(np.isfinite(rho.mat.real)) or not np.all(np.isfinite(rho.mat.imag)):
            raise NumericFailure(f"state contains NaN/Inf at t={float(t):.6g}")
        report = validate_density(
            rho.mat,
            hermiticity_tol=cfg.tolerances.hermiticity_tol,
            trace_tol=cfg.tolerances.trace_tol,
            positivity_tol=cfg.tolerances.positivity_tol,
        )
        if not report.ok:
            raise ToleranceFailure(f"state invariants failed at t={float(t):.6g}: {report.describe()}")
        dist = observables.photon_distribution(rho)
        values = (
            [float(t), float(np.trace(rho.mat).real), observables.expect_n(rho), observables.purity(rho)]
            + [float(dist[k]) for k in range(k_max + 1)]
            + [report.min_eigenvalue]
        )
        lines.append(",".join(_fmt(v) for v in values))
    return "\n".join(lines) + "\n"


def cmd_compare(cfg: RunConfig) -> tuple[str, int]:
    """Closed form vs both oracles on one grid; fails on oracle_tol breach."""
    rho0 = build_initial_state(cfg.state, cfg.trunc)
    times = cfg.grid.times()
    tols = cfg.tolerances
    analytic = _analytic_on_grid(rho0, cfg, times)
    via_expm = [
        liouville.evolve_numeric_expm(rho0, cfg.params, float(t), tolerances=tols) for t in times
    ]
    via_rk4 = _rk4_on_grid(rho0, cfg, times)
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
    """Relax the vacuum to t = 20/(mu-nu) and compare with the thermal fixed point."""
    params = cfg.params
    if params.mu <= params.nu:
        raise ConfigError(
            f"steady state requires mu > nu, got mu={params.mu}, nu={params.nu}"
        )
    t_ss = 20.0 / (params.mu - params.nu)
    n_target = params.nu / (params.mu - params.nu)
    rho0 = fock_state(0, cfg.trunc)
    rho_ss = propagator.evolve_analytic(rho0, params, t_ss, tolerances=cfg.tolerances)
    if not np.all(np.isfinite(rho_ss.mat.real)) or not np.all(np.isfinite(rho_ss.mat.imag)):
        raise NumericFailure(f"steady-state evolution produced NaN/Inf at t={float(t_ss):.6g}")
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


def cmd_classical(cfg: ClassicalRunConfig) -> tuple[str, list[str]]:
    """CSV trajectory of the classical oscillator, analytic and RK4 side by side."""
    params = classical.ClassicalParams(omega=cfg.omega, gamma=cfg.gamma)
    p0 = classical.PhasePoint(x=cfg.x0, y=cfg.y0)
    analytic_ok = params.omega > params.gamma
    warnings_out = []
    if not analytic_ok:
        warnings_out.append(
            f"warning: omega={params.omega} <= gamma={params.gamma}: analytic columns "
            f"unsupported (RK4 only)"
        )
    lines = ["t,x_analytic,y_analytic,x_rk4,y_rk4,deviation"]
    rate = max(params.omega, 2.0 * params.gamma)
    current = p0
    prev_t = 0.0
    for t in cfg.grid.times():
        seg = float(t) - prev_t
        if seg > 0:
            steps = max(1, int(np.ceil(seg * rate / _CLASSICAL_STEP_LIMIT)))
            current = classical.evolve_classical_rk4(current, params, seg, steps)
        prev_t = float(t)
        if not (np.isfinite(current.x) and np.isfinite(current.y)):
            raise NumericFailure(f"RK4 trajectory diverged at t={float(t):.6g}")
        if analytic_ok:
            exact = classical.evolve_classical_analytic(p0, params, float(t))
            deviation = float(np.hypot(exact.x - current.x, exact.y - current.y))
            lines.append(
                ",".join(
                    [_fmt(float(t)), _fmt(exact.x), _fmt(exact.y), _fmt(current.x), _fmt(current.y), _fmt(deviation)]
                )
            )
        else:
            lines.append(
                ",".join([_fmt(float(t)), "", "", _fmt(current.x), _fmt(current.y), ""])
            )
    return "\n".join(lines) + "\n", warnings_out


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


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qdho", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, needs_config in (
        ("evolve", True),
        ("compare", True),
        ("steady", True),
        ("classical", True),
        ("verify", False),
    ):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=needs_config, help="path to the run config file")
        p.add_argument("--out", default="stdout", help="output path, or 'stdout'")
        p.add_argument("--check-truncation", action="store_true", dest="check_truncation")
        p.add_argument(
            "--tol-override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one tolerance, e.g. oracle_tol=1e-6 (repeatable)",
        )
    return parser


def _finalize_config(cfg: RunConfig, args) -> RunConfig:
    tols = cfg.tolerances.replaced(args.tol_override)
    check = cfg.check_truncation or args.check_truncation
    return dataclasses.replace(cfg, tolerances=tols, check_truncation=check)


def _write_output(text: str, destination: str) -> None:
    if destination in ("stdout", "-"):
        sys.stdout.write(text)
    else:
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verb == "verify":
            text, code = cmd_verify()
        elif args.verb == "classical":
            if args.tol_override:
                raise ConfigError("classical runs take no tolerance overrides")
            text, warn_lines = cmd_classical(load_classical_config(args.config))
            for line in warn_lines:
                print(line, file=sys.stderr)
            code = EXIT_OK
        else:
            cfg = _finalize_config(load_run_config(args.config), args)
            if args.verb == "evolve":
                text, code = cmd_evolve(cfg), EXIT_OK
            elif args.verb == "compare":
                text, code = cmd_compare(cfg)
            else:
                text, code = cmd_steady(cfg)
        _write_output(text, args.out)
        return code
    except (ConfigError, ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ToleranceFailure as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (NumericFailure, ArithmeticError, FloatingPointError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
