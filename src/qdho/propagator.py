"""Closed-form time evolution of the damped oscillator density matrix.

The solution is an operator series driven by the three disentangling
scalars E, F, G of :mod:`qdho.su11`:

    rho(t) = e^{(mu-nu)t/2} / F *
             sum_n  G^n/n! (a^dag)^n [ e^{(-i omega t - ln F) N}
                 { sum_m E^m/m! a^m rho(0) (a^dag)^m }
             e^{(+i omega t - ln F) N} ] a^n

On a D-level truncation both sums terminate exactly at index D-1 because
a and a^dag are nilpotent there, so the only approximation in this module
is the truncation itself. Powers are accumulated incrementally (one
multiplication by a or a^dag per term) and the diagonal exponentials of N
are applied as entrywise row/column scalings, never through a general
matrix exponential.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import su11
from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .fock import (
    DensityMatrix,
    ModelParams,
    TruncationConfig,
    build_operators,
    check_evolution_args,
)

#: Doubling-D truncation certificates must come in below this (Frobenius
#: weight the dim-D run loses above its cutoff, measured against a 2D run).
TRUNCATION_DOUBLING_TOL = 1e-9

_HERMITICITY_GUARD = 1e-12


class GainWarning(UserWarning):
    """Pump exceeds loss (nu > mu): no steady state, truncation error grows with t."""


@dataclass(frozen=True)
class PropagatorPlan:
    """Precomputed ingredients of one closed-form evolution."""

    coeffs: su11.DisentanglingCoefficients
    params: ModelParams
    trunc: TruncationConfig
    prefactor: float
    max_series_index: int

    def __post_init__(self):
        if not self.prefactor > 0:
            raise ValueError(f"prefactor must be positive, got {self.prefactor!r}")
        if self.max_series_index > self.trunc.dim - 1:
            raise ValueError(
                f"series index {self.max_series_index} exceeds the nilpotency "
                f"bound {self.trunc.dim - 1}"
            )


def make_plan(
    params: ModelParams,
    trunc: TruncationConfig,
    t: float,
    *,
    degeneracy_threshold: float | None = None,
) -> PropagatorPlan:
    """Disentangling coefficients plus prefactor for an evolution to time t."""
    threshold = (
        DEFAULT_TOLERANCES.degeneracy_threshold
        if degeneracy_threshold is None
        else degeneracy_threshold
    )
    coeffs = su11.disentangling_coefficients(params.mu, params.nu, t, threshold)
    prefactor = math.exp(0.5 * (params.mu - params.nu) * t) / coeffs.f_coef
    return PropagatorPlan(
        coeffs=coeffs,
        params=params,
        trunc=trunc,
        prefactor=prefactor,
        max_series_index=trunc.dim - 1,
    )


def evolve_analytic(
    rho0: DensityMatrix,
    params: ModelParams,
    t: float,
    *,
    tolerances: ToleranceConfig | None = None,
) -> DensityMatrix:
    """Evolve rho0 to time t under loss mu, pump nu and rotation omega."""
    _check_rates(params.mu, params.nu)
    tols = check_evolution_args(rho0, t, tolerances)
    plan = make_plan(params, rho0.trunc, t, degeneracy_threshold=tols.degeneracy_threshold)
    return _apply_plan(rho0, plan)


def evolve_lindblad_only(
    rho0: DensityMatrix,
    mu: float,
    nu: float,
    t: float,
    *,
    tolerances: ToleranceConfig | None = None,
) -> DensityMatrix:
    """Evolution with the dissipator alone (omega = 0)."""
    _check_rates(mu, nu)
    tols = check_evolution_args(rho0, t, tolerances)
    plan = make_plan(
        ModelParams(omega=0.0, mu=mu, nu=nu),
        rho0.trunc,
        t,
        degeneracy_threshold=tols.degeneracy_threshold,
    )
    return _apply_plan(rho0, plan)


def evolve_nu_zero(
    rho0: DensityMatrix,
    mu: float,
    omega: float,
    t: float,
    *,
    tolerances: ToleranceConfig | None = None,
) -> DensityMatrix:
    """Pure-loss corollary, implemented as an independent code path.

    rho(t) = e^{-(mu/2 + i omega) t N}
             { sum_m (1 - e^{-mu t})^m / m!  a^m rho(0) (a^dag)^m }
             e^{-(mu/2 - i omega) t N}

    No disentangling coefficients enter: the series weight comes from
    expm1 directly, which keeps this route independent of :mod:`qdho.su11`
    while agreeing with ``evolve_analytic(nu=0)`` to 1e-12.
    """
    _check_rates(mu, 0.0)
    check_evolution_args(rho0, t, tolerances)
    ops = build_operators(rho0.trunc, theta=0.0)
    weight = -math.expm1(-mu * t)  # 1 - e^{-mu t}
    inner = _lowering_series(rho0.mat, ops.a, ops.a_dagger, weight)
    exponent = -(0.5 * mu + 1j * omega) * t
    evolved = _number_sandwich(inner, exponent, np.conj(exponent))
    return _finish(evolved, rho0.trunc)


def doubled_truncation_distance(
    rho0: DensityMatrix,
    params: ModelParams,
    t: float,
    *,
    tolerances: ToleranceConfig | None = None,
) -> float:
    """Truncation-convergence certificate: weight escaping above the cutoff.

    The run is repeated with the state embedded in a doubled space and the
    dim-D result (zero-padded) is compared against the dim-2D result in
    Frobenius norm. A small value certifies the retained dimension holds the
    evolution; the CLI --check-truncation flag gates runs on it at 1e-9.
    """
    d = rho0.dim
    big_trunc = rho0.trunc.doubled()
    big_mat = np.zeros((2 * d, 2 * d), dtype=complex)
    big_mat[:d, :d] = rho0.mat
    big0 = DensityMatrix(mat=big_mat, trunc=big_trunc)
    small = evolve_analytic(rho0, params, t, tolerances=tolerances)
    big = evolve_analytic(big0, params, t, tolerances=tolerances)
    padded = np.zeros((2 * d, 2 * d), dtype=complex)
    padded[:d, :d] = small.mat
    # The shared block agrees identically (the series never feeds population
    # back down across the cutoff), so this distance is exactly the weight
    # the dim-D run lost above its top level.
    return float(np.linalg.norm(big.mat - padded))


def _check_rates(mu: float, nu: float) -> None:
    if mu < 0 or nu < 0:
        raise ValueError(f"rates must be non-negative, got mu={mu}, nu={nu}")
    if nu > mu:
        warnings.warn(
            f"pump nu={nu} exceeds loss mu={mu}: no steady state exists and "
            f"truncation error grows with t",
            GainWarning,
            stacklevel=3,
        )


def _apply_plan(rho0: DensityMatrix, plan: PropagatorPlan) -> DensityMatrix:
    ops = build_operators(rho0.trunc, plan.params.theta)
    coeffs = plan.coeffs
    inner = _lowering_series(rho0.mat, ops.a, ops.a_dagger, coeffs.e_coef)
    phase = plan.params.omega * coeffs.t
    log_f = math.log(coeffs.f_coef)
    core = _number_sandwich(inner, complex(-log_f, -phase), complex(-log_f, phase))
    outer = _raising_series(core, ops.a, ops.a_dagger, coeffs.g_coef)
    return _finish(plan.prefactor * outer, rho0.trunc)


def _lowering_series(rho: np.ndarray, a: np.ndarray, ad: np.ndarray, weight: float) -> np.ndarray:
    """sum_m weight^m / m!  a^m rho (a^dag)^m, exact on the truncated space."""
    total = rho.copy()
    term = rho
    for m in range(1, rho.shape[0]):
        term = (weight / m) * (a @ term @ ad)
        if not term.any():
            break
        total += term
    return total


def _raising_series(rho: np.ndarray, a: np.ndarray, ad: np.ndarray, weight: float) -> np.ndarray:
    """sum_n weight^n / n!  (a^dag)^n rho a^n."""
    total = rho.copy()
    term = rho
    for n in range(1, rho.shape[0]):
        term = (weight / n) * (ad @ term @ a)
        if not term.any():
            break
        total += term
    return total


def _number_sandwich(rho: np.ndarray, left_exp: complex, right_exp: complex) -> np.ndarray:
    """e^{left_exp N} rho e^{right_exp N} via entrywise scalings (N diagonal)."""
    levels = np.arange(rho.shape[0])
    left = np.exp(left_exp * levels)
    right = np.exp(right_exp * levels)
    return left[:, None] * rho * right[None, :]


def _finish(mat: np.ndarray, trunc: TruncationConfig) -> DensityMatrix:
    scale = max(1.0, float(np.abs(mat).max()))
    herm_dev = float(np.abs(mat - mat.conj().T).max())
    if herm_dev > _HERMITICITY_GUARD * scale:
        raise ArithmeticError(
            f"propagator output lost Hermiticity: deviation {herm_dev:.3e} at scale {scale:.3e}"
        )
    return DensityMatrix(mat=mat, trunc=trunc)
