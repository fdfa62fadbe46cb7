"""Closed-form time evolution of the damped oscillator density matrix.

The solution is an operator series driven by the three disentangling
scalars E, F, G of :mod:`qdho.su11`:

    rho(t) = e^{(mu-nu)t/2} / F *
             sum_n  G^n/n! (a^dag)^n [ e^{(-i omega t - ln F) N}
                 { sum_m E^m/m! a^m rho(0) (a^dag)^m }
             e^{(+i omega t - ln F) N} ] a^n

On a D-level truncation both sums terminate exactly at index D-1 because
a and a^dag are nilpotent there, so the only approximation in this module
is the truncation itself.

No operator matrix is built. Every factor keeps the off-diagonal index
k = j - i of an entry rho[i, j]: (a X a^dag)[i, j] = sqrt((i+1)(j+1))
X[i+1, j+1], (a^dag X a)[i, j] = sqrt(i j) X[i-1, j-1], and the number
exponentials scale entry (i, j) by e^{l i + r j}. The phase theta of a
cancels from both sandwiches. So the series runs on the diagonals of
rho(0) alone, stored skewed: row r of a (rows x D) array holds
rho[i, (i + k_r) mod D] for i = 0..D-1, i.e. diagonal k_r for i < D - k_r
followed by diagonal k_r - D. A term is a shift along the rows plus an
entrywise scaling, O((2K+1) D) work where K is the widest nonzero
diagonal of rho(0); a diagonal state costs O(D) per term, a full one O(D^2).
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
    weight = -math.expm1(-mu * t)  # 1 - e^{-mu t}
    exponent = -(0.5 * mu + 1j * omega) * t
    evolved = _band_series(rho0.mat, weight, exponent, np.conj(exponent))
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
    evolved = evolve_analytic(rho0, params, t, tolerances=tolerances)
    return escape_distance(rho0, evolved, params, t, tolerances=tolerances)


def escape_distance(
    rho0: DensityMatrix,
    evolved: DensityMatrix,
    params: ModelParams,
    t: float,
    *,
    tolerances: ToleranceConfig | None = None,
) -> float:
    """:func:`doubled_truncation_distance` for a dim-D state already evolved.

    ``evolved`` is ``evolve_analytic(rho0, params, t)``; only the dim-2D run
    happens here, so a caller that needs the dim-D state anyway evolves it
    once.
    """
    d = rho0.dim
    if evolved.dim != d:
        raise ValueError(f"evolved state has dim {evolved.dim}, initial state {d}")
    big_mat = np.zeros((2 * d, 2 * d), dtype=complex)
    big_mat[:d, :d] = rho0.mat
    big0 = DensityMatrix(mat=big_mat, trunc=rho0.trunc.doubled())
    big = evolve_analytic(big0, params, t, tolerances=tolerances)
    padded = np.zeros((2 * d, 2 * d), dtype=complex)
    padded[:d, :d] = evolved.mat
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
    coeffs = plan.coeffs
    phase = plan.params.omega * coeffs.t
    log_f = math.log(coeffs.f_coef)
    evolved = _band_series(
        rho0.mat,
        coeffs.e_coef,
        complex(-log_f, -phase),
        complex(-log_f, phase),
        raise_weight=coeffs.g_coef,
        scale=plan.prefactor,
    )
    return _finish(evolved, rho0.trunc)


def _band_series(
    rho: np.ndarray,
    lower_weight: float,
    left_exp: complex,
    right_exp: complex,
    *,
    raise_weight: float = 0.0,
    scale: float = 1.0,
) -> np.ndarray:
    """scale * sum_n R^n/n! (a^dag)^n [e^{l N} (sum_m L^m/m! a^m rho (a^dag)^m) e^{r N}] a^n.

    Works on the skewed diagonals of rho (see the module docstring): only
    the rows k in {-K..K} mod D are kept, K being the widest nonzero
    diagonal of rho, or all D rows once 2K + 1 >= D. The map conserves k,
    so the band never grows. Each diagonal is computed on its own, the
    -k ones included, and a zero raise_weight skips the raising series.
    """
    d = rho.shape[0]
    nz_rows, nz_cols = np.nonzero(rho)
    width = int(np.abs(nz_rows - nz_cols).max()) if nz_rows.size else 0
    offsets = np.arange(-width, width + 1) % d if 2 * width + 1 < d else np.arange(d)
    levels = np.arange(d)
    cols = (levels + offsets[:, None]) % d  # band[r, i] = rho[i, cols[r, i]]
    band = rho[levels, cols]
    # a X a^dag reads entry (i+1, j+1), which is off the stored diagonal
    # (and outside the space) where j = D-1; a^dag X a reads (i-1, j-1),
    # whose weight sqrt(i j) already vanishes where j = 0.
    lower_w = np.sqrt((levels[:-1] + 1.0) * (cols[:, :-1] + 1.0))
    lower_w[cols[:, :-1] == d - 1] = 0.0
    raise_w = np.sqrt(levels[1:] * cols[:, 1:].astype(float))

    def series(z, weight, shift_w, src, dst):
        total = z.copy()
        term = z
        for m in range(1, d):
            shifted = np.zeros_like(term)
            shifted[:, dst] = shift_w * term[:, src]
            term = (weight / m) * shifted
            if not term.any():
                break
            total += term
        return total

    band = series(band, lower_weight, lower_w, slice(1, None), slice(None, -1))
    band = np.exp(left_exp * levels) * band * np.exp(right_exp * levels)[cols]
    if raise_weight:
        band = series(band, raise_weight, raise_w, slice(None, -1), slice(1, None))
    out = np.zeros((d, d), dtype=complex)
    out[levels, cols] = scale * band
    return out


def _finish(mat: np.ndarray, trunc: TruncationConfig) -> DensityMatrix:
    scale = max(1.0, float(np.abs(mat).max()))
    herm_dev = float(np.abs(mat - mat.conj().T).max())
    if herm_dev > _HERMITICITY_GUARD * scale:
        raise ArithmeticError(
            f"propagator output lost Hermiticity: deviation {herm_dev:.3e} at scale {scale:.3e}"
        )
    return DensityMatrix(mat=mat, trunc=trunc)
