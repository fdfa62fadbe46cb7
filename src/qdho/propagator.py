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

Time enters only through E, G, ln F, the phase omega t and the prefactor,
so :func:`evolve_analytic_grid` runs a whole time grid at once: it checks
rho(0) and the times once, computes those scalars per time, and runs the
series on a (times x rows x D) array, the band layout shared by every
time. Times go through in chunks whose band array stays within
``BAND_CHUNK_BYTES``; no (times x D x D) array is ever built. Each element
sees the same operations in the same order as in a one-time run, so a
grid equals the per-time loop bit for bit.

The truncation certificate uses block stability: the dim-D result equals,
entry for entry, the top D x D block of the run on the state zero-padded to 2D
(the series never feeds population back down across the cutoff). A
certified grid therefore evolves once, at 2D, takes the dim-D state as
that block and the escape distance as the norm of everything outside it.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import su11
from .config import ToleranceConfig
from .fock import DensityMatrix, ModelParams, check_evolution_args

#: Doubling-D truncation certificates must come in below this (Frobenius
#: weight the dim-D run loses above its cutoff, measured against a 2D run).
TRUNCATION_DOUBLING_TOL = 1e-9

#: Bytes of one (times x rows x D) band array per chunk of grid times. The
#: series holds a few such arrays at once; a larger budget batches more
#: times but raised the peak RSS of a 101-point D = 24 run by 13% at 1 MB.
BAND_CHUNK_BYTES = 256 * 1024

_HERMITICITY_GUARD = 1e-12


class GainWarning(UserWarning):
    """Pump exceeds loss (nu > mu): no steady state, truncation error grows with t."""


def evolve_analytic(
    rho0: DensityMatrix,
    params: ModelParams,
    t: float,
    *,
    tolerances: ToleranceConfig | None = None,
) -> DensityMatrix:
    """Evolve rho0 to time t under loss mu, pump nu and rotation omega."""
    states, _ = evolve_analytic_grid(rho0, params, [t], tolerances=tolerances)
    return states[0]


def evolve_analytic_grid(
    rho0: DensityMatrix,
    params: ModelParams,
    times,
    *,
    tolerances: ToleranceConfig | None = None,
    certify: bool = False,
) -> tuple[list[DensityMatrix], np.ndarray | None]:
    """Evolve rho0 to every time in ``times``: (states, escape distances).

    rho0 and the times are checked once for the whole grid. Without
    ``certify`` the series runs at D and the escape distances are None.
    With it, the series runs once per time on rho0 zero-padded to 2D; each
    state is the top D x D block of that run (equal to the dim-D result;
    only zeros off the band may differ in sign) and its escape distance,
    the quantity of :func:`doubled_truncation_distance`, is the Frobenius
    norm of the entries outside the block.
    """
    times = np.asarray(times, dtype=float)
    _check_rates(params.mu, params.nu)
    check_evolution_args(rho0, times, tolerances, omega=params.omega)
    scalars = []
    for t in times:
        c = su11.disentangling_coefficients(params.mu, params.nu, float(t))
        # A gain run's prefactor underflows to 0 once (nu - mu)t passes ~745;
        # the state and its escape distance would then both read 0.
        if not c.prefactor > 0:
            raise ValueError(f"prefactor must be positive, got {c.prefactor!r}")
        scalars.append((c.e_coef, c.g_coef, c.log_f, c.prefactor))
    lower, upper, log_f, prefactor = np.array(scalars).reshape(-1, 4).T
    phase = params.omega * times
    left = np.empty(times.size, dtype=complex)
    left.real, left.imag = -log_f, -phase

    d = rho0.dim
    mat0 = rho0.mat
    if certify:
        # Zero-padding keeps Hermiticity, trace and spectrum: no second check.
        mat0 = np.zeros((2 * d, 2 * d), dtype=complex)
        mat0[:d, :d] = rho0.mat
    cols, band = _skew(mat0)
    outside = (np.arange(cols.shape[1]) >= d) | (cols >= d)
    chunk = max(1, BAND_CHUNK_BYTES // band.nbytes)
    states, escapes = [], []
    for start in range(0, times.size, chunk):
        part = slice(start, start + chunk)
        evolved = _band_series(band, cols, lower[part], left[part], upper[part], prefactor[part])
        states += _block_states(evolved, cols, rho0.trunc)
        escapes += [float(np.linalg.norm(values)) for values in evolved[:, outside]]
    return states, np.array(escapes) if certify else None


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
    check_evolution_args(rho0, t, tolerances, omega=omega)
    weight = -math.expm1(-mu * t)  # 1 - e^{-mu t}
    exponent = -(0.5 * mu + 1j * omega) * t
    cols, band = _skew(rho0.mat)
    evolved = _band_series(
        band, cols, np.array([weight]), np.array([exponent]), np.zeros(1), np.ones(1)
    )
    return _block_states(evolved, cols, rho0.trunc)[0]


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
    The shared block agrees identically, so this is exactly the weight the
    dim-D run loses above its top level (see :func:`evolve_analytic_grid`).
    """
    _, escapes = evolve_analytic_grid(rho0, params, [t], tolerances=tolerances, certify=True)
    return float(escapes[0])


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


def _skew(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cols, band) with band[r, i] = rho[i, cols[r, i]] (module docstring).

    Only the rows k in {-K..K} mod D are kept, K being the widest nonzero
    diagonal of rho, or all D rows once 2K + 1 >= D. The series conserves
    k, so the band never grows.
    """
    d = rho.shape[0]
    nz_rows, nz_cols = np.nonzero(rho)
    width = int(np.abs(nz_rows - nz_cols).max()) if nz_rows.size else 0
    offsets = np.arange(-width, width + 1) % d if 2 * width + 1 < d else np.arange(d)
    levels = np.arange(d)
    cols = (levels + offsets[:, None]) % d
    return cols, rho[levels, cols]


def _block_states(evolved: np.ndarray, cols: np.ndarray, trunc) -> list[DensityMatrix]:
    """The top trunc.dim block of each evolved band, as states.

    Every band is first checked for Hermiticity: entry (i, c) of row r is
    compared with entry (c, i), which sits in the row of offset -k_r at
    position c. Entries outside the band are zero on both sides, so this is
    max |X - X^dag| over the whole matrix, against max(1, max |X|).
    """
    n = cols.shape[1]
    offsets = cols[:, 0]
    order = np.argsort(offsets)
    mirror = order[np.searchsorted(offsets[order], -offsets % n)]
    herm_dev = np.abs(evolved - evolved[:, mirror[:, None], cols].conj()).max(axis=(1, 2))
    scale = np.maximum(1.0, np.abs(evolved).max(axis=(1, 2)))
    for dev, sc in zip(herm_dev, scale):
        if dev > _HERMITICITY_GUARD * sc:
            raise ArithmeticError(
                f"propagator output lost Hermiticity: deviation {dev:.3e} at scale {sc:.3e}"
            )
    d = trunc.dim
    levels = np.broadcast_to(np.arange(n), cols.shape)
    inside = (levels < d) & (cols < d)
    rows, block_cols = levels[inside], cols[inside]
    states = []
    for values in evolved[:, inside]:
        mat = np.zeros((d, d), dtype=complex)
        mat[rows, block_cols] = values
        states.append(DensityMatrix(mat=mat, trunc=trunc))
    return states


def _band_series(band, cols, lower_weight, left_exp, raise_weight, scale):
    """Per time s: scale_s * sum_n R_s^n/n! (a^dag)^n [e^{l_s N} X_s e^{l_s^* N}] a^n.

    X_s = sum_m L_s^m/m! a^m rho (a^dag)^m, with rho given as its skewed
    ``band`` and every weight an array over times. Returns the evolved
    bands, shape (times, rows, D). A time's series stops adding terms once
    its own term vanishes, as a one-time run would, so every time gets the
    same arithmetic whatever else shares its batch.
    """
    d = band.shape[-1]
    levels = np.arange(d)
    shape = (len(scale),) + band.shape
    # a X a^dag reads entry (i+1, j+1), which is off the stored diagonal
    # (and outside the space) where j = D-1; a^dag X a reads (i-1, j-1),
    # whose weight sqrt(i j) already vanishes where j = 0.
    lower_w = np.sqrt((levels[:-1] + 1.0) * (cols[:, :-1] + 1.0))
    lower_w[cols[:, :-1] == d - 1] = 0.0
    raise_w = np.sqrt(levels[1:] * cols[:, 1:].astype(float))

    def series(z, weight, shift_w, src, dst):
        total = np.broadcast_to(z, shape).copy()
        term = z
        weight = weight[:, None, None]
        live = np.ones(shape[0], dtype=bool)
        for m in range(1, d):
            shifted = np.zeros(shape, dtype=complex)
            np.multiply(shift_w, term[..., src], out=shifted[..., dst])
            term = np.multiply(weight / m, shifted, out=shifted)
            live &= term.view(float).any(axis=(1, 2))
            if not live.any():
                break
            np.add(total, term, out=total, where=live[:, None, None])
        return total

    out = series(band, lower_weight, lower_w, slice(1, None), slice(None, -1))
    left = np.exp(left_exp[:, None] * levels)[:, None, :]
    out = left * out * np.exp(left_exp.conj()[:, None] * levels)[:, cols]
    if raise_weight.any():
        out = series(out, raise_weight, raise_w, slice(None, -1), slice(1, None))
    return scale[:, None, None] * out
