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
cancels from both sandwiches. So each series term is the previous one
moved one level along the main diagonal (down for lowering, up for
raising) and scaled entrywise. With K the widest nonzero diagonal of
rho(0) and w the width of its occupied levels, the series runs on one of
two layouts (:func:`_layout`):

- a narrow state (2K + 1 <= w, every diagonal state among them) on its
  diagonals alone, stored skewed: row r of a (2K+1 x D) band holds
  rho[i, (i + k_r) mod D] for i = 0..D-1, and a shift moves along the row;
- a full-width state (2K + 1 > w) on the D x D matrix itself, where a
  shift moves rows and columns alike.

A term is held only on the box of slots it can occupy. If the input of a
series occupies levels [lo, hi) (band positions, or matrix rows and
columns apiece), lowering term m lives on [max(lo - m, 0), hi - m) and
raising term n on [lo + n, min(hi + n, D)), while band rows stay put. The
lowering series ends once its box is empty, the raising one once its box
has left the space. Term m costs O((2K+1) w_m) work on the band and
O(w_m^2) on the matrix, w_m <= D being the width of its window: at most
O(D) for a diagonal state and O(D^2) for a full one.

Time enters only through E, G, ln F, the phase omega t and the prefactor,
so :func:`evolve_analytic_grid` runs a whole time grid at once: it checks
rho(0) and the times once, computes those scalars per time, and runs the
series on a (times x rows x D) array, the layout shared by every time.
Times go through in chunks whose array stays within ``BAND_CHUNK_BYTES``:
a (times x (2K+1) x D) band, or for a full-width state a (times x D x D)
matrix stack. Each element sees the same operations in the same order as
in a one-time run, so a grid equals the per-time loop bit for bit.
:func:`evolve_nu_zero_grid` runs the pure-loss series over a grid the
same way.

The truncation certificate uses block stability: the dim-D result equals,
entry for entry, the top D x D block of the run on the state zero-padded to 2D
(the series never feeds population back down across the cutoff). A
certified grid therefore evolves once, at 2D, takes the dim-D state as
that block and the escape distance as the norm of everything outside it.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from . import su11
from .config import ToleranceConfig
from .fock import DensityMatrix, ModelParams, check_evolution_args

#: Doubling-D truncation certificates must come in below this (Frobenius
#: weight the dim-D run loses above its cutoff, measured against a 2D run).
TRUNCATION_DOUBLING_TOL = 1e-9

#: Bytes of one (times x rows x D) series array (band or matrix) per chunk
#: of grid times. The series holds a few such arrays at once; a larger
#: budget batches more times but raised the peak RSS of a 101-point D = 24
#: run by 13% at 1 MB.
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

    rho0 and the times are checked once for the whole grid, and the layout
    of the series (module docstring) is chosen on rho0 itself: the skewed
    band for a narrow state, the matrix for a full-width one. Without
    ``certify`` the series runs at D and the escape distances are None.
    With it, the series runs once per time on rho0 zero-padded to 2D, in
    the same layout; each state is the top D x D block of that run (equal
    to the dim-D result; only zeros outside a term's box may differ in
    sign) and its escape distance, the quantity of
    :func:`doubled_truncation_distance`, is the Frobenius norm of the
    entries outside the block.
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
    # Zero-padding keeps Hermiticity, trace and spectrum: no second check.
    layout = _layout(rho0.mat, 2 * d if certify else d)
    outside = ~_inside(layout, d)
    states, escapes = [], []
    for evolved, block in _evolved_chunks(layout, rho0.trunc, lower, left, upper, prefactor):
        states += block
        if certify:
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
    """Pure-loss corollary, with weights that do not come from :mod:`qdho.su11`.

    rho(t) = e^{-(mu/2 + i omega) t N}
             { sum_m (1 - e^{-mu t})^m / m!  a^m rho(0) (a^dag)^m }
             e^{-(mu/2 - i omega) t N}

    No disentangling coefficients enter: the series weight comes from
    expm1 directly. Only the weights are independent of the closed form;
    the layout, the chunking and the series routine (``_layout``,
    ``_evolved_chunks``, ``_series``) are the ones
    :func:`evolve_analytic_grid` runs. So agreeing with
    ``evolve_analytic(nu=0)`` to 1e-12 checks the coefficients, not the
    series.
    """
    return evolve_nu_zero_grid(rho0, mu, omega, [t], tolerances=tolerances)[0]


def evolve_nu_zero_grid(
    rho0: DensityMatrix,
    mu: float,
    omega: float,
    times,
    *,
    tolerances: ToleranceConfig | None = None,
) -> list[DensityMatrix]:
    """:func:`evolve_nu_zero` at every time in ``times``, checking rho0 once."""
    times = np.asarray(times, dtype=float)
    _check_rates(mu, 0.0)
    check_evolution_args(rho0, times, tolerances, omega=omega)
    ts = times.tolist()
    weight = np.array([-math.expm1(-mu * t) for t in ts])  # 1 - e^{-mu t}
    exponent = np.array([-(0.5 * mu + 1j * omega) * t for t in ts], dtype=complex)
    layout = _layout(rho0.mat)
    states = []
    for _, block in _evolved_chunks(
        layout, rho0.trunc, weight, exponent, np.zeros(times.size), np.ones(times.size)
    ):
        states += block
    return states


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


class _Layout(NamedTuple):
    """Where the series holds a matrix on n levels (module docstring).

    Slot (r, p) of ``values`` holds entry (i[r, p], j[r, p]) of the matrix;
    ``i`` and ``j`` broadcast to the shape of ``values``, whose last axis
    has n positions. A shift by one level moves a term one position along
    that axis and ``row_step`` rows along the first.
    """

    values: np.ndarray
    i: np.ndarray
    j: np.ndarray
    row_step: int


def _layout(rho: np.ndarray, n: int | None = None) -> _Layout:
    """rho, zero-padded to n levels (default its own), laid out for the series.

    K is the widest nonzero diagonal of rho and w the width of its occupied
    levels. If 2K + 1 <= w, the series runs on the skewed band of the
    diagonals |k| <= K: row r holds entries (i, (i + k_r) mod n) for
    k_r = -K..K, and a shift keeps the row (row step 0). Otherwise it runs
    on the n x n matrix itself, whose shifts move rows and columns alike
    (row step 1). Zero-padding changes neither K nor w, so a certified run
    gets the layout of its dim-D run. The series conserves k, so the band
    never grows.
    """
    d = rho.shape[0]
    n = d if n is None else n
    nz_rows, nz_cols = np.nonzero(rho)
    width = int(np.abs(nz_rows - nz_cols).max(initial=0))
    occupied = int(np.ptp(np.concatenate([nz_rows, nz_cols]))) + 1 if nz_rows.size else 0
    mat = rho
    if n > d:
        mat = np.zeros((n, n), dtype=complex)
        mat[:d, :d] = rho
    levels = np.arange(n)
    if 2 * width + 1 > occupied:
        return _Layout(mat, levels[:, None], levels[None, :], 1)
    cols = (levels + np.arange(-width, width + 1)[:, None]) % n
    return _Layout(mat[levels, cols], levels[None, :], cols, 0)


def _inside(layout: _Layout, d: int) -> np.ndarray:
    """Mask of the slots that hold an entry of the top d x d block."""
    return (layout.i < d) & (layout.j < d)


def _evolved_chunks(layout: _Layout, trunc, *weights):
    """:func:`_series` over chunks of times: (evolved values, top-block states).

    Chunks stay within ``BAND_CHUNK_BYTES``. Every evolved layout is first
    checked for Hermiticity: the slot holding (i, j) is compared with the
    slot holding (j, i). Entries outside the layout are zero on both sides,
    so this is max |X - X^dag| over the whole matrix, against
    max(1, max |X|). The states are the top trunc.dim block.
    """
    n = layout.values.shape[-1]
    i, j = np.broadcast_arrays(layout.i, layout.j)
    keys = (i * n + j).ravel()
    order = np.argsort(keys)
    mirror = order[np.searchsorted(keys[order], (j * n + i).ravel())]
    d = trunc.dim
    inside = _inside(layout, d)
    rows, cols = i[inside], j[inside]
    chunk = max(1, BAND_CHUNK_BYTES // layout.values.nbytes)
    for start in range(0, weights[0].size, chunk):
        part = slice(start, start + chunk)
        evolved = _series(layout, *(w[part] for w in weights))
        flat = evolved.reshape(len(evolved), -1)
        herm_dev = np.abs(flat - flat[:, mirror].conj()).max(axis=1)
        scale = np.maximum(1.0, np.abs(flat).max(axis=1))
        for dev, sc in zip(herm_dev, scale):
            if dev > _HERMITICITY_GUARD * sc:
                raise ArithmeticError(
                    f"propagator output lost Hermiticity: deviation {dev:.3e} at scale {sc:.3e}"
                )
        states = []
        for values in evolved[:, inside]:
            mat = np.zeros((d, d), dtype=complex)
            mat[rows, cols] = values
            states.append(DensityMatrix(mat=mat, trunc=trunc))
        yield evolved, states


def _series(layout: _Layout, lower_weight, left_exp, raise_weight, scale):
    """Per time s: scale_s * sum_n R_s^n/n! (a^dag)^n [e^{l_s N} X_s e^{l_s^* N}] a^n.

    X_s = sum_m L_s^m/m! a^m rho (a^dag)^m, with rho given as its
    ``layout`` and every weight an array over times. Returns the evolved
    values, shape (times,) + layout.values.shape. A time's series stops
    adding terms once its own term vanishes, as a one-time run would, so
    every time gets the same arithmetic whatever else shares its batch.
    Raises ValueError when a number exponent l_s (n - 1) overflows double
    precision.

    Each term is held only on its box of slots, rows [r0, r1) x positions
    [p0, p1), outside which it is zero: a lowering step moves the box one
    position and ``row_step`` rows down (clipped at 0), a raising step as
    far up (clipped at the edge).
    """
    values, i, j, row_step = layout
    n = values.shape[-1]
    levels = np.arange(n)
    shape = (len(scale),) + values.shape
    # Weights by the slot the shift writes. a X a^dag reads entry
    # (i+1, j+1), which is outside the space where i or j = n-1 (and in the
    # band would wrap onto another diagonal); a^dag X a reads (i-1, j-1),
    # whose weight sqrt(i j) already vanishes where i or j = 0.
    lower_w = np.sqrt((i + 1.0) * (j + 1.0))
    lower_w[(i == n - 1) | (j == n - 1)] = 0.0
    raise_w = np.sqrt(i * j.astype(float))

    def series(z, weight, shift_w, step):
        total = np.broadcast_to(z, shape).copy()
        occupied = z.reshape((-1,) + values.shape).any(axis=0)
        rows, positions = np.flatnonzero(occupied.any(axis=1)), np.flatnonzero(occupied.any(axis=0))
        if not rows.size:
            return total
        r0, r1 = int(rows[0]), int(rows[-1]) + 1
        p0, p1 = int(positions[0]), int(positions[-1]) + 1
        term = np.broadcast_to(z, shape)[..., r0:r1, p0:p1]
        n_rows, rs = values.shape[0], row_step * step
        weight = weight[:, None, None]
        live = np.ones(shape[0], dtype=bool)
        for m in range(1, n):
            new_r0, new_r1 = max(r0 + rs, 0), min(r1 + rs, n_rows)
            new_p0, new_p1 = max(p0 + step, 0), min(p1 + step, n)
            if new_r0 >= new_r1 or new_p0 >= new_p1:
                break
            # Slot (r, p) of the new term is shift_w[r, p] times slot
            # (r - rs, p - step) of the old one.
            term = shift_w[new_r0:new_r1, new_p0:new_p1] * term[
                ..., new_r0 - rs - r0 : new_r1 - rs - r0, new_p0 - step - p0 : new_p1 - step - p0
            ]
            np.multiply(weight / m, term, out=term)
            live &= term.view(float).any(axis=(1, 2))
            alive = np.count_nonzero(live)
            if not alive:
                break
            r0, r1, p0, p1 = new_r0, new_r1, new_p0, new_p1
            window = total[..., r0:r1, p0:p1]
            if alive == live.size:
                window += term
            else:
                np.add(window, term, out=window, where=live[:, None, None])
        return total

    out = series(values, lower_weight, lower_w, -1)
    # The number exponentials reach l_s (n - 1); refuse one that overflows.
    reach = max(np.abs(left_exp.real).max(), np.abs(left_exp.imag).max())
    if not math.isfinite(float(reach) * (n - 1)):
        raise ValueError(f"number exponent at D = {n} overflows double precision")
    left = np.exp(left_exp[:, None] * levels)[:, i]
    out = left * out * np.exp(left_exp.conj()[:, None] * levels)[:, j]
    if raise_weight.any():
        out = series(out, raise_weight, raise_w, 1)
    return scale[:, None, None] * out
