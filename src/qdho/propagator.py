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
raising) and scaled entrywise. The series runs on one of two layouts
(:func:`_layout`): a diagonal state on its diagonal alone, one row of D
entries along which a shift moves; any other state on the D x D matrix
itself, where a shift moves rows and columns alike.

A term is held only on the box of slots it can occupy. If the input of a
series occupies levels [lo, hi) (diagonal positions, or matrix rows and
columns apiece), lowering term m lives on [max(lo - m, 0), hi - m) and
raising term n on [lo + n, min(hi + n, D)). The lowering series ends once
its box is empty, the raising one once its box has left the space. Term m
costs O(w_m) work on the diagonal and O(w_m^2) on the matrix, w_m <= D
being the width of its window.

Time enters only through E, G, ln F, the phase omega t and the prefactor,
so :func:`evolve_analytic_grid` runs a whole time grid at once: it checks
rho(0) and the times once, computes those scalars per time, and runs the
series on a (times x rows x D) array, the layout shared by every time.
Times go through in chunks whose array stays within ``BAND_CHUNK_BYTES``:
a (times x 1 x D) diagonal stack, or for any other state a (times x D x D)
matrix stack. Each element sees the same operations in the same order as
in a one-time run, so a grid equals the per-time loop bit for bit.
:func:`evolve_nu_zero_grid` runs the pure-loss series over a grid the
same way.

The truncation certificate uses block stability: the dim-D result equals,
entry for entry, the top D x D block of the run on the state zero-padded to 2D
(the series never feeds population back down across the cutoff). A
certified grid therefore evolves once, at 2D, takes the dim-D state as
that block and the escape distance as the norm of everything outside it,
or the trace the 2D run lost where that is larger than the certificate's
tolerance (a pump can carry the state past 2D as well).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import su11
from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .fock import DensityMatrix, ModelParams, _check_finite, _is_diagonal, check_evolution_args

#: Doubling-D truncation certificates must come in below this (Frobenius
#: weight the dim-D run loses above its cutoff, measured against a 2D run).
TRUNCATION_DOUBLING_TOL = 1e-9

#: Bytes of one (times x rows x D) series array (diagonal or matrix) per
#: chunk of grid times. The series holds a few such arrays at once; a larger
#: budget batches more times but raised the peak RSS of a 101-point D = 24
#: run by 13% at 1 MB.
BAND_CHUNK_BYTES = 256 * 1024

_HERMITICITY_GUARD = 1e-12


def evolve_analytic(
    rho0: DensityMatrix,
    params: ModelParams,
    t: float,
    *,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
) -> DensityMatrix:
    """Evolve rho0 to time t under loss mu, pump nu and rotation omega."""
    states, _ = evolve_analytic_grid(rho0, params, [t], tolerances=tolerances)
    return DensityMatrix(mat=states[0])


def evolve_analytic_grid(
    rho0: DensityMatrix,
    params: ModelParams,
    times,
    *,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
    certify: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Evolve rho0 to every time in ``times``: ((times, D, D) states, escape distances).

    rho0 and the times are checked once for the whole grid, and the layout
    of the series (module docstring) is chosen on rho0 itself: its diagonal
    for a diagonal state, the matrix for any other. Without
    ``certify`` the series runs at D and the escape distances are None.
    With it, the series runs once per time on rho0 zero-padded to 2D, in
    the same layout; each state is the top D x D block of that run (equal
    to the dim-D result; only zeros outside a term's box may differ in
    sign) and its escape distance, the quantity of
    :func:`doubled_truncation_distance`, is the Frobenius norm of the
    entries outside the block. Weight the 2D run pushes past its own top
    level is outside both; so a 2D run that has lost more than
    ``TRUNCATION_DOUBLING_TOL`` of rho0's trace reports at least that loss.
    """
    times = np.asarray(times, dtype=float)
    check_evolution_args(rho0, params, times, tolerances)
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
    diagonal = np.broadcast_to(layout.i == layout.j, layout.values.shape)
    trace0 = float(np.trace(rho0.mat).real)
    states, escapes = np.zeros((times.size, d, d), dtype=complex), []
    for evolved in _evolved_chunks(layout, states, lower, left, upper, prefactor):
        if certify:
            for values in evolved:
                escape = float(np.linalg.norm(values[outside]))
                # Weight that has left the doubled space as well is in
                # neither block; only the trace it took along shows it.
                lost = trace0 - float(values[diagonal].sum().real)
                escapes.append(max(escape, lost) if lost > TRUNCATION_DOUBLING_TOL else escape)
    return states, np.array(escapes) if certify else None


def evolve_nu_zero(
    rho0: DensityMatrix,
    params: ModelParams,
    t: float,
    *,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
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
    series. The arguments go through the check of every method,
    :func:`qdho.fock.check_evolution_args`; ``params.nu`` must be 0 and
    ``params.theta`` cancels.
    """
    states = evolve_nu_zero_grid(rho0, params, [t], tolerances=tolerances)
    return DensityMatrix(mat=states[0])


def evolve_nu_zero_grid(
    rho0: DensityMatrix,
    params: ModelParams,
    times,
    *,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
) -> np.ndarray:
    """:func:`evolve_nu_zero` at every time in ``times``, as one (times, D, D) array."""
    if params.nu != 0.0:
        raise ValueError(f"the pure-loss series requires nu = 0, got nu = {params.nu}")
    times = np.asarray(times, dtype=float)
    check_evolution_args(rho0, params, times, tolerances)
    mu, omega = params.mu, params.omega
    ts = times.tolist()
    weight = np.array([-math.expm1(-mu * t) for t in ts])  # 1 - e^{-mu t}
    exponent = np.array([-(0.5 * mu + 1j * omega) * t for t in ts], dtype=complex)
    states = np.zeros((times.size, rho0.dim, rho0.dim), dtype=complex)
    for _ in _evolved_chunks(
        _layout(rho0.mat), states, weight, exponent, np.zeros(times.size), np.ones(times.size)
    ):
        pass
    return states


def doubled_truncation_distance(
    rho0: DensityMatrix,
    params: ModelParams,
    t: float,
    *,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
) -> float:
    """Truncation-convergence certificate: weight escaping above the cutoff.

    The run is repeated with the state embedded in a doubled space and the
    dim-D result (zero-padded) is compared against the dim-2D result in
    Frobenius norm. A small value certifies the retained dimension holds the
    evolution; the CLI --check-truncation flag gates runs on it at 1e-9.
    The shared block agrees identically, so this is exactly the weight the
    dim-D run loses above its top level, unless the weight has left the 2D
    space too: then the trace the 2D run lost is reported instead (see
    :func:`evolve_analytic_grid`).
    """
    _, escapes = evolve_analytic_grid(rho0, params, [t], tolerances=tolerances, certify=True)
    return float(escapes[0])


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

    A diagonal rho runs on its diagonal alone, one row of n entries (i, i)
    whose shifts keep the row (row step 0). Any other rho runs on the
    n x n matrix itself, whose shifts move rows and columns alike (row
    step 1). Zero-padding keeps a state diagonal or not, so a certified run
    gets the layout of its dim-D run; the series conserves k = j - i, so a
    diagonal state stays diagonal.
    """
    d = rho.shape[0]
    n = d if n is None else n
    mat = rho
    if n > d:
        mat = np.zeros((n, n), dtype=complex)
        mat[:d, :d] = rho
    levels = np.arange(n)
    if _is_diagonal(rho):
        return _Layout(mat.diagonal()[None, :], levels[None, :], levels[None, :], 0)
    return _Layout(mat, levels[:, None], levels[None, :], 1)


def _inside(layout: _Layout, d: int) -> np.ndarray:
    """Mask of the slots that hold an entry of the top d x d block."""
    return (layout.i < d) & (layout.j < d)


def _evolved_chunks(layout: _Layout, out: np.ndarray, *weights):
    """:func:`_series` over chunks of times into the zeroed (times, d, d) ``out``; yields each.

    Chunks stay within ``BAND_CHUNK_BYTES``. Every evolved layout is first
    checked for Hermiticity: the slot holding (i, j) is compared with the
    slot holding (j, i). Entries outside the layout are zero on both sides,
    so this is max |X - X^dag| over the whole matrix, against
    max(1, max |X|) times ``_HERMITICITY_GUARD``, plus what the input's own
    anti-Hermitian part Y = rho0 - rho0^dag can carry through: the series
    is completely positive and trace-non-increasing, so each entry of the
    evolved Y is at most ||Y||_1 <= sqrt(D) ||Y||_F. That term is 0.0 for
    an exactly Hermitian rho0. The states, the top d x d block, raise
    ValueError on a NaN, which passes that check (it compares False).
    """
    n = layout.values.shape[-1]
    i, j = np.broadcast_arrays(layout.i, layout.j)
    # The slot holding (j, i): row j, position i of the matrix; position j
    # of the one row of the diagonal, where i = j.
    mirror = (layout.row_step * j * n + i).ravel()
    d = out.shape[-1]
    flat0 = layout.values.ravel()
    carried = math.sqrt(d) * float(np.linalg.norm(flat0 - flat0[mirror].conj()))
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
            if dev > _HERMITICITY_GUARD * sc + carried:
                raise ArithmeticError(
                    f"propagator output lost Hermiticity: deviation {dev:.3e} at scale {sc:.3e}"
                )
        out[part][:, rows, cols] = evolved[:, inside]
        _check_finite(out[part])
        yield evolved


def _series(layout: _Layout, lower_weight, left_exp, raise_weight, scale):
    """Per time s: scale_s * sum_n R_s^n/n! (a^dag)^n [e^{l_s N} X_s e^{l_s^* N}] a^n.

    X_s = sum_m L_s^m/m! a^m rho (a^dag)^m, with rho given as its
    ``layout`` and every weight an array over times. Returns the evolved
    values, shape (times,) + layout.values.shape. A time's series stops
    adding terms once its own term vanishes, as a one-time run would, so
    every time gets the same arithmetic whatever else shares its batch.
    The number exponents l_s (n - 1) stay finite on every input
    :func:`qdho.fock.check_evolution_args` admits.

    Each term is held only on its box of slots, rows [r0, r1) x positions
    [p0, p1), outside which it is zero: a lowering step moves the box one
    position and ``row_step`` rows down (clipped at 0), a raising step as
    far up (clipped at the edge).
    """
    values, i, j, row_step = layout
    n = values.shape[-1]
    levels = np.arange(n)
    shape = (len(scale),) + values.shape
    # Weights by the slot the shift writes: a X a^dag reads entry
    # (i+1, j+1), a^dag X a reads (i-1, j-1). The clipped boxes never write
    # a slot whose read lies outside the space.
    lower_w = np.sqrt((i + 1.0) * (j + 1.0))
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
    left = np.exp(left_exp[:, None] * levels)[:, i]
    out = left * out * np.exp(left_exp.conj()[:, None] * levels)[:, j]
    out = series(out, raise_weight, raise_w, 1)
    return scale[:, None, None] * out
