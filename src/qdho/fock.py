"""Truncated Fock space: model parameters, states, validation.

The oscillator Hilbert space is cut to D levels |0>..|D-1>. No operator
matrix is built here: the closed form applies a and a^dag as index
shifts, and the oracles of :mod:`qdho.liouville` build the K
superoperators from the shift matrix themselves. Every state is a dense
complex128 D x D array, immutable by convention: functions return fresh
arrays and never mutate arguments.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np


class GainWarning(UserWarning):
    """Pump exceeds loss (nu > mu): no steady state, truncation error grows with t."""


class ValidationError(ValueError):
    """A matrix offered as a density matrix failed its invariants."""


@dataclass(frozen=True)
class TruncationConfig:
    """Fock-space cutoff: D = support_max + 1 + guard retained levels.

    ``support_max`` is the highest level the initial state populates
    (non-negligibly); ``guard`` adds headroom for population pushed upward
    during evolution. ``dim`` is derived from the two, never stored.
    ``for_support`` applies the default guard policy guard = support_max + 4.
    """

    support_max: int
    guard: int

    def __post_init__(self):
        if self.support_max < 0 or self.guard < 0:
            raise ValueError("support_max and guard must be non-negative")
        if self.dim < 2:
            raise ValueError(f"truncation dim must be >= 2, got {self.dim}")

    @property
    def dim(self) -> int:
        return self.support_max + 1 + self.guard

    @classmethod
    def for_support(cls, support_max: int, guard: int | None = None) -> "TruncationConfig":
        if guard is None:
            guard = support_max + 4
        return cls(support_max=support_max, guard=guard)


@dataclass(frozen=True)
class ModelParams:
    """Oscillator frequency omega, loss rate mu, pump rate nu.

    All rates are in units of inverse time. mu = nu = 0 degenerates to purely
    unitary rotation, which is allowed. The phase of the operator a is not a
    parameter: it cancels from a rho a^dag and a^dag rho a, so every result
    depends on omega, mu, nu and t alone.
    """

    omega: float = 0.0
    mu: float = 0.0
    nu: float = 0.0

    def __post_init__(self):
        vals = (self.omega, self.mu, self.nu)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError(f"model parameters must be finite, got {vals}")
        if self.omega < 0 or self.mu < 0 or self.nu < 0:
            raise ValueError("omega, mu, nu must be non-negative")


@dataclass(frozen=True)
class ValidationReport:
    """Measured deviations of a candidate density matrix, with pass flags.

    The report of a stack of matrices holds an array over the stack in
    each field, ``ok`` included.
    """

    hermiticity_dev: float
    trace_dev: float
    min_eigenvalue: float
    hermitian_ok: bool
    trace_ok: bool
    positive_ok: bool

    @property
    def ok(self) -> bool:
        return self.hermitian_ok & self.trace_ok & self.positive_ok

    def row(self, k: int) -> "ValidationReport":
        """The report of state k, from the report of a stack."""
        return ValidationReport(*(getattr(self, f.name)[k].item() for f in fields(self)))

    def describe(self) -> str:
        return (
            f"hermiticity_dev={self.hermiticity_dev:.3e} ({'ok' if self.hermitian_ok else 'FAIL'}), "
            f"trace_dev={self.trace_dev:.3e} ({'ok' if self.trace_ok else 'FAIL'}), "
            f"min_eigenvalue={self.min_eigenvalue:.3e} ({'ok' if self.positive_ok else 'FAIL'})"
        )


def fock_state(n: int, trunc: TruncationConfig) -> np.ndarray:
    """Projector |n><n| on the truncated space."""
    if n < 0:
        raise ValueError(f"Fock level must be non-negative, got {n}")
    if n >= trunc.dim:
        raise ValueError(f"Fock level {n} does not fit in {trunc.dim} retained levels")
    m = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    m[n, n] = 1.0
    return m


def coherent_state(alpha: complex, trunc: TruncationConfig) -> np.ndarray:
    """Projector onto the coherent state with amplitude alpha, renormalized.

    Amplitudes are c_n = e^{-|alpha|^2/2} alpha^n / sqrt(n!) for n < D.
    Rejected when |alpha|^2 exceeds support_max or is NaN, or when the
    truncated norm deficit 1 - sum |c_n|^2 exceeds 1e-8 before
    renormalization.
    """
    alpha = complex(alpha)
    d = trunc.dim
    try:
        mean_n = abs(alpha) ** 2
    except OverflowError:  # |alpha| past ~1.34e154
        mean_n = math.inf
    if not mean_n <= trunc.support_max:  # NaN fails too
        raise ValueError(f"|alpha|^2 = {mean_n:.3f} exceeds support_max = {trunc.support_max}")
    amps = np.zeros(d, dtype=complex)
    amps[0] = np.exp(-0.5 * mean_n)
    for n in range(1, d):
        amps[n] = amps[n - 1] * alpha / np.sqrt(n)
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    deficit = 1.0 - norm_sq
    if deficit > 1e-8:
        raise ValidationError(
            f"coherent state with alpha={alpha} loses {deficit:.3e} of its norm "
            f"in {d} levels (tolerance 1e-8); increase the truncation"
        )
    amps /= np.sqrt(norm_sq)
    return np.outer(amps, amps.conj())


def thermal_state(n_bar: float, trunc: TruncationConfig) -> np.ndarray:
    """Diagonal Gibbs state with geometric weights (n_bar/(n_bar+1))^n.

    n_bar must be finite and non-negative, and the geometric tail beyond
    level D-1 below 1e-8; the retained weights are renormalized to unit
    trace.
    """
    if n_bar < 0:
        raise ValueError(f"n_bar must be non-negative, got {n_bar}")
    if not math.isfinite(n_bar):  # q = n_bar/(n_bar + 1) would be NaN
        raise ValueError(f"n_bar must be finite, got {n_bar}")
    d = trunc.dim
    q = n_bar / (n_bar + 1.0)
    tail = q**d
    if tail > 1e-8:
        raise ValidationError(
            f"thermal state with n_bar={n_bar} leaves tail {tail:.3e} beyond "
            f"{d} levels (tolerance 1e-8); increase the truncation"
        )
    weights = q ** np.arange(d, dtype=float)
    weights /= weights.sum()
    return np.diag(weights).astype(complex)


def check_mixture_weights(terms) -> None:
    """Refuse mixture weights that are NaN, negative or do not sum to 1 within 1e-12.

    A NaN weight is refused by name: it would pass both ``w < 0`` and the
    sum test, since every comparison with NaN is False.
    """
    if not terms:
        raise ValueError("mixture needs at least one (level, weight) term")
    total = 0.0
    for n, w in terms:
        if math.isnan(w):
            raise ValueError(f"mixture weight for level {n} is NaN")
        if w < 0:
            raise ValueError(f"mixture weight for level {n} is negative: {w}")
        total += w
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"mixture weights sum to {total!r}, expected 1 within 1e-12")


def mixture_state(terms: list[tuple[int, float]], trunc: TruncationConfig) -> np.ndarray:
    """Statistical mixture sum_i w_i |n_i><n_i| of Fock projectors.

    The weights must pass :func:`check_mixture_weights`.
    """
    check_mixture_weights(terms)
    m = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    for n, w in terms:
        if n < 0 or n >= trunc.dim:
            raise ValueError(f"mixture level {n} does not fit in {trunc.dim} retained levels")
        m[n, n] += w
    return m


def validate_density(rho, tolerances, *, diagonal: bool | None = None) -> ValidationReport:
    """Measure Hermiticity, trace and positivity deviations of a candidate state, or of a stack.

    ``rho`` is one D x D matrix, or a (T, D, D) stack of them, whose report
    holds an array over the stack in each field (:meth:`ValidationReport.row`
    gives one state's report). ``tolerances`` is a
    :class:`qdho.config.ToleranceConfig`. Hermiticity is judged against
    ``hermiticity_tol`` relative to the matrix scale, the trace deviation
    absolutely against ``trace_tol``, and positivity as smallest eigenvalue
    >= -``positivity_tol`` (LAPACK ``eigvalsh`` on the Hermitian part,
    which shares no code with the evolution paths). A stack with no
    nonzero entry off its diagonals (``diagonal``; None tests it) is
    measured on its diagonals alone: the zeros off them change no maximum,
    and a diagonal matrix is its own spectrum, so the numbers are those of
    the whole matrices. This is a reporting operation and never raises for
    a bad state.
    """
    m = np.asarray(rho, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    stack = m if m.ndim == 3 else m[None]
    if diagonal is None:
        diagonal = _is_diagonal(stack)
    if diagonal:
        x = np.diagonal(stack, 0, 1, 2)
        adjoint, axes = x.conj(), 1
    else:
        x = stack
        adjoint, axes = x.conj().swapaxes(1, 2), (1, 2)
    scale = np.maximum(1.0, np.abs(x).max(axis=axes))
    herm_dev = np.abs(x - adjoint).max(axis=axes)
    trace_dev = np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0)
    hermitian = 0.5 * (x + adjoint)
    min_eig = hermitian.real.min(axis=1) if diagonal else np.linalg.eigvalsh(hermitian)[:, 0]
    report = ValidationReport(
        hermiticity_dev=herm_dev,
        trace_dev=trace_dev,
        min_eigenvalue=min_eig,
        hermitian_ok=herm_dev <= tolerances.hermiticity_tol * scale,
        trace_ok=trace_dev <= tolerances.trace_tol,
        positive_ok=min_eig >= -tolerances.positivity_tol,
    )
    return report if m.ndim == 3 else report.row(0)


def _is_diagonal(x: np.ndarray) -> bool:
    """Whether the square x, or every matrix of the stack x, has no nonzero entry off its diagonal.

    In the row-major order of an n x n matrix the entries off the diagonal
    are the n - 1 runs of n between its n diagonal entries.
    """
    n = x.shape[-1]
    lead = x.shape[:-2]
    runs = x.reshape(lead + (n * n,))[..., 1:].reshape(lead + (n - 1, n + 1))
    return not runs[..., :n].any()


def _check_finite(states: np.ndarray) -> None:
    """Refuse a state, or a stack of states, holding a NaN or an infinity."""
    if not np.isfinite(states).all():
        raise ValueError("density matrix contains NaN/Inf entries")


def check_evolution_args(rho0, params: ModelParams, t, tolerances) -> np.ndarray:
    """The argument check of every quantum evolution: rho0, times, rates.

    Returns rho0 as the complex D x D array every method evolves. A rho0
    that is not a square matrix, or holds a NaN or an infinity, is refused
    first. ``t`` is one time or an array of grid times, all checked here,
    so a grid validates its initial state once. One rate bound serves every
    method: 8 (omega + mu + nu) D max(1, t) must be finite, with t the
    largest time. The 8 is the expm oracle's: it scales
    t R_k, of max row sum at most 2 (mu + nu) D t, by 2^-s to norm 0.5, and
    2.0**s is finite while that row sum over 0.5 stays below 2^1023. The
    bound also keeps finite the phase omega (D-1) t, the series' number
    exponents ln F (n - 1) at n <= 2D, as |ln F| <= (mu + nu) t / 2, and,
    through max(1, t), the generator's entries at t < 1. A gain run
    (nu > mu) warns :class:`GainWarning`. ``tolerances`` is a
    :class:`qdho.config.ToleranceConfig`; its Hermiticity, trace and
    positivity tolerances gate :func:`validate_density`.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.ndim != 2 or rho0.shape[0] != rho0.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho0.shape}")
    _check_finite(rho0)
    d = len(rho0)
    times = np.asarray(t, dtype=float)
    if not (times >= 0).all():  # NaN fails too
        raise ValueError(f"evolution time must be non-negative, got {times.min()}")
    t_max = float(times.max(initial=0.0))
    omega, mu, nu = float(params.omega), float(params.mu), float(params.nu)
    if not math.isfinite(8.0 * (omega + mu + nu) * d * max(1.0, t_max)):
        raise ValueError(
            f"rate scale 8 (omega + mu + nu) D max(1, t) at omega = {omega:.6g}, "
            f"mu = {mu:.6g}, nu = {nu:.6g}, D = {d}, t = {t_max:.6g} "
            f"overflows double precision"
        )
    if nu > mu:
        warnings.warn(
            f"pump nu={nu} exceeds loss mu={mu}: no steady state exists and "
            f"truncation error grows with t",
            GainWarning,
            stacklevel=3,
        )
    report = validate_density(rho0, tolerances)
    if not report.ok:
        raise ValidationError(f"initial state is not a valid density matrix: {report.describe()}")
    return rho0
