"""Truncated Fock-space linear algebra: operators, states, validation.

The oscillator Hilbert space is cut to D levels |0>..|D-1>. On that space
the annihilation operator is the superdiagonal matrix with entries
e^{i theta} sqrt(j) and the canonical commutator [a, a^dag] = 1 holds
everywhere except the last diagonal entry, which picks up -(D-1) from the
truncation. Everything here is dense complex128 and immutable by
convention: functions return fresh arrays and never mutate arguments.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

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
    """Oscillator frequency omega, loss rate mu, pump rate nu, operator phase theta.

    All rates are in units of inverse time. mu = nu = 0 degenerates to purely
    unitary rotation, which is allowed.
    """

    omega: float = 0.0
    mu: float = 0.0
    nu: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        vals = (self.omega, self.mu, self.nu, self.theta)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError(f"model parameters must be finite, got {vals}")
        if self.omega < 0 or self.mu < 0 or self.nu < 0:
            raise ValueError("omega, mu, nu must be non-negative")


@dataclass(frozen=True)
class FockOperatorSet:
    """Dense D x D matrices a, a^dag, N and the identity."""

    a: np.ndarray
    a_dagger: np.ndarray
    n_op: np.ndarray
    identity: np.ndarray


@dataclass(frozen=True)
class DensityMatrix:
    """A D x D state matrix; D is the matrix's own size.

    Construction checks shape and finiteness only. The physical invariants
    (Hermiticity, unit trace, positivity) are certified by
    :func:`validate_density`, which the evolution entry points run on their
    initial state (:func:`check_evolution_args`) and the CLI runs on every
    state it writes out. A grid run is one (times, D, D) array instead.
    """

    mat: np.ndarray

    def __post_init__(self):
        m = np.array(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        _check_finite(m)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return len(self.mat)


@dataclass(frozen=True)
class ValidationReport:
    """Measured deviations of a candidate density matrix, with pass flags."""

    hermiticity_dev: float
    trace_dev: float
    min_eigenvalue: float
    hermitian_ok: bool
    trace_ok: bool
    positive_ok: bool

    @property
    def ok(self) -> bool:
        return self.hermitian_ok and self.trace_ok and self.positive_ok

    def describe(self) -> str:
        return (
            f"hermiticity_dev={self.hermiticity_dev:.3e} ({'ok' if self.hermitian_ok else 'FAIL'}), "
            f"trace_dev={self.trace_dev:.3e} ({'ok' if self.trace_ok else 'FAIL'}), "
            f"min_eigenvalue={self.min_eigenvalue:.3e} ({'ok' if self.positive_ok else 'FAIL'})"
        )


def build_operators(d: int, theta: float = 0.0) -> FockOperatorSet:
    """Construct a = e^{i theta} b, its adjoint, N = a^dag a and the identity on d levels.

    b carries sqrt(1), sqrt(2), ... on the superdiagonal; N is exactly
    diag(0, 1, ..., d-1) for every theta because the phase cancels.
    """
    b = np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1).astype(complex)
    a = np.exp(1j * theta) * b
    a_dagger = a.conj().T.copy()
    n_op = np.diag(np.arange(d, dtype=float)).astype(complex)
    return FockOperatorSet(a=a, a_dagger=a_dagger, n_op=n_op, identity=np.eye(d, dtype=complex))


def fock_state(n: int, trunc: TruncationConfig) -> DensityMatrix:
    """Projector |n><n| on the truncated space."""
    if n < 0:
        raise ValueError(f"Fock level must be non-negative, got {n}")
    if n >= trunc.dim:
        raise ValueError(f"Fock level {n} does not fit in {trunc.dim} retained levels")
    m = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    m[n, n] = 1.0
    return DensityMatrix(mat=m)


def coherent_state(alpha: complex, trunc: TruncationConfig) -> DensityMatrix:
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
    m = np.outer(amps, amps.conj())
    return DensityMatrix(mat=m)


def thermal_state(n_bar: float, trunc: TruncationConfig) -> DensityMatrix:
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
    return DensityMatrix(mat=np.diag(weights).astype(complex))


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


def mixture_state(terms: list[tuple[int, float]], trunc: TruncationConfig) -> DensityMatrix:
    """Statistical mixture sum_i w_i |n_i><n_i| of Fock projectors.

    The weights must pass :func:`check_mixture_weights`.
    """
    check_mixture_weights(terms)
    m = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    for n, w in terms:
        if n < 0 or n >= trunc.dim:
            raise ValueError(f"mixture level {n} does not fit in {trunc.dim} retained levels")
        m[n, n] += w
    return DensityMatrix(mat=m)


def validate_density(rho, tolerances) -> ValidationReport:
    """Measure Hermiticity, trace and positivity deviations of a candidate state.

    ``tolerances`` is a :class:`qdho.config.ToleranceConfig`. Hermiticity
    is judged against ``hermiticity_tol`` relative to the matrix scale, the
    trace deviation absolutely against ``trace_tol``, and positivity as
    smallest eigenvalue >= -``positivity_tol`` (LAPACK ``eigvalsh`` on the
    Hermitian part, which shares no code with the evolution paths). This is
    a reporting operation and never raises for a bad state.
    """
    m = np.asarray(getattr(rho, "mat", rho), dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max()))
    herm_dev = float(np.abs(m - m.conj().T).max())
    trace_dev = abs(complex(np.trace(m)) - 1.0)
    min_eig = _min_eigenvalue(0.5 * (m + m.conj().T))
    return ValidationReport(
        hermiticity_dev=herm_dev,
        trace_dev=trace_dev,
        min_eigenvalue=min_eig,
        hermitian_ok=herm_dev <= tolerances.hermiticity_tol * scale,
        trace_ok=trace_dev <= tolerances.trace_tol,
        positive_ok=min_eig >= -tolerances.positivity_tol,
    )


def _min_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian h.

    A diagonal h is its own spectrum, so the answer is its smallest
    diagonal entry; any other h goes to ``eigvalsh`` whole.
    """
    if _is_diagonal(h):
        return float(h.diagonal().real.min())
    return float(np.linalg.eigvalsh(h)[0])


def _is_diagonal(x: np.ndarray) -> bool:
    """Whether the square x has no nonzero entry off its diagonal."""
    return np.count_nonzero(x) == np.count_nonzero(x.diagonal())


def _check_finite(states: np.ndarray) -> None:
    """Refuse a state, or a stack of states, holding a NaN or an infinity."""
    if not np.isfinite(states).all():
        raise ValueError("density matrix contains NaN/Inf entries")


def check_evolution_args(rho0: DensityMatrix, params: ModelParams, t, tolerances) -> None:
    """The argument check of every quantum evolution: times, rates, rho0.

    ``t`` is one time or an array of grid times, all checked here, so a
    grid validates its initial state once. One rate bound serves every
    method: 8 (omega + mu + nu) D max(1, t) must be finite, with D =
    rho0.dim and t the largest time. The 8 is the expm oracle's: it scales
    t R_k, of max row sum at most 2 (mu + nu) D t, by 2^-s to norm 0.5, and
    2.0**s is finite while that row sum over 0.5 stays below 2^1023. The
    bound also keeps finite the phase omega (D-1) t, the series' number
    exponents ln F (n - 1) at n <= 2D, as |ln F| <= (mu + nu) t / 2, and,
    through max(1, t), the generator's entries at t < 1. A gain run
    (nu > mu) warns :class:`GainWarning`. ``tolerances`` is a
    :class:`qdho.config.ToleranceConfig`; its Hermiticity, trace and
    positivity tolerances gate :func:`validate_density`.
    """
    times = np.asarray(t, dtype=float)
    if not (times >= 0).all():  # NaN fails too
        raise ValueError(f"evolution time must be non-negative, got {times.min()}")
    t_max = float(times.max(initial=0.0))
    omega, mu, nu = float(params.omega), float(params.mu), float(params.nu)
    if not math.isfinite(8.0 * (omega + mu + nu) * rho0.dim * max(1.0, t_max)):
        raise ValueError(
            f"rate scale 8 (omega + mu + nu) D max(1, t) at omega = {omega:.6g}, "
            f"mu = {mu:.6g}, nu = {nu:.6g}, D = {rho0.dim}, t = {t_max:.6g} "
            f"overflows double precision"
        )
    if nu > mu:
        warnings.warn(
            f"pump nu={nu} exceeds loss mu={mu}: no steady state exists and "
            f"truncation error grows with t",
            GainWarning,
            stacklevel=3,
        )
    report = validate_density(rho0.mat, tolerances)
    if not report.ok:
        raise ValidationError(f"initial state is not a valid density matrix: {report.describe()}")
