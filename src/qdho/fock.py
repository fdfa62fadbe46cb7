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
from dataclasses import dataclass

import numpy as np


class ValidationError(ValueError):
    """A matrix offered as a density matrix failed its invariants."""

    def __init__(self, message: str, report: "ValidationReport | None" = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class TruncationConfig:
    """Fock-space cutoff: D = support_max + 1 + guard retained levels.

    ``support_max`` is the highest level the initial state populates
    (non-negligibly); ``guard`` adds headroom for population pushed upward
    during evolution. ``for_support`` applies the default guard policy
    guard = support_max + 4.
    """

    dim: int
    support_max: int
    guard: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"truncation dim must be >= 2, got {self.dim}")
        if self.support_max < 0 or self.guard < 0:
            raise ValueError("support_max and guard must be non-negative")
        if self.dim != self.support_max + 1 + self.guard:
            raise ValueError(
                f"dim={self.dim} != support_max + 1 + guard = "
                f"{self.support_max + 1 + self.guard}"
            )

    @classmethod
    def for_support(cls, support_max: int, guard: int | None = None) -> "TruncationConfig":
        if guard is None:
            guard = support_max + 4
        return cls(dim=support_max + 1 + guard, support_max=support_max, guard=guard)


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
    """A D x D state matrix together with its truncation metadata.

    Construction checks shape and finiteness only. The physical invariants
    (Hermiticity, unit trace, positivity) are certified by
    :func:`validate_density`, which the evolution entry points run on their
    initial state (:func:`check_evolution_args`) and the CLI runs on every
    state it writes out.
    """

    mat: np.ndarray
    trunc: TruncationConfig

    def __post_init__(self):
        m = np.array(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        if m.shape[0] != self.trunc.dim:
            raise ValueError(
                f"matrix dimension {m.shape[0]} does not match truncation dim {self.trunc.dim}"
            )
        if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
            raise ValueError("density matrix contains NaN/Inf entries")
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.trunc.dim


@dataclass(frozen=True)
class ValidationReport:
    """Measured deviations of a candidate density matrix, with pass flags."""

    hermiticity_dev: float
    trace_dev: float
    min_eigenvalue: float
    hermitian_ok: bool
    trace_ok: bool
    positive_ok: bool
    dim: int

    @property
    def ok(self) -> bool:
        return self.hermitian_ok and self.trace_ok and self.positive_ok

    def describe(self) -> str:
        return (
            f"hermiticity_dev={self.hermiticity_dev:.3e} ({'ok' if self.hermitian_ok else 'FAIL'}), "
            f"trace_dev={self.trace_dev:.3e} ({'ok' if self.trace_ok else 'FAIL'}), "
            f"min_eigenvalue={self.min_eigenvalue:.3e} ({'ok' if self.positive_ok else 'FAIL'})"
        )


def build_operators(trunc: TruncationConfig, theta: float = 0.0) -> FockOperatorSet:
    """Construct a = e^{i theta} b, its adjoint, N = a^dag a and the identity.

    b carries sqrt(1), sqrt(2), ... on the superdiagonal; N is exactly
    diag(0, 1, ..., D-1) for every theta because the phase cancels.
    """
    d = trunc.dim
    if d < 2:
        raise ValueError(f"need at least 2 Fock levels, got {d}")
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
    return DensityMatrix(mat=m, trunc=trunc)


def coherent_state(alpha: complex, trunc: TruncationConfig) -> DensityMatrix:
    """Projector onto the coherent state with amplitude alpha, renormalized.

    Amplitudes are c_n = e^{-|alpha|^2/2} alpha^n / sqrt(n!) for n < D.
    Rejected when |alpha|^2 exceeds support_max or is NaN, or when the
    truncated norm deficit 1 - sum |c_n|^2 exceeds 1e-8 before
    renormalization.
    """
    alpha = complex(alpha)
    d = trunc.dim
    if not abs(alpha) ** 2 <= trunc.support_max:  # NaN fails too
        raise ValueError(
            f"|alpha|^2 = {abs(alpha)**2:.3f} exceeds support_max = {trunc.support_max}"
        )
    amps = np.zeros(d, dtype=complex)
    amps[0] = np.exp(-0.5 * abs(alpha) ** 2)
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
    return DensityMatrix(mat=m, trunc=trunc)


def thermal_state(n_bar: float, trunc: TruncationConfig) -> DensityMatrix:
    """Diagonal Gibbs state with geometric weights (n_bar/(n_bar+1))^n.

    The geometric tail beyond level D-1 must be below 1e-8; the retained
    weights are renormalized to unit trace.
    """
    if n_bar < 0:
        raise ValueError(f"n_bar must be non-negative, got {n_bar}")
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
    return DensityMatrix(mat=np.diag(weights).astype(complex), trunc=trunc)


def mixture_state(terms: list[tuple[int, float]], trunc: TruncationConfig) -> DensityMatrix:
    """Statistical mixture sum_i w_i |n_i><n_i| of Fock projectors.

    Weights must be non-negative and sum to 1 within 1e-12.
    """
    if not terms:
        raise ValueError("mixture needs at least one (level, weight) term")
    total = 0.0
    m = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    for n, w in terms:
        if w < 0:
            raise ValueError(f"mixture weight for level {n} is negative: {w}")
        if n < 0 or n >= trunc.dim:
            raise ValueError(f"mixture level {n} does not fit in {trunc.dim} retained levels")
        m[n, n] += w
        total += w
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"mixture weights sum to {total!r}, expected 1 within 1e-12")
    return DensityMatrix(mat=m, trunc=trunc)


def validate_density(
    rho,
    tol: float = 1e-10,
    *,
    hermiticity_tol: float | None = None,
    trace_tol: float | None = None,
    positivity_tol: float | None = None,
) -> ValidationReport:
    """Measure Hermiticity, trace and positivity deviations of a candidate state.

    Hermiticity is judged relative to the matrix scale, the trace deviation
    absolutely, and positivity as smallest eigenvalue >= -tol (LAPACK
    ``eigvalsh`` on the Hermitian part, which shares no code with the
    evolution paths). Per-check tolerances default to ``tol``. This is a
    reporting operation and never raises for a bad state.
    """
    m = np.asarray(getattr(rho, "mat", rho), dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    h_tol = tol if hermiticity_tol is None else hermiticity_tol
    t_tol = tol if trace_tol is None else trace_tol
    p_tol = tol if positivity_tol is None else positivity_tol

    scale = max(1.0, float(np.abs(m).max()))
    herm_dev = float(np.abs(m - m.conj().T).max())
    trace_dev = abs(complex(np.trace(m)) - 1.0)
    min_eig = _min_eigenvalue(0.5 * (m + m.conj().T))
    return ValidationReport(
        hermiticity_dev=herm_dev,
        trace_dev=trace_dev,
        min_eigenvalue=min_eig,
        hermitian_ok=herm_dev <= h_tol * scale,
        trace_ok=trace_dev <= t_tol,
        positive_ok=min_eig >= -p_tol,
        dim=m.shape[0],
    )


def _min_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian h, one residue class of levels at a time.

    With g the gcd of the occupied off-diagonal offsets j - i of h (g = D
    when h is diagonal), no entry couples levels from different classes
    mod g: h is block diagonal over the classes {c, c + g, c + 2g, ...}.
    The blocks of each size go to ``eigvalsh`` as one stack; at g = 1 the
    one block is h itself.
    """
    d = h.shape[0]
    rows, cols = np.nonzero(h)
    g = int(np.gcd.reduce(np.abs(cols - rows))) if rows.size else 0
    if g == 1:
        return float(np.linalg.eigvalsh(h)[0])
    g = g or d
    # The first d mod g classes hold one level more than the others.
    size, longer = divmod(d, g)
    lowest = np.inf
    for starts, count in ((np.arange(longer), size + 1), (np.arange(longer, g), size)):
        if starts.size:
            idx = starts[:, None] + g * np.arange(count)
            blocks = h[idx[:, :, None], idx[:, None, :]]
            lowest = min(lowest, float(np.linalg.eigvalsh(blocks)[:, 0].min()))
    return lowest


def check_evolution_args(rho0: DensityMatrix, t, tolerances=None, *, omega: float = 0.0):
    """Reject a negative evolution time, an overflowing phase or an invalid state.

    ``t`` is one time or an array of grid times, all checked here, so a
    grid validates its initial state once. The largest rotation phase of
    the run, omega (D-1) max(t), must be finite. ``tolerances`` is a
    :class:`qdho.config.ToleranceConfig` (the defaults when None); its
    Hermiticity, trace and positivity tolerances gate
    :func:`validate_density`. Returns the tolerance bundle in force.
    """
    from .config import DEFAULT_TOLERANCES  # config imports this module

    times = np.asarray(t, dtype=float)
    if (times < 0).any():
        raise ValueError(f"evolution time must be non-negative, got {times.min()}")
    t_max = float(times.max(initial=0.0))
    if not math.isfinite(float(omega) * t_max * (rho0.dim - 1)):
        raise ValueError(
            f"rotation phase omega (D-1) t at omega = {omega:.6g}, D = {rho0.dim}, "
            f"t = {t_max:.6g} overflows double precision"
        )
    tols = DEFAULT_TOLERANCES if tolerances is None else tolerances
    report = validate_density(
        rho0.mat,
        hermiticity_tol=tols.hermiticity_tol,
        trace_tol=tols.trace_tol,
        positivity_tol=tols.positivity_tol,
    )
    if not report.ok:
        raise ValidationError(
            f"initial state is not a valid density matrix: {report.describe()}", report
        )
    return tols
