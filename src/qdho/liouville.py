"""Brute-force verification path through vectorized superoperators.

A D x D matrix X is flattened row-major into a length-D^2 vector, under
which X -> AXB becomes multiplication by kron(A, B^T). The master equation
then reads d rho_vec/dt = L rho_vec with the dense D^2 x D^2 Liouvillian

    L = -i omega K0 + nu K+ + mu K- - (mu+nu) K3 + (mu-nu)/2

built from K+ = kron(b^dag, b^dag), K- = kron(b, b),
K3 = (kron(N,1) + kron(1,N) + 1)/2 and K0 = kron(N,1) - kron(1,N).
Evolution by exp(tL) (scaling-and-squaring Taylor) and by fixed-step RK4 on
the unvectorized matrix equation provide two independent oracles for the
closed-form propagator.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .config import ToleranceConfig
from .fock import (
    DensityMatrix,
    ModelParams,
    TruncationConfig,
    build_operators,
    check_evolution_args,
)

#: Taylor scaling threshold for the matrix exponential (max-row-sum norm).
_EXPM_SCALE_LIMIT = 0.5
_EXPM_MAX_TERMS = 100
#: RK4 stability heuristic: step * (omega + mu + nu) * dim must not exceed this.
RK4_STABILITY_LIMIT = 0.1
#: Step budget of one RK4 call. Tier-1 needs at most ~1.1e4 steps; a call
#: asking for more than this fails at once instead of running for hours.
RK4_MAX_STEPS = 10_000_000
#: Size budget of the dense oracle. Each D^2 x D^2 superoperator takes
#: 16 D^4 bytes (268 MB at D = 64, 1.36 GB at D = 96) and building the
#: Liouvillian holds five of them; a larger D fails before allocating.
DENSE_MAX_DIM = 64


def vectorize(x: np.ndarray) -> np.ndarray:
    """Stack the rows of a square matrix into one column vector."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"vectorize expects a square matrix, got shape {x.shape}")
    return x.reshape(-1).copy()


def devectorize(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vectorize` for a dim x dim matrix."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.size != dim * dim:
        raise ValueError(f"expected a vector of length {dim * dim}, got shape {v.shape}")
    return v.reshape(dim, dim).copy()


def sandwich_check(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    """Residual of the identity vec(A X B) = kron(A, B^T) vec(X).

    Returns the max-norm difference of the two sides; it is below 1e-12 for
    any conformable inputs of moderate scale, and exists so the flattening
    convention stays pinned by a first-class test.
    """
    a = np.asarray(a, dtype=complex)
    x = np.asarray(x, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if not (a.shape == x.shape == b.shape) or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(
            f"expected three square matrices of equal dimension, got {a.shape}, {x.shape}, {b.shape}"
        )
    direct = vectorize(a @ x @ b)
    via_kron = np.kron(a, b.T) @ vectorize(x)
    return float(np.abs(direct - via_kron).max())


def k_superoperators(
    trunc: TruncationConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(K0, K+, K-, K3) as dense D^2 x D^2 matrices, from phase-free operators.

    Raises ValueError, before allocating anything, when D exceeds
    ``DENSE_MAX_DIM``.
    """
    if trunc.dim > DENSE_MAX_DIM:
        gigabytes = 5 * 16 * trunc.dim**4 / 1e9
        raise ValueError(
            f"the dense oracle at D = {trunc.dim} would hold {gigabytes:.1f} GB of "
            f"superoperators; its budget is D <= {DENSE_MAX_DIM}"
        )
    ops = build_operators(trunc, theta=0.0)
    b = ops.a
    bd = ops.a_dagger
    n = ops.n_op
    eye = ops.identity
    k0 = np.kron(n, eye) - np.kron(eye, n)
    k_plus = np.kron(bd, bd)
    k_minus = np.kron(b, b)
    k3 = 0.5 * (np.kron(n, eye) + np.kron(eye, n) + np.kron(eye, eye))
    return k0, k_plus, k_minus, k3


def build_liouvillian(params: ModelParams, trunc: TruncationConfig) -> np.ndarray:
    """Generator of the vectorized master equation.

    The phase theta cancels from every term, so the result is
    theta-independent. Note the K3 term absorbs the commutator rewriting
    a a^dag = N + 1, which on the truncated space differs from the literal
    product b b^dag by D |D-1><D-1|; trace conservation therefore holds
    exactly only on states with no population at the edge level.
    """
    k0, k_plus, k_minus, k3 = k_superoperators(trunc)
    d2 = trunc.dim**2
    return (
        -1j * params.omega * k0
        + params.nu * k_plus
        + params.mu * k_minus
        - (params.mu + params.nu) * k3
        + 0.5 * (params.mu - params.nu) * np.eye(d2, dtype=complex)
    )


def expm(m: np.ndarray, tol: float = 1e-16) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a truncated Taylor series.

    The input is scaled by 2^-s until its max-row-sum norm is at most 0.5,
    the series is summed until the next term falls below ``tol`` relative to
    the running result, and the outcome is squared s times. Relative accuracy
    is roughly tol times the conditioning of the exponential.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expm expects a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("expm input contains NaN/Inf entries")
    norm = float(np.abs(m).sum(axis=1).max()) if m.size else 0.0
    squarings = 0
    if norm > _EXPM_SCALE_LIMIT:
        squarings = int(math.ceil(math.log2(norm / _EXPM_SCALE_LIMIT)))
    scaled = m / (2.0**squarings)
    eye = np.eye(m.shape[0], dtype=complex)
    total = eye.copy()
    term = eye
    for k in range(1, _EXPM_MAX_TERMS + 1):
        term = (term @ scaled) / k
        total += term
        term_norm = float(np.abs(term).sum(axis=1).max())
        total_norm = float(np.abs(total).sum(axis=1).max())
        if term_norm <= tol * total_norm:
            break
    else:
        raise ArithmeticError("matrix exponential Taylor series failed to converge")
    for _ in range(squarings):
        total = total @ total
    return total


@lru_cache(maxsize=4)
def _cached_propagator(params: ModelParams, trunc: TruncationConfig, t: float) -> np.ndarray:
    # Cached exp(t L); treat as read-only. The cache keeps repeated
    # evolutions of different states at one parameter point cheap.
    return expm(t * build_liouvillian(params, trunc))


def evolve_numeric_expm(
    rho0: DensityMatrix,
    params: ModelParams,
    t: float,
    *,
    tolerances: ToleranceConfig | None = None,
) -> DensityMatrix:
    """Evolve by literally applying exp(tL) to the vectorized state."""
    check_evolution_args(rho0, t, tolerances)
    propagator = _cached_propagator(params, rho0.trunc, float(t))
    evolved = devectorize(propagator @ vectorize(rho0.mat), rho0.dim)
    return DensityMatrix(mat=evolved, trunc=rho0.trunc)


def stability_steps(params: ModelParams, dim: int, t: float) -> int:
    """Smallest RK4 step count satisfying the stability heuristic."""
    rate = (params.omega + params.mu + params.nu) * dim
    if t <= 0 or rate == 0:
        return 1
    return max(1, int(math.ceil(t * rate / RK4_STABILITY_LIMIT)))


def evolve_numeric_rk4(
    rho0: DensityMatrix,
    params: ModelParams,
    t: float,
    steps: int,
    *,
    tolerances: ToleranceConfig | None = None,
) -> DensityMatrix:
    """Integrate the matrix-form master equation with classic fixed-step RK4.

    This path never vectorizes: the right-hand side is evaluated as
    -i omega [N, rho] - (mu/2)(N rho + rho N - 2 a rho a^dag)
    - (nu/2)(a a^dag rho + rho a a^dag - 2 a^dag rho a) with the truncated
    operators, making it independent of both the closed form and the
    Liouvillian construction. ``steps`` must satisfy the stability bound
    step * (omega + mu + nu) * D <= 0.1 and stay within ``RK4_MAX_STEPS``.
    """
    check_evolution_args(rho0, t, tolerances)
    if steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps}")
    if steps > RK4_MAX_STEPS:
        raise ValueError(
            f"{steps} RK4 steps exceed the budget of {RK4_MAX_STEPS}; lower omega, "
            f"mu + nu, the dimension or the time step"
        )
    needed = stability_steps(params, rho0.dim, t)
    if steps < needed:
        raise ValueError(
            f"{steps} steps violate the stability bound "
            f"h*(omega+mu+nu)*D <= {RK4_STABILITY_LIMIT} (need >= {needed})"
        )
    ops = build_operators(rho0.trunc, params.theta)
    a = ops.a
    ad = ops.a_dagger
    n_diag = np.arange(rho0.dim, dtype=float)
    # a a^dag is diagonal; applying it as an entrywise scaling is exact.
    aad_diag = np.real(np.diag(a @ ad))
    omega, mu, nu = params.omega, params.mu, params.nu

    def rhs(r: np.ndarray) -> np.ndarray:
        n_left = n_diag[:, None] * r
        n_right = r * n_diag[None, :]
        out = (-1j * omega) * (n_left - n_right)
        if mu:
            out -= (0.5 * mu) * (n_left + n_right - 2.0 * (a @ r @ ad))
        if nu:
            out -= (0.5 * nu) * (
                aad_diag[:, None] * r + r * aad_diag[None, :] - 2.0 * (ad @ r @ a)
            )
        return out

    h = t / steps
    r = rho0.mat.copy()
    for _ in range(steps):
        k1 = rhs(r)
        k2 = rhs(r + 0.5 * h * k1)
        k3 = rhs(r + 0.5 * h * k2)
        k4 = rhs(r + h * k3)
        r = r + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return DensityMatrix(mat=r, trunc=rho0.trunc)

