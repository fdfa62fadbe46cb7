"""Brute-force verification path: the master equation solved by sectors.

A D x D matrix X is flattened row-major into a length-D^2 vector, under
which X -> AXB becomes multiplication by kron(A, B^T). The master equation
then reads d rho_vec/dt = L rho_vec with the D^2 x D^2 Liouvillian

    L = -i omega K0 + nu K+ + mu K- - (mu+nu) K3 + (mu-nu)/2

built from K+ = kron(b^dag, b^dag), K- = kron(b, b),
K3 = (kron(N,1) + kron(1,N) + 1)/2 and K0 = kron(N,1) - kron(1,N).
K0 commutes with the other three, so L keeps the off-diagonal index
k = j - i fixed: it splits into 2D - 1 tridiagonal blocks, one per k, each
acting on the entries (i, i + k) of rho (see :func:`liouvillian_sector`).

Two oracles check the closed-form propagator, and neither forms a
D^2 x D^2 matrix. The expm oracle exponentiates each block
(scaling-and-squaring Taylor) and applies it to its diagonal of rho:
O(D^4) time and O(D^3) memory. The RK4 oracle steps the unvectorized
matrix equation with the literal truncated operators, each right-hand side
a scaling plus two weighted corner shifts, O(D^2) per step. The dense
superoperators and Liouvillian are kept for the identity suites, which pin
the vectorization convention.
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
#: Work budget of one RK4 call, in steps x D^2 (one step costs O(D^2)). The
#: largest call tier-1 makes is criterion 4's 6,240 steps at D_o = 52
#: (1.7e7); the benchmark's is 1,844 steps at D = 24 (1.1e6). At the
#: 90 us per step measured at D = 24 (one BLAS thread, 2-core box) a call
#: at this budget runs about 30 s, where one at ``RK4_MAX_STEPS`` runs 15 min.
RK4_MAX_WORK = 200_000_000
#: Size budget of the dense oracle. Each D^2 x D^2 superoperator takes
#: 16 D^4 bytes (268 MB at D = 64, 1.36 GB at D = 96) and building the
#: Liouvillian holds five of them; a larger D fails before allocating.
DENSE_MAX_DIM = 64
#: Size budget of the sector expm oracle. Its block exponentials take about
#: (2/3) 16 D^3 bytes (22 MB at D = 128, where one evolution takes ~1 s);
#: a larger D fails before anything is built.
ORACLE_MAX_DIM = 128


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


def _sector_entries(dim: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the entries (i, i + k), ordered by min(i, i + k)."""
    p = np.arange(dim - abs(k))
    return p + max(0, -k), p + max(0, k)


def liouvillian_sector(params: ModelParams, dim: int, k: int) -> np.ndarray:
    """Block of L on the entries (i, j = i + k), a (D - |k|)-square tridiagonal.

    Entry (i, j) has the diagonal -i omega (i - j) - mu (i + j)/2
    - nu (i + j + 2)/2, couples to (i+1, j+1) with mu sqrt((i+1)(j+1)) and
    to (i-1, j-1) with nu sqrt(i j). Row and column p stand for the entry
    with min(i, j) = p, so this is :func:`build_liouvillian` restricted to
    sector k, entry by entry.
    """
    if not -dim < k < dim:
        raise ValueError(f"sector k = {k} lies outside -(D-1)..D-1 for D = {dim}")
    rows, cols = _sector_entries(dim, k)
    i = rows.astype(float)
    j = cols.astype(float)
    block = np.diag(
        -1j * params.omega * (i - j)
        - 0.5 * params.mu * (i + j)
        - 0.5 * params.nu * (i + j + 2.0)
    )
    p = np.arange(i.size - 1)
    block[p, p + 1] = params.mu * np.sqrt((i[:-1] + 1.0) * (j[:-1] + 1.0))
    block[p + 1, p] = params.nu * np.sqrt(i[1:] * j[1:])
    return block


@lru_cache(maxsize=4)
def _cached_propagator(params: ModelParams, dim: int, t: float) -> tuple[np.ndarray, ...]:
    # exp(t L_k) for k = -(D-1) .. D-1, about (2/3) 16 D^3 bytes; treat as
    # read-only. Every grid time is a new key, so a CLI verb never hits;
    # the hits come from several states evolved at one (params, D, t), as
    # in the three-way acceptance check.
    return tuple(expm(t * liouvillian_sector(params, dim, k)) for k in range(1 - dim, dim))


def evolve_numeric_expm(
    rho0: DensityMatrix,
    params: ModelParams,
    t: float,
    *,
    tolerances: ToleranceConfig | None = None,
) -> DensityMatrix:
    """Evolve by applying exp(t L_k) to each diagonal k of the state.

    Raises ValueError, before anything is built, when D exceeds
    ``ORACLE_MAX_DIM``.
    """
    dim = rho0.dim
    if dim > ORACLE_MAX_DIM:
        megabytes = 16 * dim * (2 * dim * dim + 1) / 3 / 1e6
        raise ValueError(
            f"the sector expm oracle at D = {dim} would hold {megabytes:.0f} MB of block "
            f"exponentials per cached time; its budget is D <= {ORACLE_MAX_DIM}"
        )
    check_evolution_args(rho0, t, tolerances)
    evolved = np.empty_like(rho0.mat)
    for k, block_exp in zip(range(1 - dim, dim), _cached_propagator(params, dim, float(t))):
        rows, cols = _sector_entries(dim, k)
        evolved[rows, cols] = block_exp @ rho0.mat[rows, cols]
    return DensityMatrix(mat=evolved, trunc=rho0.trunc)


def stability_steps(params: ModelParams, dim: int, t: float) -> int:
    """Smallest RK4 step count satisfying the stability heuristic."""
    rate = (params.omega + params.mu + params.nu) * dim
    if t <= 0 or rate == 0:
        return 1
    return max(1, int(math.ceil(t * rate / RK4_STABILITY_LIMIT)))


def _literal_rhs(params: ModelParams, dim: int):
    """The matrix right-hand side r -> dr/dt with the literal truncated operators.

    The phase theta cancels from a r a^dag and a^dag r a, so both are
    weighted corner shifts: (a r a^dag)[i, j] = sqrt((i+1)(j+1)) r[i+1, j+1]
    and (a^dag r a)[i, j] = sqrt(i j) r[i-1, j-1]. Everything else is one
    entrywise coefficient. a a^dag is kept as the truncated product
    diag(1, ..., D-1, 0), not N + 1.
    """
    levels = np.arange(dim, dtype=float)
    aad_diag = np.append(levels[1:], 0.0)
    coef = (
        -1j * params.omega * (levels[:, None] - levels[None, :])
        - 0.5 * params.mu * (levels[:, None] + levels[None, :])
        - 0.5 * params.nu * (aad_diag[:, None] + aad_diag[None, :])
    )
    root = np.sqrt(levels[1:])
    corner = np.outer(root, root)  # sqrt(i j) for 1 <= i, j <= D-1
    mu, nu = params.mu, params.nu
    lower_w = mu * corner
    raise_w = nu * corner

    def rhs(r: np.ndarray) -> np.ndarray:
        out = coef * r
        if mu:
            out[:-1, :-1] += lower_w * r[1:, 1:]
        if nu:
            out[1:, 1:] += raise_w * r[:-1, :-1]
        return out

    return rhs


def evolve_numeric_rk4(
    rho0: DensityMatrix,
    params: ModelParams,
    t: float,
    steps: int,
    *,
    tolerances: ToleranceConfig | None = None,
) -> DensityMatrix:
    """Integrate the matrix-form master equation with classic fixed-step RK4.

    This path never vectorizes: the right-hand side is
    -i omega [N, rho] - (mu/2)(N rho + rho N - 2 a rho a^dag)
    - (nu/2)(a a^dag rho + rho a a^dag - 2 a^dag rho a) with the truncated
    operators (see :func:`_literal_rhs`), making it independent of both the
    closed form and the Liouvillian construction. ``steps`` must satisfy the
    stability bound step * (omega + mu + nu) * D <= 0.1 and stay within
    ``RK4_MAX_STEPS`` and, times D^2, within ``RK4_MAX_WORK``.
    """
    check_evolution_args(rho0, t, tolerances)
    if steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps}")
    if steps > RK4_MAX_STEPS:
        raise ValueError(
            f"{steps} RK4 steps exceed the budget of {RK4_MAX_STEPS}; lower omega, "
            f"mu + nu, the dimension or the time step"
        )
    if steps * rho0.dim**2 > RK4_MAX_WORK:
        raise ValueError(
            f"{steps} RK4 steps at D = {rho0.dim} exceed the work budget of "
            f"{RK4_MAX_WORK:.1e} steps x D^2; lower omega, mu + nu, the dimension "
            f"or the time step"
        )
    needed = stability_steps(params, rho0.dim, t)
    if steps < needed:
        raise ValueError(
            f"{steps} steps violate the stability bound "
            f"h*(omega+mu+nu)*D <= {RK4_STABILITY_LIMIT} (need >= {needed})"
        )
    rhs = _literal_rhs(params, rho0.dim)
    h = t / steps
    r = rho0.mat.copy()
    for _ in range(steps):
        k1 = rhs(r)
        k2 = rhs(r + 0.5 * h * k1)
        k3 = rhs(r + 0.5 * h * k2)
        k4 = rhs(r + h * k3)
        r = r + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return DensityMatrix(mat=r, trunc=rho0.trunc)

