"""Brute-force verification path: the master equation solved by sectors.

A D x D matrix X is flattened row-major into a length-D^2 vector, under
which X -> AXB becomes multiplication by kron(A, B^T). The master equation
then reads d rho_vec/dt = L rho_vec with the D^2 x D^2 Liouvillian

    L = -i omega K0 + nu K+ + mu K- - (mu+nu) K3 + (mu-nu)/2

built from K+ = kron(b^dag, b^dag), K- = kron(b, b),
K3 = (kron(N,1) + kron(1,N) + 1)/2 and K0 = kron(N,1) - kron(1,N).
K0 commutes with the other three, so L keeps the off-diagonal index
k = j - i fixed: it splits into 2D - 1 tridiagonal blocks, one per k. The
su(1,1) relations of the disentangling hold in this K form; the identity
suites check them on sector blocks cut from the dense real
superoperators. One cached index (:func:`_sector_order`) lists the
entries of a flattened matrix sector by sector; the oracles and the
suites gather a sector as one slice of it.

K3 absorbs a a^dag = N + 1, where the literal truncated product is
diag(1, ..., D - 1, 0): the two differ only in the pump's diagonal at
level D - 1, where N + 1 leaks trace. Both oracles integrate the literal
truncated equation, every block read off one coefficient table
(:func:`_literal_rhs`), so they differ from each other only by their
integrators. Neither forms a D^2 x D^2 matrix.

The expm oracle uses that the rotation is the scalar i omega k on sector
k: the block is L_k = i omega k + R_k with R_k real, and R_-k = R_k. It
exponentiates the real R_k of k = 0 .. D-1 (scaling-and-squaring Taylor,
float64), applies each to the real and imaginary parts of diagonals +k
and -k of rho and multiplies by the exact phase e^{+-i omega k t}. A grid
of times goes through one stacked exponential per block and chunk of
times: O(D^4) time per time and, per chunk, at most the memory of one
time at ``ORACLE_MAX_DIM``. The RK4 oracle takes h times the same complex
blocks; block -k is the conjugate of block k, and so is its RK4 power, so
it raises k >= 0 only. On a linear autonomous equation n RK4 steps are
the n-th power of the one-step matrix, raised per block by binary
powering: O(D^4 log steps) time and O(D^3) memory; a grid segment reuses
the powers of the one before it only if their lengths agree to the bit.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .fock import ModelParams, _check_finite, check_evolution_args

#: Taylor scaling threshold for the matrix exponential (max-row-sum norm).
_EXPM_SCALE_LIMIT = 0.5
#: Degree of the Taylor polynomial applied after scaling.
_EXPM_DEGREE = 15
#: Largest max-row-sum norm the exponential scales: up to it the squaring
#: count s = ceil(log2(norm / 0.5)) is at most 1023 and 2.0**s is finite.
_EXPM_MAX_NORM = 2.0**1022
#: RK4 stability heuristic: step * (omega + mu + nu) * dim must not exceed this.
RK4_STABILITY_LIMIT = 0.1
#: The one budget of an RK4 segment, in steps x D^2; a segment asking for
#: more fails at once. The largest segment tier-1 runs is criterion 4's
#: 6,240 steps at D_o = 52 (1.7e7); the benchmark's is 1,844 steps at D = 24
#: (1.1e6). A segment costs O(D^4 log steps), not O(D^2) per step: at D = 24
#: (one BLAS thread, 2-core box) 1,844 steps take ~8 ms and the 347,222
#: this budget admits ~11 ms. At D = 1 it admits 2e8 steps, 28 squarings.
RK4_MAX_WORK = 200_000_000
#: Size budget of the dense superoperators. :func:`k_superoperators` returns
#: four real D^2 x D^2 matrices of 8 D^4 bytes each (134 MB at D = 64,
#: 679 MB at D = 96); a larger D fails before allocating.
DENSE_MAX_DIM = 64
#: Size budget of the sector expm oracle. The real block exponentials of
#: one time, k >= 0 only, take 8 sum(s^2, s <= D) ~ (1/3) 8 D^3 bytes
#: (5.7 MB at D = 128); a larger D fails before anything is built. A chunk
#: of grid times holds at most as many entries.
ORACLE_MAX_DIM = 128


def vectorize(x: np.ndarray) -> np.ndarray:
    """Stack the rows of a square matrix into one column vector."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"vectorize expects a square matrix, got shape {x.shape}")
    return x.reshape(-1).copy()


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


def k_superoperators(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(K0, K+, K-, K3) as real dense D^2 x D^2 matrices on D = ``dim`` levels.

    K+ = kron(b^T, b^T) and K- = kron(b, b), from the real shift b
    (sqrt(1), ..., sqrt(D-1) on its superdiagonal): the phase of a cancels
    from every K. K0 = kron(N, I) - kron(I, N) and K3 = (kron(N, I) +
    kron(I, N) + I)/2, N = diag(0, ..., D-1), are diagonal, i - j and
    (i + j + 1)/2 on the entry (i, j), and are built as such, with the same
    bits and no kron temporaries. Raises ValueError, before allocating
    anything, when D exceeds ``DENSE_MAX_DIM``.
    """
    if dim > DENSE_MAX_DIM:
        gigabytes = 4 * 8 * dim**4 / 1e9
        raise ValueError(
            f"the dense superoperators at D = {dim} would take {gigabytes:.1f} GB; "
            f"their budget is D <= {DENSE_MAX_DIM}"
        )
    b = np.diag(np.sqrt(np.arange(1, dim)), 1)
    # Row i D + j of a superoperator acts on the entry (i, j).
    i, j = np.divmod(np.arange(dim * dim, dtype=float), dim)
    return np.diag(i - j), np.kron(b.T, b.T), np.kron(b, b), np.diag(0.5 * (i + j + 1.0))


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a truncated Taylor series.

    ``m`` is one square matrix or a stack of them, shape (..., n, n). Each
    member gets its own scaling by 2^-s down to max-row-sum norm 0.5, a
    fixed degree-15 Taylor polynomial by Horner's rule and its own s
    squarings (Moler and Van Loan, SIAM Review 45, 2003), so a stack gives
    the same bits as exponentiating its members one by one. A real input
    stays real and runs on float64 products; a complex one is complex128.
    At norm 0.5 the first omitted term is at most 0.5^16/16! ~ 7e-19, below
    one ulp of the result; relative accuracy is roughly one ulp times the
    conditioning of the exponential. Raises ValueError, before scaling, when
    a member's norm exceeds 2^1022, past which 2^s overflows, and after
    squaring when a member's exponential is not finite.
    """
    m = np.asarray(m)
    m = m.astype(complex if np.iscomplexobj(m) else float, copy=False)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expm expects a square matrix or a stack of them, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("expm input contains NaN/Inf entries")
    shape = m.shape
    n = shape[-1]
    m = m.reshape(-1, n, n)
    with np.errstate(over="ignore"):  # a norm past the double range reads inf
        norms = np.abs(m).sum(axis=-1).max(axis=-1, initial=0.0)
    if (norms > _EXPM_MAX_NORM).any():
        raise ValueError(
            f"expm input has max-row-sum norm {norms.max():.6g}, over 2^1022, "
            f"past which its scaling 2^s overflows double precision"
        )
    squarings = np.array(
        [
            math.ceil(math.log2(norm / _EXPM_SCALE_LIMIT)) if norm > _EXPM_SCALE_LIMIT else 0
            for norm in norms
        ],
        dtype=int,
    )
    scaled = m / (2.0**squarings)[:, None, None]
    eye = np.eye(n, dtype=m.dtype)
    total = eye + scaled / _EXPM_DEGREE
    for k in range(_EXPM_DEGREE - 1, 0, -1):
        total = eye + (scaled @ total) / k
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for done in range(int(squarings.max(initial=0))):
            pending = np.flatnonzero(squarings > done)
            total[pending] = total[pending] @ total[pending]
    if not np.isfinite(total).all():
        raise ValueError("expm result overflows double precision")
    return total.reshape(shape)


def _sector_entries(dim: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the entries (i, i + k), ordered by min(i, i + k)."""
    p = np.arange(dim - abs(k))
    return p + max(0, -k), p + max(0, k)


@lru_cache(maxsize=8)
def _sector_order(dim: int) -> tuple[np.ndarray, tuple[slice, ...]]:
    """The row-major entries of a D x D matrix listed sector by sector.

    Returns (order, spans): ``order`` is a permutation of range(D^2) that
    lists the diagonals k = 1-D .. D-1 in turn, each ordered by min(i, j)
    as :func:`_sector_entries` orders it, and ``spans[D - 1 + k]`` is the
    slice of ``order`` sector k occupies. So ``flat[order]`` of a
    flattened matrix holds sector k contiguously at that slice, and one
    put through ``order`` scatters them back. ``order`` is read-only.
    """
    sizes = [dim - abs(k) for k in range(1 - dim, dim)]
    order = np.concatenate(
        [rows * dim + cols for rows, cols in (_sector_entries(dim, k) for k in range(1 - dim, dim))]
    )
    order.flags.writeable = False
    ends = np.cumsum(sizes).tolist()
    return order, tuple(slice(end - size, end) for end, size in zip(ends, sizes))


def _sector_block(table, k: int) -> np.ndarray:
    """Block k of the :func:`_literal_rhs` ``table``; row p is the entry with min(i, j) = p.

    The block of the truncated generator on the entries (i, j = i + k), for
    -D < k < D: a (D - |k|)-square tridiagonal whose entry (i, j) has the
    diagonal -i omega (i - j) - mu (i + j)/2 - nu (c_i + c_j)/2, c the
    diagonal of the truncated a a^dag, and couples to (i+1, j+1) with
    mu sqrt(i+1) sqrt(j+1) and to (i-1, j-1) with nu sqrt(i) sqrt(j).
    """
    coef, lower, raise_ = table
    rows, cols = _sector_entries(len(coef), k)
    block = np.diag(coef[rows, cols])
    p = np.arange(rows.size - 1)
    block[p, p + 1] = lower[rows[:-1], cols[:-1]]
    block[p + 1, p] = raise_[rows[:-1], cols[:-1]]
    return block


def _upper_block_entries(dim: int) -> int:
    """Entries of the blocks k = 0 .. D-1 together: the sum of s^2 for s <= D."""
    return dim * (dim + 1) * (2 * dim + 1) // 6


@lru_cache(maxsize=1)
def _cached_propagator(
    params: ModelParams, dim: int, times: tuple[float, ...]
) -> tuple[np.ndarray, ...]:
    # Real exp(t R_k) for k = 0 .. D-1, each stacked over ``times``, where
    # R_k is sector k without its rotation i omega k: exp(t L_+-k) is
    # e^{+-i omega k t} exp(t R_k). Treat as read-only. A CLI verb evolves
    # each grid chunk once, so it never hits; the hits come from several
    # states evolved at one (params, D, t), as in the three-way acceptance
    # check.
    scale = np.array(times)[:, None, None]
    table = _literal_rhs(params, dim)
    return tuple(expm(scale * _sector_block(table, k).real) for k in range(dim))


def evolve_numeric_expm_grid(
    rho0: np.ndarray,
    params: ModelParams,
    times,
    *,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
) -> np.ndarray:
    """Evolve rho0 to every time in ``times`` by exp(t L_k) on each diagonal k.

    rho0, the rates and the times are checked once for the whole grid, by
    :func:`qdho.fock.check_evolution_args`, whose rate bound keeps every
    block's scaling 2^s finite. The times go through in chunks, each one
    stacked real exponential per sector k >= 0; a chunk holds at most as
    many entries as those blocks at one time at D = ``ORACLE_MAX_DIM``.
    Raises ValueError, before anything is built, when D exceeds
    ``ORACLE_MAX_DIM`` or the check refuses the arguments, and on a NaN.
    """
    dim = len(rho0)
    if dim > ORACLE_MAX_DIM:
        megabytes = 8 * _upper_block_entries(dim) / 1e6
        raise ValueError(
            f"the sector expm oracle at D = {dim} would hold {megabytes:.0f} MB of block "
            f"exponentials per time; its budget is D <= {ORACLE_MAX_DIM}"
        )
    times = np.asarray(times, dtype=float)
    rho0 = check_evolution_args(rho0, params, times, tolerances)
    chunk = max(1, _upper_block_entries(ORACLE_MAX_DIM) // _upper_block_entries(dim))
    order, spans = _sector_order(dim)
    sectors = rho0.reshape(-1)[order]
    states = np.empty((times.size, dim, dim), dtype=complex)
    for start in range(0, times.size, chunk):
        part = times[start : start + chunk]
        block_exps = _cached_propagator(params, dim, tuple(float(t) for t in part))
        moved = np.empty((part.size, dim * dim), dtype=complex)
        for k in range(1 - dim, dim):
            span = spans[dim - 1 + k]
            # The real stack takes the diagonal's real and imaginary parts
            # as the two columns of one real product.
            parts = block_exps[abs(k)] @ sectors[span].view(float).reshape(-1, 2)
            phase = np.exp(1j * (params.omega * k * part))
            moved[:, span] = phase[:, None] * parts.view(complex)[..., 0]
        states[start : start + chunk].reshape(-1, dim * dim)[:, order] = moved
        _check_finite(moved)
    return states


def stability_steps(params: ModelParams, dim: int, t: float) -> int:
    """Smallest RK4 step count satisfying the stability heuristic.

    Raises ValueError when that count overflows double precision.
    """
    rate = (params.omega + params.mu + params.nu) * dim
    if t <= 0 or rate == 0:
        return 1
    needed = t * rate / RK4_STABILITY_LIMIT
    if not math.isfinite(needed):
        raise ValueError(f"RK4 step count at t = {t:.6g}, D = {dim} overflows double precision")
    return max(1, int(math.ceil(needed)))


def _literal_rhs(params: ModelParams, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients of dr/dt with the literal truncated operators.

    Returns (coef, lower, raise_) with
    dr/dt[i, j] = coef[i, j] r[i, j] + lower[i, j] r[i+1, j+1]
    + raise_[i-1, j-1] r[i-1, j-1]. The phase of a cancels from a r a^dag
    and a^dag r a, so both are weighted corner shifts:
    (a r a^dag)[i, j] = sqrt((i+1)(j+1)) r[i+1, j+1] and
    (a^dag r a)[i, j] = sqrt(i j) r[i-1, j-1]; ``lower`` and ``raise_`` are
    mu and nu times the (D-1)-square sqrt((i+1)(j+1)). Everything else is
    the entrywise ``coef``, where a a^dag is kept as the truncated product
    diag(1, ..., D-1, 0), not N + 1. Both oracles read their blocks off
    these O(D^2) coefficients; neither applies the right-hand side.
    """
    levels = np.arange(dim, dtype=float)
    aad_diag = np.append(levels[1:], 0.0)
    coef = (
        -1j * params.omega * (levels[:, None] - levels[None, :])
        - 0.5 * params.mu * (levels[:, None] + levels[None, :])
        - 0.5 * params.nu * (aad_diag[:, None] + aad_diag[None, :])
    )
    root = np.sqrt(levels[1:])
    corner = np.outer(root, root)  # sqrt((i+1)(j+1)) for 0 <= i, j <= D-2
    return coef, params.mu * corner, params.nu * corner


def _increment_power(b: np.ndarray, n: int) -> np.ndarray:
    """(I + b)^n - I by binary powering, never forming I + b.

    Squaring is b -> 2b + b b and combining x -> x + b + x b. The entries
    of b are O(h), and adding I to them first rounds away their low bits at
    every product: at D = 24 over 346 steps the plain power of I + b is off
    the extended-precision step loop by 1.1e-14 relative, this form by
    8.0e-16 and the double-precision step loop by 1.1e-15.
    """
    x = None
    while True:
        if n & 1:
            x = b.copy() if x is None else x + b + x @ b
        n >>= 1
        if not n:
            return x
        b = 2.0 * b + b @ b


@lru_cache(maxsize=1)
def _rk4_powers(params: ModelParams, dim: int, t: float, steps: int) -> tuple[np.ndarray, ...]:
    # (I + B_k)^steps - I for k = 0 .. D-1, about (1/3) 16 D^3 bytes; the
    # -k power is its conjugate. Treat as read-only.
    table = _literal_rhs(params, dim)
    h = t / steps
    powers = []
    for k in range(dim):
        ha = h * _sector_block(table, k)
        # One RK4 step of a linear equation is I + B with
        # B = hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24, so n steps are (I + B)^n.
        eye = np.eye(len(ha))
        b = ha @ (eye + ha @ (eye + ha @ (eye + ha / 4.0) / 3.0) / 2.0)
        powers.append(_increment_power(b, steps))
    return tuple(powers)


def evolve_numeric_rk4_grid(
    rho0: np.ndarray,
    params: ModelParams,
    times,
    *,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
) -> np.ndarray:
    """Integrate the matrix-form master equation along ``times`` with classic fixed-step RK4.

    The right-hand side is -i omega [N, rho]
    - (mu/2)(N rho + rho N - 2 a rho a^dag)
    - (nu/2)(a a^dag rho + rho a a^dag - 2 a^dag rho a) with the truncated
    operators (see :func:`_literal_rhs`), making it independent of both the
    closed form and the Liouvillian construction. It keeps k = j - i, so
    each diagonal k of rho evolves under its own tridiagonal block A_k, and
    n RK4 steps of size h are the n-th power of the block's one-step
    matrix, raised in O(log n) products (see :func:`_increment_power`) for
    k >= 0 and conjugated for -k.

    :func:`qdho.fock.check_evolution_args` checks rho0, the rates and the
    whole grid once. Each segment from the time before (0 at first) takes
    twice ``stability_steps`` of its length, which meets the stability
    bound h (omega + mu + nu) D <= 0.1 with headroom for accuracy; one of
    zero or negative length repeats the state before it. The powers of the
    last segment are kept, so a segment of the same length to the bit as
    the one before raises none. A NaN raises ValueError, and so does a
    segment whose steps x D^2 pass ``RK4_MAX_WORK``, before its powers are
    raised.
    """
    times = np.asarray(times, dtype=float)
    rho0 = check_evolution_args(rho0, params, times, tolerances)
    dim = len(rho0)
    states = np.empty((times.size, dim, dim), dtype=complex)
    current, prev_t = rho0, 0.0
    for s, t in enumerate(times.tolist()):
        if t > prev_t:
            seg = t - prev_t
            current = _rk4_segment(current, params, seg, 2 * stability_steps(params, dim, seg))
            _check_finite(current)
        states[s] = current
        prev_t = t
    return states


def _rk4_segment(rho0: np.ndarray, params: ModelParams, t: float, steps: int) -> np.ndarray:
    """``steps`` RK4 steps of the D x D rho0 over [0, t], refused only past ``RK4_MAX_WORK``.

    The caller has checked the arguments, ``steps >= 1`` and the stability
    bound; :func:`evolve_numeric_rk4_grid`'s twice ``stability_steps``
    meets both.
    """
    dim = len(rho0)
    if steps * dim**2 > RK4_MAX_WORK:
        # The count may pass the double range, so it is rounded as a Decimal,
        # imported here to keep it out of every other run's start-up.
        from decimal import Decimal

        raise ValueError(
            f"{Decimal(steps):.3e} RK4 steps at D = {dim} exceed the work budget of "
            f"{RK4_MAX_WORK:.1e} steps x D^2; lower omega, mu + nu, the dimension "
            f"or the time step"
        )
    powers = _rk4_powers(params, dim, float(t), steps)
    order, spans = _sector_order(dim)
    sectors = rho0.reshape(-1)[order]
    moved = np.empty_like(sectors)
    # Sector -k of the generator is the entrywise conjugate of sector k, and
    # so is every matrix formed from it, so the -k diagonal gets the
    # conjugate of the k power. The power is never applied to the conjugate
    # of the k diagonal instead: the state is Hermitian only to a tolerance.
    for k in range(1 - dim, dim):
        power = powers[k] if k >= 0 else powers[-k].conj()
        span = spans[dim - 1 + k]
        moved[span] = sectors[span] + power @ sectors[span]
    evolved = np.empty_like(moved)
    evolved[order] = moved
    return evolved.reshape(dim, dim)
