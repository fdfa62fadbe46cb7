"""Dense reference constructions and step-by-step forms that only the tests use.

The oracles in :mod:`qdho.liouville` run by sectors and never form the
D^2 x D^2 Liouvillian, and the closed form never forms an operator
matrix; these full-size objects pin what the sectors, the series, the
vectorization convention and the truncation certificate stand for. The
step-by-step forms, one numpy step per series term and one check per CSV
row, pin the bits of the blocked and stacked forms the program runs.
"""

import math

import numpy as np

from qdho import cli, config, fock, liouville, observables, su11, verification

#: 1e-10 on Hermiticity, trace and positivity alike: the bound the
#: validation tests hold a candidate state to.
TIGHT_TOLERANCES = config.ToleranceConfig(
    hermiticity_tol=1e-10, trace_tol=1e-10, positivity_tol=1e-10
)


def ladder(dim: int, theta: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (a, a^dag, N) on ``dim`` levels, a = e^{i theta} b.

    b carries sqrt(1), sqrt(2), ... on its superdiagonal; N = a^dag a is
    diag(0, 1, ..., dim-1) for every theta, because the phase cancels.
    """
    a = np.exp(1j * theta) * np.diag(np.sqrt(np.arange(1, dim)), 1)
    return a, a.conj().T, np.diag(np.arange(dim, dtype=complex))


def dense_series(x, lower_weight, left_exp, right_exp, raise_weight, scale, theta):
    """The closed-form series by dense products of the theta-phased ladder.

    scale * sum_n R^n/n! (a^dag)^n [e^{l N} X e^{r N}] a^n with
    X = sum_m L^m/m! a^m x (a^dag)^m, both sums to the last level of x.
    """
    d = x.shape[0]
    a, a_dagger, _ = ladder(d, theta)

    def series(mat, weight, left, right):
        total = mat.copy()
        term = mat
        for m in range(1, d):
            term = (weight / m) * (left @ term @ right)
            total = total + term
        return total

    levels = np.arange(d)
    inner = series(x, lower_weight, a, a_dagger)
    core = np.exp(left_exp * levels)[:, None] * inner * np.exp(right_exp * levels)[None, :]
    return scale * series(core, raise_weight, a_dagger, a)


def dense_pure_loss(
    rho0: np.ndarray, params: fock.ModelParams, t: float, theta: float = 0.0
) -> np.ndarray:
    """The pure-loss (nu = 0) evolution of rho0 to t by :func:`dense_series`.

    rho(t) = e^{-(mu/2 + i omega) t N} {sum_m (1 - e^{-mu t})^m/m! a^m rho0 (a^dag)^m}
    e^{-(mu/2 - i omega) t N} (Breuer and Petruccione, *The Theory of Open
    Quantum Systems*, ch. 3), on the ladder of phase ``theta``. Its weight
    comes from expm1 directly: no disentangling coefficient enters, and
    ``params.nu`` is not read.
    """
    exponent = -(0.5 * params.mu + 1j * params.omega) * t
    weight = -math.expm1(-params.mu * t)
    return dense_series(rho0, weight, exponent, exponent.conjugate(), 0.0, 1.0, theta)


def devectorize(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`qdho.liouville.vectorize` for a dim x dim matrix."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.size != dim * dim:
        raise ValueError(f"expected a vector of length {dim * dim}, got shape {v.shape}")
    return v.reshape(dim, dim).copy()


def build_liouvillian(params: fock.ModelParams, dim: int) -> np.ndarray:
    """The K form of the generator on D = ``dim`` levels, a dense D^2 x D^2 matrix.

    The phase theta cancels from every term, so the result is
    theta-independent. The K3 term absorbs the commutator rewriting
    a a^dag = N + 1, which on the truncated space differs from the literal
    product b b^dag by D |D-1><D-1|; trace conservation therefore holds
    exactly only on states with no population at the edge level. This is
    the form of the identity suites; the oracles integrate
    :func:`literal_liouvillian`.
    """
    k0, k_plus, k_minus, k3 = liouville.k_superoperators(dim)
    d2 = dim**2
    return (
        -1j * params.omega * k0
        + params.nu * k_plus
        + params.mu * k_minus
        - (params.mu + params.nu) * k3
        + 0.5 * (params.mu - params.nu) * np.eye(d2, dtype=complex)
    )


def literal_rhs(params: fock.ModelParams, dim: int, theta: float = 0.0):
    """The master equation's right-hand side with the literal truncated operators.

    -i w [N,r] - mu/2 (Nr+rN-2 a r a+) - nu/2 (aa+ r + r aa+ - 2 a+ r a),
    from dense products of the truncated operators of :func:`ladder` with
    phase ``theta``.
    """
    a, ad, n = ladder(dim, theta)
    aad = a @ ad

    def rhs(r):
        return (
            -1j * params.omega * (n @ r - r @ n)
            - 0.5 * params.mu * (n @ r + r @ n - 2.0 * (a @ r @ ad))
            - 0.5 * params.nu * (aad @ r + r @ aad - 2.0 * (ad @ r @ a))
        )

    return rhs


def literal_liouvillian(params: fock.ModelParams, dim: int, theta: float = 0.0) -> np.ndarray:
    """Generator of the literal truncated equation, a dense D^2 x D^2 matrix.

    Column m is the vectorized :func:`literal_rhs` (phase ``theta``) of the
    m-th basis matrix of the row-major flattening. It is the generator both
    oracles integrate.
    """
    rhs = literal_rhs(params, dim, theta)
    return np.stack(
        [liouville.vectorize(rhs(basis.reshape(dim, dim))) for basis in np.eye(dim * dim)], axis=1
    )


def parameter_grid(count: int, seed: int = 421) -> list[tuple[float, float, float]]:
    """Seeded (mu, nu, t) points in [0, 5]^3 from numpy, then the verify grid's edge rows.

    The tests' own grid: its draws are pinned by the tests that read it,
    while :func:`qdho.verification.parameter_grid` draws from the standard
    library.
    """
    rng = np.random.default_rng(seed)
    pts = [tuple(rng.uniform(0.0, 5.0, size=3)) for _ in range(count)]
    return pts + list(verification.EDGE_POINTS)


def random_interior_density(dim: int, support: int, rng: np.random.Generator) -> np.ndarray:
    """Random unit-trace PSD matrix populating only levels 0..support."""
    block = support + 1
    g = rng.standard_normal((block, block)) + 1j * rng.standard_normal((block, block))
    return verification.interior_density(g, dim)


def kron_superoperators(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(K0, K+, K-, K3) on D = ``dim`` levels, each as a sum of Kronecker products.

    K0 = kron(N, I) - kron(I, N), K+ = kron(b^T, b^T), K- = kron(b, b) and
    K3 = (kron(N, I) + kron(I, N) + kron(I, I))/2, with the real shift b and
    N = diag(0, ..., D-1): the construction :func:`qdho.liouville.k_superoperators`
    must equal bit for bit.
    """
    b = np.diag(np.sqrt(np.arange(1, dim)), 1)
    n = np.diag(np.arange(dim, dtype=float))
    eye = np.eye(dim)
    k0 = np.kron(n, eye) - np.kron(eye, n)
    k3 = 0.5 * (np.kron(n, eye) + np.kron(eye, n) + np.kron(eye, eye))
    return k0, np.kron(b.T, b.T), np.kron(b, b), k3


def dense_disentangling_superop_residual(dim: int, n_states: int, seed: int) -> float:
    """:func:`qdho.verification.suite_disentangling_superop` on the dense superoperators.

    Both sides are exponentiated as D^2 x D^2 matrices, with no use of the
    sectors, on the suite's own states; the residual of a (params, state)
    pair is the 2-norm of the difference of the evolved vectors.
    """
    k0, k_plus, k_minus, k3 = liouville.k_superoperators(dim)
    states = [liouville.vectorize(rho) for rho in verification.superop_states(dim, n_states, seed)]
    params = ((1.0, 0.0, 0.8), (2.0, 0.0, 0.5), (0.8, 0.001, 1.0), (0.002, 0.002, 1.0))
    lhs_ops = liouville.expm(
        np.array([t * (nu * k_plus + mu * k_minus - (mu + nu) * k3) for mu, nu, t in params])
    )
    rhs_ops = verification.disentangled_product_2x2(
        [su11.disentangling_coefficients(mu, nu, t) for mu, nu, t in params],
        (k_plus, k_minus, k3),
    )
    worst = 0.0
    for lhs_op, rhs_op in zip(lhs_ops, rhs_ops):
        for vec in states:
            worst = max(worst, float(np.linalg.norm(lhs_op @ vec - rhs_op @ vec)))
    return worst


def stepwise_series(layout, lower_weight, left_exp, raise_weight, scale):
    """:func:`qdho.propagator._series` as one numpy step per series term, on either layout.

    Each term is the previous one shifted one level and scaled, held on its
    box of slots (see ``_series``); a time stops adding terms once its own
    term vanishes, and a series ends once its box is empty.
    """
    values, i, j, row_step = layout
    n = values.shape[-1]
    levels = np.arange(n)
    shape = (len(scale),) + values.shape
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
            term = shift_w[new_r0:new_r1, new_p0:new_p1] * term[
                ..., new_r0 - rs - r0 : new_r1 - rs - r0, new_p0 - step - p0 : new_p1 - step - p0
            ]
            np.multiply(weight / m, term, out=term)
            live &= term.view(float).any(axis=(1, 2))
            if not live.any():
                break
            r0, r1, p0, p1 = new_r0, new_r1, new_p0, new_p1
            window = total[..., r0:r1, p0:p1]
            np.add(window, term, out=window, where=live[:, None, None])
        return total

    out = series(values, lower_weight, lower_w, -1)
    left = np.exp(left_exp[:, None] * levels)[:, i]
    out = left * out * np.exp(left_exp.conj()[:, None] * levels)[:, j]
    out = series(out, raise_weight, raise_w, 1)
    return scale[:, None, None] * out


def rowwise_evolve_csv(cfg, times, states) -> str:
    """The CSV of ``qdho evolve`` on given grid states, checked and measured one row at a time.

    Each row runs :func:`qdho.fock.validate_density` on its own state, then
    ``expect_n``, ``purity`` and the populations; the first row that fails
    its checks raises :class:`qdho.cli.ToleranceFailure`, and a row whose
    Tr(N rho) is not real raises ArithmeticError.
    """
    k_max = min(cfg.photon_levels, cfg.trunc.dim - 1)
    header = (
        ["t", "trace_re", "expect_n", "purity"]
        + [f"p{k}" for k in range(k_max + 1)]
        + ["min_eigenvalue"]
    )
    lines = [",".join(header)]
    row = ",".join(["%.16e"] * len(header))
    for t, rho in zip(times, states):
        report = fock.validate_density(rho, cfg.tolerances)
        if not report.ok:
            raise cli.ToleranceFailure(
                f"state invariants failed at t={float(t):.6g}: {report.describe()}"
            )
        dist = observables.photon_distribution(rho)
        values = (
            [float(t), float(np.trace(rho).real), observables.expect_n(rho), observables.purity(rho)]
            + [float(dist[k]) for k in range(k_max + 1)]
            + [report.min_eigenvalue]
        )
        lines.append(row % tuple(values))
    return "\n".join(lines) + "\n"
