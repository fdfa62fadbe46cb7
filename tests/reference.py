"""Dense reference constructions that only the tests use.

The oracles in :mod:`qdho.liouville` run by sectors and never form the
D^2 x D^2 Liouvillian; these full-size objects pin what the sectors,
the vectorization convention and the truncation certificate stand for.
"""

import numpy as np

from qdho import config, fock, liouville, su11, verification

#: 1e-10 on Hermiticity, trace and positivity alike: the bound the
#: validation tests hold a candidate state to.
TIGHT_TOLERANCES = config.ToleranceConfig(
    hermiticity_tol=1e-10, trace_tol=1e-10, positivity_tol=1e-10
)


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


def literal_rhs(params: fock.ModelParams, dim: int):
    """The master equation's right-hand side with the literal truncated operators.

    -i w [N,r] - mu/2 (Nr+rN-2 a r a+) - nu/2 (aa+ r + r aa+ - 2 a+ r a),
    from dense products of the phased, truncated operators.
    """
    ops = fock.build_operators(dim, params.theta)
    a, ad, n = ops.a, ops.a_dagger, ops.n_op
    aad = a @ ad

    def rhs(r):
        return (
            -1j * params.omega * (n @ r - r @ n)
            - 0.5 * params.mu * (n @ r + r @ n - 2.0 * (a @ r @ ad))
            - 0.5 * params.nu * (aad @ r + r @ aad - 2.0 * (ad @ r @ a))
        )

    return rhs


def literal_liouvillian(params: fock.ModelParams, dim: int) -> np.ndarray:
    """Generator of the literal truncated equation, a dense D^2 x D^2 matrix.

    Column m is the vectorized :func:`literal_rhs` of the m-th basis matrix
    of the row-major flattening. It is the generator both oracles integrate.
    """
    rhs = literal_rhs(params, dim)
    return np.stack(
        [liouville.vectorize(rhs(basis.reshape(dim, dim))) for basis in np.eye(dim * dim)], axis=1
    )


def doubled(trunc: fock.TruncationConfig) -> fock.TruncationConfig:
    """Same support with the retained dimension doubled (guard grows)."""
    return fock.TruncationConfig(support_max=trunc.support_max, guard=trunc.guard + trunc.dim)


def dense_disentangling_superop_residual(dim: int, n_states: int, seed: int) -> float:
    """:func:`qdho.verification.suite_disentangling_superop` on the dense superoperators.

    Both sides are exponentiated as D^2 x D^2 matrices, with no use of the
    sectors; the residual of a (params, state) pair is the 2-norm of the
    difference of the evolved vectors.
    """
    rng = np.random.default_rng(seed)
    k0, k_plus, k_minus, k3 = liouville.k_superoperators(dim)
    states = [
        liouville.vectorize(verification.random_interior_density(dim, dim - 4, rng))
        for _ in range(n_states)
    ]
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
