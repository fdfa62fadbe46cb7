"""Dense reference constructions that only the tests use.

The oracles in :mod:`qdho.liouville` run by sectors and never form the
D^2 x D^2 Liouvillian; these full-size objects pin what the sectors,
the vectorization convention and the truncation certificate stand for.
"""

import numpy as np

from qdho import fock, liouville


def devectorize(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`qdho.liouville.vectorize` for a dim x dim matrix."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.size != dim * dim:
        raise ValueError(f"expected a vector of length {dim * dim}, got shape {v.shape}")
    return v.reshape(dim, dim).copy()


def build_liouvillian(params: fock.ModelParams, trunc: fock.TruncationConfig) -> np.ndarray:
    """Generator of the vectorized master equation, a dense D^2 x D^2 matrix.

    The phase theta cancels from every term, so the result is
    theta-independent. Note the K3 term absorbs the commutator rewriting
    a a^dag = N + 1, which on the truncated space differs from the literal
    product b b^dag by D |D-1><D-1|; trace conservation therefore holds
    exactly only on states with no population at the edge level.
    """
    k0, k_plus, k_minus, k3 = liouville.k_superoperators(trunc)
    d2 = trunc.dim**2
    return (
        -1j * params.omega * k0
        + params.nu * k_plus
        + params.mu * k_minus
        - (params.mu + params.nu) * k3
        + 0.5 * (params.mu - params.nu) * np.eye(d2, dtype=complex)
    )


def doubled(trunc: fock.TruncationConfig) -> fock.TruncationConfig:
    """Same support with the retained dimension doubled (guard grows)."""
    return fock.TruncationConfig(
        dim=2 * trunc.dim, support_max=trunc.support_max, guard=trunc.guard + trunc.dim
    )
