"""Scalar diagnostics of density matrices: moments, purity, distances, populations.

All functions accept either a :class:`~qdho.fock.DensityMatrix` or a bare
complex square array; wrappers are unwrapped via their ``mat`` attribute.
"""

from __future__ import annotations

import numpy as np


def _as_matrix(x) -> np.ndarray:
    return np.asarray(getattr(x, "mat", x), dtype=complex)


def expect_n(rho, ops=None) -> float:
    """Mean excitation number Tr(N rho).

    ``ops`` may pass a prebuilt operator set; the number operator is diagonal
    with entries 0..D-1 either way. The imaginary part must vanish to 1e-10.
    """
    mat = _as_matrix(rho)
    if ops is not None:
        n_diag = np.real(np.diag(_as_matrix(ops.n_op)))
        if n_diag.shape[0] != mat.shape[0]:
            raise ValueError("operator set dimension does not match the state")
    else:
        n_diag = np.arange(mat.shape[0], dtype=float)
    val = complex(np.sum(n_diag * np.diag(mat)))
    if abs(val.imag) > 1e-10:
        raise ArithmeticError(f"Tr(N rho) has imaginary part {val.imag:.3e}")
    return val.real


def purity(rho) -> float:
    """Tr(rho^2), in [0, 1] up to rounding for a valid state."""
    mat = _as_matrix(rho)
    return float(np.real(np.trace(mat @ mat)))


def frobenius_distance(a, b) -> float:
    """Frobenius norm of the difference, sqrt(sum |a-b|^2)."""
    ma = _as_matrix(a)
    mb = _as_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch: {ma.shape} vs {mb.shape}")
    return float(np.linalg.norm(ma - mb))


def photon_distribution(rho) -> np.ndarray:
    """Diagonal populations (p_0, ..., p_{D-1}) as a real vector."""
    return np.real(np.diag(_as_matrix(rho))).copy()
