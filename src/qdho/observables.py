"""Scalar diagnostics of density matrices: moments, purity, distances, populations.

A state is a square array, read as complex: one D x D slice of an evolved
(times, D, D) grid, or a state builder's result.
"""

from __future__ import annotations

import numpy as np


def expect_n(rho) -> float:
    """Mean excitation number Tr(N rho).

    The number operator is diag(0, 1, ..., D-1) for every operator phase.
    The imaginary part must vanish to 1e-10.
    """
    mat = np.asarray(rho, dtype=complex)
    n_diag = np.arange(mat.shape[0], dtype=float)
    val = complex(np.sum(n_diag * np.diag(mat)))
    if abs(val.imag) > 1e-10:
        raise ArithmeticError(f"Tr(N rho) has imaginary part {val.imag:.3e}")
    return val.real


def purity(rho) -> float:
    """Tr(rho^2), in [0, 1] up to rounding for a valid state.

    Computed as sum |rho_ij|^2, which equals Tr(rho^2) for Hermitian rho.
    """
    mat = np.asarray(rho, dtype=complex)
    return float(np.vdot(mat, mat).real)


def frobenius_distance(a, b) -> float:
    """Frobenius norm of the difference, sqrt(sum |a-b|^2)."""
    ma = np.asarray(a, dtype=complex)
    mb = np.asarray(b, dtype=complex)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch: {ma.shape} vs {mb.shape}")
    return float(np.linalg.norm(ma - mb))


def photon_distribution(rho) -> np.ndarray:
    """Diagonal populations (p_0, ..., p_{D-1}) as a real vector."""
    return np.real(np.diag(np.asarray(rho, dtype=complex))).copy()
