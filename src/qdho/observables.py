"""Scalar diagnostics of density matrices: moments, purity, distances, populations.

A state is a square array, read as complex: one D x D slice of an evolved
(times, D, D) grid, or what a state constructor returns. ``expect_n`` and
``photon_distribution`` also take a whole (T, D, D) stack.
"""

from __future__ import annotations

import numpy as np


def expect_n(rho):
    """Mean excitation number Tr(N rho), of one state or of each of a (T, D, D) stack.

    The number operator is diag(0, 1, ..., D-1) for every operator phase.
    The imaginary part must vanish to 1e-10; the first state where it does
    not raises ArithmeticError. A stack gives an array over T.
    """
    mat = np.asarray(rho, dtype=complex)
    n_diag = np.arange(mat.shape[-1], dtype=float)
    val = np.sum(n_diag * np.diagonal(mat, 0, -2, -1), axis=-1)
    imag = np.atleast_1d(val.imag)
    bad = np.flatnonzero(np.abs(imag) > 1e-10)
    if bad.size:
        raise ArithmeticError(f"Tr(N rho) has imaginary part {imag[bad[0]]:.3e}")
    return val.real if mat.ndim > 2 else float(val.real)


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
    """Diagonal populations (p_0, ..., p_{D-1}) as a real vector; a stack gives one row per state."""
    return np.real(np.diagonal(np.asarray(rho, dtype=complex), 0, -2, -1)).copy()
