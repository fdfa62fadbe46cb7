"""One-shot numerical verification of every operator identity in the library.

Each suite measures a max residual over a seeded grid and compares it to a
fixed tolerance. Residuals between matrices whose entries can exceed unity
are scaled by max(1, scale of either side): an absolute 1e-12 would dip
below one ulp once entries reach ~1e5, while the scaled figure still trips
on any formula or sign error.

The seeded draws come from the standard library's ``random.Random(seed)``,
whose ``random()`` gives the same sequence for a seed on every Python
version (numpy promises no such thing for its generators, and loading
them costs ~5 MB of RSS): (mu, nu, t) each uniform in [0, 5), and each
real and imaginary part of a random matrix uniform in [-1, 1). The K0
suite reads each K at its nonzero entries only, so no suite holds a
dense D^2 x D^2 temporary beside the superoperators themselves. The
tests draw their own points from numpy, in ``tests/reference.py``, around
:data:`EDGE_POINTS` and :func:`interior_density`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import liouville, su11


@dataclass(frozen=True)
class SuiteResult:
    name: str
    grid_size: int
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def describe(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"identity={self.name} grid={self.grid_size} "
            f"max_residual={self.max_residual:.6e} tol={self.tolerance:.1e} {status}"
        )


def scaled_max_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Max-norm difference scaled by max(1, magnitude of either side)."""
    scale = max(1.0, float(np.abs(lhs).max()), float(np.abs(rhs).max()))
    return float(np.abs(np.asarray(lhs) - np.asarray(rhs)).max()) / scale


#: The 11 (mu, nu, t) rows every parameter grid ends with: for each of
#: three (mu, t), the exactly degenerate mu = nu and two near it; then
#: mu = nu = 0 and a pure-loss point (nu = 0).
EDGE_POINTS = tuple(
    row
    for mu, t in ((1.0, 2.0), (3.5, 0.7), (0.4, 4.0))
    for row in ((mu, mu, t), (mu, mu + 1e-9, t), (mu + 1e-3, mu, t))
) + ((0.0, 0.0, 3.0), (2.0, 0.0, 1.0))


def parameter_grid(count: int, seed: int = 421) -> list[tuple[float, float, float]]:
    """``count`` seeded (mu, nu, t) points, each uniform in [0, 5), then :data:`EDGE_POINTS`."""
    rng = random.Random(seed)
    pts = [(5.0 * rng.random(), 5.0 * rng.random(), 5.0 * rng.random()) for _ in range(count)]
    return pts + list(EDGE_POINTS)


def _uniform_complex(rng: random.Random, shape: tuple[int, ...]) -> np.ndarray:
    """Seeded complex entries, each real and imaginary part uniform in [-1, 1)."""
    parts = np.array([rng.random() for _ in range(2 * math.prod(shape))])
    return (2.0 * parts - 1.0).view(complex).reshape(shape)


def interior_density(g: np.ndarray, dim: int) -> np.ndarray:
    """g g^dag / Tr(g g^dag), a unit-trace PSD block on the first levels, zero-padded to ``dim``."""
    block = g.shape[0]
    rho_block = g @ g.conj().T
    rho_block /= np.trace(rho_block).real
    rho = np.zeros((dim, dim), dtype=complex)
    rho[:block, :block] = rho_block
    return rho


def superop_states(dim: int, n_states: int, seed: int) -> list[np.ndarray]:
    """The seeded densities of :func:`suite_disentangling_superop`, on levels 0..D-4."""
    rng = random.Random(seed)
    block = (dim - 3, dim - 3)
    return [interior_density(_uniform_complex(rng, block), dim) for _ in range(n_states)]


def disentangled_product_2x2(coeffs, generators=None) -> np.ndarray:
    """exp(G k+) exp(-2 ln F k3) exp(E k-) via honest matrix exponentials.

    ``coeffs`` is a sequence of :class:`su11.DisentanglingCoefficients`,
    one product each, with one stacked exponential per factor.
    ``generators`` is (k+, k-, k3) in any representation, each one matrix
    or a stack of them; the default is the defining 2x2 one of
    :func:`su11.k_generators`. The products have shape
    (len(coeffs),) + generator shape.
    """
    k_plus, k_minus, k3 = su11.k_generators() if generators is None else generators

    def factor(values, generator):
        return liouville.expm(np.array(values).reshape((-1,) + (1,) * generator.ndim) * generator)

    return (
        factor([c.g_coef for c in coeffs], k_plus)
        @ factor([-2.0 * c.log_f for c in coeffs], k3)
        @ factor([c.e_coef for c in coeffs], k_minus)
    )


def suite_sandwich_identity(seed: int = 7) -> SuiteResult:
    """vec(A X B) = kron(A, B^T) vec(X) on random triples at several dims."""
    rng = random.Random(seed)
    worst = 0.0
    count = 0
    for dim in (2, 3, 5, 8):
        for _ in range(25):
            a, x, b = (_uniform_complex(rng, (dim, dim)) for _ in range(3))
            worst = max(worst, liouville.sandwich_check(a, x, b))
            count += 1
    return SuiteResult("vectorization-sandwich", count, worst, 1e-12)


def suite_su11_commutators() -> SuiteResult:
    """[k3, k+-] = +-k+-, [k+, k-] = -2 k3 on the defining matrices."""
    k_plus, k_minus, k3 = su11.k_generators()
    residues = [
        np.abs(_comm(k3, k_plus) - k_plus).max(),
        np.abs(_comm(k3, k_minus) + k_minus).max(),
        np.abs(_comm(k_plus, k_minus) + 2.0 * k3).max(),
    ]
    return SuiteResult("su11-2x2-commutators", 3, float(max(residues)), 1e-15)


def suite_disentangling_2x2(count: int = 200, seed: int = 421) -> SuiteResult:
    """Closed-form flow equals the product of its three disentangled factors."""
    worst = 0.0
    pts = parameter_grid(count, seed)
    products = disentangled_product_2x2(
        [su11.disentangling_coefficients(mu, nu, t) for mu, nu, t in pts]
    )
    for (mu, nu, t), rhs in zip(pts, products):
        worst = max(worst, scaled_max_residual(su11.flow(mu, nu, t), rhs))
    return SuiteResult("disentangling-2x2", len(pts), worst, 1e-12)


def suite_gauss_reconstruction(count: int = 50, seed: int = 17) -> SuiteResult:
    """upper @ diag @ lower reproduces the decomposed determinant-one matrix."""
    rng = random.Random(seed)
    worst = 0.0
    mats = []
    for _ in range(count):
        a, b, c = _uniform_complex(rng, (3,))
        if abs(a) < 0.1:
            a += 1.0
        mats.append(np.array([[a, b], [c, (1.0 + b * c) / a]]))
    for mu, nu, t in ((2.0, 1.0, 1.0), (1.0, 0.0, 2.0), (0.5, 0.5, 3.0)):
        mats.append(su11.flow(mu, nu, t))
    for m in mats:
        upper, diag, lower = su11.gauss_decompose(m)
        worst = max(worst, scaled_max_residual(upper @ diag @ lower, m))
    return SuiteResult("gauss-reconstruction", len(mats), worst, 1e-12)


def suite_k0_commutativity(dims: tuple[int, ...] = (4, 8, 16)) -> SuiteResult:
    """K0 is diagonal and commutes with K+, K- and K3 exactly, even on the truncated space.

    K0's off-diagonal entries must be exactly 0; the largest of them counts
    into the residual. With K0 = diag(d) the commutator is entrywise,
    [K0, X]_ab = (d_a - d_b) X_ab, and reads exactly 0 wherever
    K0 X - X K0 does. d is i - j on the entry (i, j), so a zero commutator
    means X keeps k = j - i: X has no entry outside the sector blocks that
    :func:`suite_disentangling_superop` exponentiates. Both checks read
    only the nonzero entries of each K, where any nonzero term must sit,
    so no dense D^2 x D^2 temporary is built.
    """
    worst = 0.0
    for dim in dims:
        k0, k_plus, k_minus, k3 = liouville.k_superoperators(dim)
        d = np.diagonal(k0)
        rows, cols = np.nonzero(k0)
        off = rows != cols
        worst = max(worst, float(np.abs(k0[rows[off], cols[off]]).max(initial=0.0)))
        for other in (k_plus, k_minus, k3):
            rows, cols = np.nonzero(other)
            gaps = (d[rows] - d[cols]) * other[rows, cols]
            worst = max(worst, float(np.abs(gaps).max(initial=0.0)))
    return SuiteResult("k0-commutativity", 3 * len(dims), worst, 1e-14)


def suite_disentangling_superop(
    dim: int = 10, n_states: int = 5, seed: int = 99
) -> SuiteResult:
    """Factored superoperator product matches expm of the Lindblad generator.

    Asserted on interior-supported states (levels <= D-4), where truncation
    has not yet broken the su(1,1) relations. K+, K- and K3 keep k = j - i
    (:func:`suite_k0_commutativity` checks that), so both sides run on the
    2D - 1 sector blocks cut from the dense superoperators, each zero-padded
    to D x D and stacked. The padding is exact: the exponential of
    diag(B, 0) is diag(exp(B), I), and the padding changes neither a
    member's max-row-sum norm nor its squaring count. A (params, state)
    pair's residual is its 2-norm over all sectors.
    """
    index = _padded_sector_index(dim)
    # (2D - 1, D, D) stacks of blocks and (2D - 1, D, 1) stacks of columns.
    k_plus, k_minus, k3 = (
        np.pad(op, (0, 1))[index[:, :, None], index[:, None, :]]
        for op in liouville.k_superoperators(dim)[1:]
    )
    states = [
        np.append(liouville.vectorize(rho), 0.0)[index, None]
        for rho in superop_states(dim, n_states, seed)
    ]
    # Pump amplitudes kept small: the raising ladder of the factored form
    # needs roughly nu*t*D levels of headroom, so at this dim the identity
    # is truncation-converged below 1e-9 only for nu*t << 1. Larger pumping
    # converges the same way at larger dim (covered by the test suite).
    params = ((1.0, 0.0, 0.8), (2.0, 0.0, 0.5), (0.8, 0.001, 1.0), (0.002, 0.002, 1.0))
    lhs_ops = liouville.expm(
        np.array([t * (nu * k_plus + mu * k_minus - (mu + nu) * k3) for mu, nu, t in params])
    )
    rhs_ops = disentangled_product_2x2(
        [su11.disentangling_coefficients(mu, nu, t) for mu, nu, t in params],
        (k_plus, k_minus, k3),
    )
    worst = 0.0
    for lhs_op, rhs_op in zip(lhs_ops, rhs_ops):
        for vec in states:
            worst = max(worst, float(np.linalg.norm(lhs_op @ vec - rhs_op @ vec)))
    return SuiteResult("disentangling-superop", len(params) * n_states, worst, 1e-9)


def _padded_sector_index(dim: int) -> np.ndarray:
    """Row k + D - 1 lists sector k's entries of a flattened D x D matrix, padded with D^2.

    Entry D^2 is one past the last, so a vector or matrix padded with one
    zero reads as sector blocks zero-padded to D.
    """
    order, spans = liouville._sector_order(dim)
    index = np.full((len(spans), dim), dim * dim)
    for row, span in zip(index, spans):
        row[: span.stop - span.start] = order[span]
    return index


def run_identity_suites() -> list[SuiteResult]:
    """Every identity suite, in a fixed order with fixed seeds."""
    return [
        suite_sandwich_identity(),
        suite_su11_commutators(),
        suite_disentangling_2x2(),
        suite_gauss_reconstruction(),
        suite_k0_commutativity(),
        suite_disentangling_superop(),
    ]


def _comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a
