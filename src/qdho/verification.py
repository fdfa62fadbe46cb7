"""One-shot numerical verification of every operator identity in the library.

Each suite measures a max residual over a seeded grid and compares it to a
fixed tolerance. Residuals between matrices whose entries can exceed unity
are scaled by max(1, scale of either side): an absolute 1e-12 would dip
below one ulp once entries reach ~1e5, while the scaled figure still trips
on any formula or sign error.
"""

from __future__ import annotations

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


def parameter_grid(count: int, seed: int = 421) -> list[tuple[float, float, float]]:
    """Seeded (mu, nu, t) points in [0, 5]^3 plus exact and near-degenerate rows."""
    rng = np.random.default_rng(seed)
    pts = [tuple(rng.uniform(0.0, 5.0, size=3)) for _ in range(count)]
    for mu, t in ((1.0, 2.0), (3.5, 0.7), (0.4, 4.0)):
        pts.append((mu, mu, t))  # exactly degenerate
        pts.append((mu, mu + 1e-9, t))
        pts.append((mu + 1e-3, mu, t))
    pts.append((0.0, 0.0, 3.0))
    pts.append((2.0, 0.0, 1.0))
    return pts


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
    rng = np.random.default_rng(seed)
    worst = 0.0
    count = 0
    for dim in (2, 3, 5, 8):
        for _ in range(25):
            a, x, b = (
                rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                for _ in range(3)
            )
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
    rng = np.random.default_rng(seed)
    worst = 0.0
    mats = []
    for _ in range(count):
        a, b, c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
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
    :func:`suite_disentangling_superop` exponentiates.
    """
    worst = 0.0
    for dim in dims:
        k0, k_plus, k_minus, k3 = liouville.k_superoperators(dim)
        d = np.diagonal(k0)
        worst = max(worst, float(np.abs(k0 - np.diag(d)).max()))
        gaps = d[:, None] - d[None, :]
        for other in (k_plus, k_minus, k3):
            worst = max(worst, float(np.abs(gaps * other).max()))
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
    rng = np.random.default_rng(seed)
    index = _padded_sector_index(dim)
    # (2D - 1, D, D) stacks of blocks and (2D - 1, D, 1) stacks of columns.
    k_plus, k_minus, k3 = (
        np.pad(op, (0, 1))[index[:, :, None], index[:, None, :]]
        for op in liouville.k_superoperators(dim)[1:]
    )
    states = [
        np.append(liouville.vectorize(random_interior_density(dim, dim - 4, rng)), 0.0)[index, None]
        for _ in range(n_states)
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


def random_interior_density(dim: int, support: int, rng: np.random.Generator) -> np.ndarray:
    """Random unit-trace PSD matrix populating only levels 0..support."""
    block = support + 1
    g = rng.standard_normal((block, block)) + 1j * rng.standard_normal((block, block))
    rho_block = g @ g.conj().T
    rho_block /= np.trace(rho_block).real
    rho = np.zeros((dim, dim), dtype=complex)
    rho[:block, :block] = rho_block
    return rho


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
