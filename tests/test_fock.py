import math

import numpy as np
import pytest

from qdho import fock
from reference import doubled


def trunc_of(dim, support=None):
    support = dim - 1 if support is None else support
    return fock.TruncationConfig(dim=dim, support_max=support, guard=dim - 1 - support)


class TestTruncationConfig:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            fock.TruncationConfig(dim=10, support_max=3, guard=3)
        with pytest.raises(ValueError):
            fock.TruncationConfig(dim=1, support_max=0, guard=0)

    def test_default_guard_policy(self):
        trunc = fock.TruncationConfig.for_support(9)
        assert trunc.guard == 13
        assert trunc.dim == 23

    def test_doubled_keeps_support(self):
        trunc = fock.TruncationConfig.for_support(4, guard=5)
        big = doubled(trunc)
        assert big.dim == 2 * trunc.dim
        assert big.support_max == trunc.support_max


class TestBuildOperators:
    def test_three_level_matrices(self):
        ops = fock.build_operators(trunc_of(3), theta=0.0)
        expected_a = np.array(
            [[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]], dtype=complex
        )
        np.testing.assert_array_equal(ops.a, expected_a)
        np.testing.assert_array_equal(ops.n_op, np.diag([0.0, 1.0, 2.0]))
        np.testing.assert_array_equal(ops.a_dagger, expected_a.conj().T)

    def test_two_level_commutator(self):
        ops = fock.build_operators(trunc_of(2))
        comm = ops.a @ ops.a_dagger - ops.a_dagger @ ops.a
        np.testing.assert_array_equal(comm, np.diag([1.0, -1.0]).astype(complex))

    def test_phase_cancels_in_number_operator(self):
        plain = fock.build_operators(trunc_of(4), theta=0.0)
        rotated = fock.build_operators(trunc_of(4), theta=np.pi / 2)
        np.testing.assert_allclose(
            rotated.a_dagger @ rotated.a, plain.a_dagger @ plain.a, atol=1e-15
        )

    def test_rejects_tiny_dimension(self):
        with pytest.raises(ValueError):
            fock.TruncationConfig(dim=1, support_max=0, guard=0)

    @pytest.mark.parametrize("dim", [2, 5, 16])
    @pytest.mark.parametrize("theta", [0.0, 0.7, np.pi])
    def test_shift_commutators_are_truncation_exact(self, dim, theta):
        # [N, a] = -a and [N, a^dag] = a^dag hold on the full truncated
        # matrices, unlike [a, a^dag].
        ops = fock.build_operators(trunc_of(dim), theta)
        n = ops.n_op
        assert np.abs(n @ ops.a - ops.a @ n + ops.a).max() <= 1e-14
        assert np.abs(n @ ops.a_dagger - ops.a_dagger @ n - ops.a_dagger).max() <= 1e-14

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_canonical_commutator_fails_only_at_corner(self, dim):
        ops = fock.build_operators(trunc_of(dim))
        defect = ops.a @ ops.a_dagger - ops.a_dagger @ ops.a - ops.identity
        expected = np.zeros((dim, dim), dtype=complex)
        expected[dim - 1, dim - 1] = -dim
        np.testing.assert_allclose(defect, expected, atol=1e-14)


class TestFockState:
    def test_vacuum_projector(self):
        rho = fock.fock_state(0, trunc_of(4))
        np.testing.assert_array_equal(rho.mat, np.diag([1.0, 0, 0, 0]).astype(complex))

    def test_basis_projector(self):
        rho = fock.fock_state(2, trunc_of(4))
        np.testing.assert_array_equal(rho.mat, np.diag([0, 0, 1.0, 0]).astype(complex))

    def test_rejects_level_outside_truncation(self):
        with pytest.raises(ValueError):
            fock.fock_state(4, trunc_of(4))


class TestCoherentState:
    def test_alpha_zero_is_vacuum(self):
        rho = fock.coherent_state(0.0, trunc_of(5))
        np.testing.assert_array_equal(rho.mat, fock.fock_state(0, trunc_of(5)).mat)

    def test_mean_photon_number_matches_poisson_sum(self):
        # Oracle: direct summation of the Poisson distribution n e^{-1}/n!.
        rho = fock.coherent_state(1.0, trunc_of(20))
        n = np.arange(20)
        poisson = np.exp(-1.0) / np.array([math.factorial(k) for k in n])
        oracle_mean = float(np.sum(n * poisson))
        mean = float(np.sum(n * np.real(np.diag(rho.mat))))
        assert abs(mean - oracle_mean) < 1e-10
        assert abs(mean - 1.0) < 1e-10

    def test_photon_distribution_is_poisson(self):
        # Entry-wise Poisson agreement after renormalization, |alpha|^2 <= D/4.
        alpha = 1.2
        dim = 24
        rho = fock.coherent_state(alpha, trunc_of(dim))
        weights = np.real(np.diag(rho.mat))
        expected = np.array(
            [np.exp(-abs(alpha) ** 2) * abs(alpha) ** (2 * k) / math.factorial(k) for k in range(dim)]
        )
        assert np.abs(weights - expected).max() <= 1e-10

    def test_rejects_truncation_overflow(self):
        with pytest.raises(ValueError):
            fock.coherent_state(3.0, trunc_of(5, support=4))

    def test_rejects_norm_deficit(self):
        # |alpha|^2 = 4 <= support_max, but 8 levels cannot hold the tail.
        trunc = fock.TruncationConfig(dim=8, support_max=7, guard=0)
        with pytest.raises(fock.ValidationError):
            fock.coherent_state(2.0, trunc)


class TestThermalState:
    def test_zero_temperature_is_vacuum(self):
        rho = fock.thermal_state(0.0, trunc_of(4))
        np.testing.assert_array_equal(rho.mat, np.diag([1.0, 0, 0, 0]).astype(complex))

    def test_mean_occupation_matches_geometric_sum(self):
        dim = 40
        rho = fock.thermal_state(1.0, trunc_of(dim))
        n = np.arange(dim)
        weights = 0.5**(n + 1)  # (1/(n_bar+1)) q^n with q = 1/2
        oracle_mean = float(np.sum(n * weights) / np.sum(weights))
        mean = float(np.sum(n * np.real(np.diag(rho.mat))))
        assert abs(mean - oracle_mean) < 1e-12
        assert abs(mean - 1.0) < 1e-8

    def test_purity_matches_squared_weights(self):
        dim = 30
        n_bar = 0.5
        rho = fock.thermal_state(n_bar, trunc_of(dim))
        q = n_bar / (n_bar + 1.0)
        weights = (1 - q) * q ** np.arange(dim)
        oracle = float(np.sum(weights**2) / np.sum(weights) ** 2)
        measured = float(np.real(np.trace(rho.mat @ rho.mat)))
        assert abs(measured - oracle) < 1e-12
        assert abs(measured - 1.0 / (2 * n_bar + 1)) < 1e-8

    def test_rejects_heavy_tail(self):
        with pytest.raises(fock.ValidationError):
            fock.thermal_state(5.0, trunc_of(6))


class TestMixtureState:
    def test_two_term_mixture(self):
        rho = fock.mixture_state([(0, 0.25), (3, 0.75)], trunc_of(5))
        np.testing.assert_array_equal(
            np.diag(rho.mat), np.array([0.25, 0, 0, 0.75, 0], dtype=complex)
        )

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            fock.mixture_state([(0, 0.5), (1, 0.6)], trunc_of(4))
        with pytest.raises(ValueError):
            fock.mixture_state([(0, -0.1), (1, 1.1)], trunc_of(4))


class TestValidateDensity:
    def test_clean_projector_passes(self):
        report = fock.validate_density(np.diag([1.0, 0.0]).astype(complex), tol=1e-10)
        assert report.ok
        assert report.hermiticity_dev == 0.0
        assert report.trace_dev == 0.0

    def test_indefinite_diagonal(self):
        # diag(2, -1) has unit trace but a negative eigenvalue.
        report = fock.validate_density(np.diag([2.0, -1.0]).astype(complex), tol=1e-10)
        assert report.trace_ok
        assert not report.positive_ok
        assert not report.ok
        assert abs(report.min_eigenvalue + 1.0) < 1e-12

    def test_negative_eigenvalue_from_strong_coherence(self):
        # Eigenvalues of [[0.5, 0.6], [0.6, 0.5]] are 1.1 and -0.1 by the
        # quadratic formula.
        m = np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex)
        report = fock.validate_density(m, tol=1e-10)
        assert not report.positive_ok
        assert abs(report.min_eigenvalue + 0.1) < 1e-12
        assert report.trace_ok and report.hermitian_ok

    @pytest.mark.parametrize(
        "make",
        [
            lambda t: fock.fock_state(2, t),
            lambda t: fock.coherent_state(1.0, t),
            lambda t: fock.thermal_state(0.4, t),
            lambda t: fock.mixture_state([(0, 0.5), (2, 0.5)], t),
        ],
    )
    def test_constructors_pass_validation(self, make):
        report = fock.validate_density(make(trunc_of(18)).mat, tol=1e-10)
        assert report.ok, report.describe()


def _residue_block_hermitian(dim, g, rng):
    # Random Hermitian matrix whose entries couple only levels equal mod g.
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    x = x + x.conj().T
    i, j = np.indices((dim, dim))
    x[(j - i) % g != 0] = 0.0
    return x


class TestPositivityByResidueClass:
    """validate_density's smallest eigenvalue, taken over blocks of levels equal mod g."""

    @pytest.mark.parametrize("dim", [5, 7, 12, 24])
    @pytest.mark.parametrize("g", [2, 3])
    def test_blocks_match_dense_eigvalsh(self, dim, g):
        x = _residue_block_hermitian(dim, g, np.random.default_rng(10 * dim + g))
        got = fock.validate_density(x).min_eigenvalue
        want = np.linalg.eigvalsh(x)[0]
        assert abs(got - want) <= 1e-14 * max(1.0, float(np.linalg.norm(x)))

    @pytest.mark.parametrize("dim", [1, 2, 9, 64])
    def test_diagonal_state_is_its_smallest_diagonal_entry(self, dim):
        rng = np.random.default_rng(dim)
        mat = np.diag(rng.normal(size=dim) + 1e-3j * rng.normal(size=dim))
        # Only the real part of the diagonal survives the Hermitian part.
        assert fock.validate_density(mat).min_eigenvalue == np.min(mat.diagonal().real)
        mixture = fock.mixture_state([(0, 0.25), (3, 0.75)], trunc_of(max(dim, 4)))
        assert fock.validate_density(mixture.mat).min_eigenvalue == 0.0

    def test_full_state_is_one_dense_call(self):
        # g = 1: exactly the eigvalsh of the whole Hermitian part, bit for bit.
        rng = np.random.default_rng(4)
        for mat in (
            fock.coherent_state(1.0 + 0.5j, trunc_of(24, support=9)).mat,
            _residue_block_hermitian(24, 2, rng) + np.diag(np.ones(23), 1) * 1e-3,
        ):
            want = float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))[0])
            assert fock.validate_density(mat).min_eigenvalue == want
