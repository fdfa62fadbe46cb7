import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from qdho import fock, observables
from reference import TIGHT_TOLERANCES, ladder


def trunc_of(dim, support=None):
    support = dim - 1 if support is None else support
    return fock.TruncationConfig(support_max=support, guard=dim - 1 - support)


def random_hermitian(dim, rng, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (g + g.conj().T)


class TestExpectN:
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_number_states(self, n):
        assert observables.expect_n(fock.fock_state(n, trunc_of(6))) == n

    def test_thermal_mean(self):
        rho = fock.thermal_state(1.0, trunc_of(40))
        assert abs(observables.expect_n(rho) - 1.0) <= 1e-8

    def test_coherent_mean(self):
        rho = fock.coherent_state(1.5, trunc_of(30, support=16))
        assert abs(observables.expect_n(rho) - 2.25) <= 1e-8

    def test_matches_number_operator_trace(self):
        # N = a^dag a is diag(0..D-1) whatever the operator phase theta.
        trunc = trunc_of(6)
        _, _, n = ladder(trunc.dim, theta=0.4)
        rho = fock.mixture_state([(1, 0.25), (4, 0.75)], trunc)
        assert np.trace(n @ rho).real == observables.expect_n(rho) == 3.25


class TestStackedObservables:
    """expect_n and photon_distribution on a (T, D, D) stack: each state's value, bit for bit."""

    def stack(self):
        rng = np.random.default_rng(8)
        noise = 1e-13j * rng.normal(size=(6, 16))
        return np.array([random_hermitian(16, rng) + np.diag(row) for row in noise])

    def test_equal_the_one_state_values(self):
        stack = self.stack()
        means, populations = observables.expect_n(stack), observables.photon_distribution(stack)
        for k, state in enumerate(stack):
            assert means[k].tobytes() == np.float64(observables.expect_n(state)).tobytes()
            assert populations[k].tobytes() == observables.photon_distribution(state).tobytes()

    def test_refuses_the_first_imaginary_mean(self):
        stack = self.stack()
        stack[2, 5, 5] += 3e-11j  # Im Tr(N rho) = 1.5e-10
        stack[4, 5, 5] += 1e-9j
        with pytest.raises(ArithmeticError) as stacked:
            observables.expect_n(stack)
        with pytest.raises(ArithmeticError) as single:
            observables.expect_n(stack[2])
        assert str(stacked.value) == str(single.value)
        assert 1.4e-10 < float(str(single.value).split()[-1]) < 1.6e-10
        assert observables.expect_n(stack[:2]).shape == (2,)


class TestPurity:
    def test_pure_states(self):
        assert observables.purity(fock.fock_state(2, trunc_of(5))) == 1.0

    def test_maximally_mixed(self):
        dim = 8
        rho = np.eye(dim, dtype=complex) / dim
        assert abs(observables.purity(rho) - 1.0 / dim) <= 1e-15

    def test_thermal_purity(self):
        rho = fock.thermal_state(0.5, trunc_of(30))
        assert abs(observables.purity(rho) - 0.5) <= 1e-8

    @pytest.mark.parametrize("kind", ["coherent", "random_full_rank"])
    def test_matches_trace_of_square(self, kind):
        # Off-diagonal coherences count: sum |rho_ij|^2 = Tr(rho rho) for Hermitian rho.
        if kind == "coherent":
            rho = fock.coherent_state(1.1 - 0.6j, trunc_of(16, support=8))
        else:
            rng = np.random.default_rng(5)
            g = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
            rho = g @ g.conj().T + 0.1 * np.eye(12)
            rho /= np.trace(rho).real
        assert abs(observables.purity(rho) - np.trace(rho @ rho).real) <= 1e-15


class TestFrobeniusDistance:
    def test_zero_on_equal(self):
        rho = fock.coherent_state(0.8, trunc_of(12, support=4))
        assert observables.frobenius_distance(rho, rho) == 0.0

    def test_orthogonal_projectors(self):
        a = fock.fock_state(0, trunc_of(4))
        b = fock.fock_state(1, trunc_of(4))
        assert abs(observables.frobenius_distance(a, b) - np.sqrt(2)) <= 1e-15

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a, b, c = (random_hermitian(5, rng) for _ in range(3))
            dab = observables.frobenius_distance(a, b)
            dba = observables.frobenius_distance(b, a)
            assert dab == dba
            assert dab <= observables.frobenius_distance(a, c) + observables.frobenius_distance(c, b) + 1e-12

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            observables.frobenius_distance(np.eye(3), np.eye(4))


class TestHermitianEigenvalues:
    """Smallest eigenvalue as reported by the positivity check of validate_density."""

    def test_diagonal_is_sorted(self):
        report = fock.validate_density(np.diag([3.0, 1.0, 2.0]).astype(complex), TIGHT_TOLERANCES)
        assert abs(report.min_eigenvalue - 1.0) <= 1e-14

    def test_pauli_x_spectrum(self):
        report = fock.validate_density(np.array([[0.0, 1.0], [1.0, 0.0]]), TIGHT_TOLERANCES)
        assert abs(report.min_eigenvalue + 1.0) <= 1e-14

    def test_random_hermitian_against_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            m = random_hermitian(8, rng)
            min_eig = fock.validate_density(m, TIGHT_TOLERANCES).min_eigenvalue
            assert abs(min_eig - np.linalg.eigvalsh(m)[0]) <= 1e-11
            assert abs(min_eig - scipy.linalg.eigvalsh(m)[0]) <= 1e-11

    def test_complex_phase_handling(self):
        m = np.array([[1.0, 1j], [-1j, 1.0]])
        assert abs(fock.validate_density(m, TIGHT_TOLERANCES).min_eigenvalue) <= 1e-13

    def test_rejects_non_hermitian(self):
        report = fock.validate_density(np.array([[0.0, 1.0], [0.0, 0.0]]), TIGHT_TOLERANCES)
        assert not report.hermitian_ok
        assert not report.ok

    @pytest.mark.parametrize("top, scale", [(0.5, 1.0), (4.0, 4.0)])
    @pytest.mark.parametrize("tol", [1e-10, 1e-6])
    def test_hermiticity_threshold_is_tol_times_scale(self, top, scale, tol):
        # The scale is max(1, max |m|); the deviation sits in one
        # off-diagonal entry, just below and just above tol * scale.
        for factor, ok in ((0.99, True), (1.01, False)):
            m = np.diag([top, 0.5]).astype(complex)
            m[0, 1] = factor * tol * scale
            tols = dataclasses.replace(TIGHT_TOLERANCES, hermiticity_tol=tol)
            report = fock.validate_density(m, tols)
            assert report.hermiticity_dev == factor * tol * scale
            assert report.hermitian_ok == ok


class TestKnownSpectrumPositivity:
    """min_eigenvalue of U diag(lam) U^dag with one eigenvalue near zero."""

    @staticmethod
    def known_spectrum(dim, smallest, seed):
        rng = np.random.default_rng(seed)
        q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        u = q * (np.diag(r) / np.abs(np.diag(r)))  # Haar-distributed unitary
        lam = rng.uniform(0.5, 1.5, dim)
        lam[0] = 0.0
        lam *= (1.0 - smallest) / lam.sum()
        lam[0] = smallest
        return (u * lam) @ u.conj().T, lam

    @pytest.mark.parametrize("dim", [24, 48])
    @pytest.mark.parametrize("smallest", [1e-9, -1e-9, 1e-11, -1e-11])
    def test_min_eigenvalue_and_positivity_flag(self, dim, smallest):
        rho, lam = self.known_spectrum(dim, smallest, seed=dim)
        assert abs(lam.sum() - 1.0) <= 1e-15
        assert abs(fock.validate_density(rho, TIGHT_TOLERANCES).min_eigenvalue - lam.min()) <= 1e-12
        # Just below and just above |min lam|, the flag follows the exact spectrum:
        # it flips across the tolerance for a negative eigenvalue only.
        for tol in (abs(smallest) * (1 - 1e-3), abs(smallest) * (1 + 1e-3)):
            expected = smallest >= -tol
            tols = dataclasses.replace(TIGHT_TOLERANCES, positivity_tol=tol)
            assert fock.validate_density(rho, tols).positive_ok == expected

    def test_rank_one_coherent_state(self):
        rho = fock.coherent_state(2.0, trunc_of(48, support=23))
        assert fock.validate_density(rho, TIGHT_TOLERANCES).min_eigenvalue >= -1e-13


class TestPhotonDistribution:
    def test_number_state(self):
        dist = observables.photon_distribution(fock.fock_state(2, trunc_of(5)))
        np.testing.assert_array_equal(dist, [0, 0, 1, 0, 0])

    def test_thermal_geometric_weights(self):
        dim = 40
        dist = observables.photon_distribution(fock.thermal_state(1.0, trunc_of(dim)))
        expected = 0.5 ** (np.arange(dim) + 1)
        np.testing.assert_allclose(dist, expected, atol=1e-8)
        assert abs(dist.sum() - 1.0) <= 1e-12

    def test_coherent_poisson_weights(self):
        dim = 24
        dist = observables.photon_distribution(fock.coherent_state(1.0, trunc_of(dim, support=9)))
        expected = np.array([np.exp(-1.0) / math.factorial(k) for k in range(dim)])
        np.testing.assert_allclose(dist, expected, atol=1e-8)
