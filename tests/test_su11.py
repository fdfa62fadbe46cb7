import numpy as np
import pytest

from qdho import liouville, su11
from qdho.verification import disentangled_product_2x2, parameter_grid, scaled_max_residual


def taylor_expm_2x2(m):
    # Independent oracle for the closed forms under test.
    return liouville.expm(np.asarray(m, dtype=complex), tol=1e-16)


class TestKGenerators:
    def test_matrices(self):
        k_plus, k_minus, k3 = su11.k_generators()
        np.testing.assert_array_equal(k_plus, [[0, 1], [0, 0]])
        np.testing.assert_array_equal(k_minus, [[0, 0], [-1, 0]])
        np.testing.assert_array_equal(k3, [[0.5, 0], [0, -0.5]])
        # k_minus is -k_plus^T, not the adjoint of k_plus
        assert np.abs(k_minus + k_plus.T).max() == 0.0
        assert np.abs(k_minus - k_plus.conj().T).max() != 0.0

    def test_commutation_relations_exact(self):
        k_plus, k_minus, k3 = su11.k_generators()
        assert np.abs(k3 @ k_plus - k_plus @ k3 - k_plus).max() <= 1e-15
        assert np.abs(k3 @ k_minus - k_minus @ k3 + k_minus).max() <= 1e-15
        assert np.abs(k_plus @ k_minus - k_minus @ k_plus + 2 * k3).max() <= 1e-15


class TestFlow:
    def test_t_zero_is_identity(self):
        np.testing.assert_array_equal(su11.flow(1.3, 0.4, 0.0), np.eye(2))

    def test_pure_loss_hand_values(self):
        # (mu=2, nu=0, t=1): [[e^-1, 0], [-2 sinh 1, e^1]]
        m = su11.flow(2.0, 0.0, 1.0)
        expected = np.array([[np.exp(-1), 0], [-2 * np.sinh(1), np.e]])
        np.testing.assert_allclose(m, expected, rtol=0, atol=1e-15)

    def test_against_taylor_oracle(self):
        for mu, nu, t in [(2.0, 0.0, 1.0), (2.0, 1.0, 1.0), (0.3, 0.1, 4.0), (5.0, 3.0, 5.0)]:
            oracle = taylor_expm_2x2(t * su11.generator(mu, nu))
            assert scaled_max_residual(su11.flow(mu, nu, t), oracle) <= 1e-13

    def test_degenerate_is_nilpotent_shift(self):
        # mu = nu makes A = [[-1,1],[-1,1]] (times the rate) with A^2 = 0,
        # so exp(tA) = I + tA.
        gen = su11.generator(1.0, 1.0)
        assert np.abs(gen @ gen).max() == 0.0
        m = su11.flow(1.0, 1.0, 0.7)
        np.testing.assert_allclose(
            m, np.array([[0.3, 0.7], [-0.7, 1.7]]), rtol=0, atol=1e-15
        )

    def test_determinant_one_on_grid(self):
        for mu, nu, t in parameter_grid(100, seed=5):
            m = su11.flow(mu, nu, t)
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            scale = max(1.0, abs(m[0, 0] * m[1, 1]) + abs(m[0, 1] * m[1, 0]))
            assert abs(det - 1.0) / scale <= 1e-12

    def test_one_parameter_group_composition(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            mu, nu = rng.uniform(0, 5, size=2)
            s, t = rng.uniform(0, 2.5, size=2)
            lhs = su11.flow(mu, nu, s + t)
            rhs = su11.flow(mu, nu, s) @ su11.flow(mu, nu, t)
            assert scaled_max_residual(lhs, rhs) <= 1e-12

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            su11.flow(-1.0, 0.0, 1.0)


class TestGaussDecompose:
    def test_identity(self):
        upper, diag, lower = su11.gauss_decompose(np.eye(2, dtype=complex))
        for factor in (upper, diag, lower):
            np.testing.assert_array_equal(factor, np.eye(2))

    def test_unit_upper_triangular(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        upper, diag, lower = su11.gauss_decompose(m)
        np.testing.assert_array_equal(upper, m)
        np.testing.assert_array_equal(diag, np.eye(2))
        np.testing.assert_array_equal(lower, np.eye(2))

    def test_rejects_vanishing_corner(self):
        with pytest.raises(ValueError):
            su11.gauss_decompose(np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_rejects_wrong_determinant(self):
        with pytest.raises(ValueError):
            su11.gauss_decompose(2.0 * np.eye(2))

    def test_reconstruction_on_flows(self):
        for mu, nu, t in [(2.0, 1.0, 1.0), (0.7, 0.2, 3.0), (1.0, 1.0, 2.0)]:
            m = su11.flow(mu, nu, t)
            upper, diag, lower = su11.gauss_decompose(m)
            assert scaled_max_residual(upper @ diag @ lower, m) <= 1e-12


class TestDisentanglingCoefficients:
    def test_t_zero(self):
        c = su11.disentangling_coefficients(1.7, 0.3, 0.0)
        assert (c.e_coef, c.f_coef, c.g_coef) == (0.0, 1.0, 0.0)

    def test_matches_gauss_factors_of_taylor_oracle(self):
        # Oracle: Taylor expm of the generator, then the Gauss decomposition.
        # G is the upper factor's off-diagonal, 1/F the diagonal factor's top
        # entry, and the lower factor carries -E (the sign convention that
        # makes exp(E k_minus) = [[1, 0], [-E, 1]]).
        mu, nu, t = 2.0, 1.0, 1.0
        oracle = taylor_expm_2x2(t * su11.generator(mu, nu))
        upper, diag, lower = su11.gauss_decompose(oracle)
        c = su11.disentangling_coefficients(mu, nu, t)
        assert abs(upper[0, 1] - c.g_coef) <= 1e-14
        assert abs(diag[0, 0] - 1.0 / c.f_coef) <= 1e-14
        assert abs(lower[1, 0] + c.e_coef) <= 1e-14

    def test_frozen_values(self):
        # Values frozen from the Taylor-expm + Gauss-decomposition oracle.
        c = su11.disentangling_coefficients(2.0, 1.0, 1.0)
        assert not c.degenerate_branch
        assert abs(c.e_coef - 0.7746003264394360) <= 1e-15
        assert abs(c.f_coef - 2.6909118816876227) <= 1e-15
        assert abs(c.g_coef - 0.3873001632197180) <= 1e-15

    def test_degenerate_branch_values(self):
        c = su11.disentangling_coefficients(1.0, 1.0, 2.0)
        assert c.degenerate_branch
        assert c.f_coef == 3.0
        assert abs(c.e_coef - 2.0 / 3.0) <= 1e-15
        assert abs(c.g_coef - 2.0 / 3.0) <= 1e-15
        # Cross-check against the non-degenerate formulas just off the
        # degenerate direction (threshold forced down so the hyperbolic
        # branch evaluates at x = 1e-9).
        near = su11.disentangling_coefficients(1.0 + 1e-9, 1.0, 2.0, degeneracy_threshold=1e-12)
        assert not near.degenerate_branch
        assert abs(near.e_coef - c.e_coef) <= 1e-8
        assert abs(near.f_coef - c.f_coef) <= 1e-8
        assert abs(near.g_coef - c.g_coef) <= 1e-8

    def test_branch_continuity_across_threshold(self):
        for mu, t in [(1.0, 1.0), (3.0, 0.4)]:
            eps = 1e-7
            below = su11.disentangling_coefficients(mu, mu, t)
            above = su11.disentangling_coefficients(mu + eps, mu, t)
            assert below.degenerate_branch
            for field in ("e_coef", "f_coef", "g_coef"):
                assert abs(getattr(below, field) - getattr(above, field)) <= 1e-6

    def test_disentangling_identity_on_grid(self):
        for mu, nu, t in parameter_grid(100, seed=23):
            lhs = su11.flow(mu, nu, t)
            rhs = disentangled_product_2x2(su11.disentangling_coefficients(mu, nu, t))
            assert scaled_max_residual(lhs, rhs) <= 1e-12

    def test_stacked_products_equal_single_ones(self):
        coeffs = [
            su11.disentangling_coefficients(mu, nu, t) for mu, nu, t in parameter_grid(20, seed=5)
        ]
        stacked = disentangled_product_2x2(coeffs)
        assert stacked.shape == (len(coeffs), 2, 2)
        for c, product in zip(coeffs, stacked):
            np.testing.assert_array_equal(product, disentangled_product_2x2(c))

    def test_scaling_positive_everywhere(self):
        for mu, nu, t in parameter_grid(200, seed=3):
            assert su11.disentangling_coefficients(mu, nu, t).f_coef > 0.0

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            su11.disentangling_coefficients(1.0, 0.0, -0.5)
