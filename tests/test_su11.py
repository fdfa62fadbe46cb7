import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from qdho import liouville, su11
from qdho.verification import disentangled_product_2x2, scaled_max_residual
from reference import parameter_grid


def taylor_expm_2x2(m):
    # Independent oracle for the closed forms under test.
    return liouville.expm(np.asarray(m, dtype=complex))


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
        assert (c.e_coef, c.log_f, c.g_coef) == (0.0, 0.0, 0.0)
        assert c.prefactor == 1.0

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
        assert abs(diag[0, 0] - math.exp(-c.log_f)) <= 1e-14
        assert abs(lower[1, 0] + c.e_coef) <= 1e-14

    def test_frozen_values(self):
        # Values frozen from the Taylor-expm + Gauss-decomposition oracle.
        c = su11.disentangling_coefficients(2.0, 1.0, 1.0)
        assert not c.degenerate_branch
        assert abs(c.e_coef - 0.7746003264394360) <= 1e-15
        assert abs(c.log_f - math.log(2.6909118816876227)) <= 1e-15
        assert abs(c.g_coef - 0.3873001632197180) <= 1e-15

    def test_degenerate_branch_values(self):
        c = su11.disentangling_coefficients(1.0, 1.0, 2.0)
        assert c.degenerate_branch
        assert abs(c.log_f - math.log(3.0)) <= 1e-15
        assert abs(c.e_coef - 2.0 / 3.0) <= 1e-15
        assert abs(c.g_coef - 2.0 / 3.0) <= 1e-15
        # Cross-check against the same formula just off the degenerate
        # direction, at x = 1e-9.
        near = su11.disentangling_coefficients(1.0 + 1e-9, 1.0, 2.0)
        assert not near.degenerate_branch
        assert abs(near.e_coef - c.e_coef) <= 1e-8
        assert abs(near.log_f - c.log_f) <= 1e-8
        assert abs(near.g_coef - c.g_coef) <= 1e-8

    def test_branch_continuity_across_threshold(self):
        for mu, t in [(1.0, 1.0), (3.0, 0.4)]:
            below = su11.disentangling_coefficients(mu, mu, t)
            assert below.degenerate_branch
            for eps in (1e-7, 1e-9):
                above = su11.disentangling_coefficients(mu + eps, mu, t)
                for field in ("e_coef", "log_f", "g_coef", "prefactor"):
                    assert abs(getattr(below, field) - getattr(above, field)) <= 1e-6

    def test_disentangling_identity_on_grid(self):
        for mu, nu, t in parameter_grid(100, seed=23):
            lhs = su11.flow(mu, nu, t)
            rhs = disentangled_product_2x2([su11.disentangling_coefficients(mu, nu, t)])[0]
            assert scaled_max_residual(lhs, rhs) <= 1e-12

    def test_stacked_products_equal_single_ones(self):
        coeffs = [
            su11.disentangling_coefficients(mu, nu, t) for mu, nu, t in parameter_grid(20, seed=5)
        ]
        stacked = disentangled_product_2x2(coeffs)
        assert stacked.shape == (len(coeffs), 2, 2)
        for c, product in zip(coeffs, stacked):
            np.testing.assert_array_equal(product, disentangled_product_2x2([c])[0])

    def test_scaling_positive_everywhere(self):
        for mu, nu, t in parameter_grid(200, seed=3):
            c = su11.disentangling_coefficients(mu, nu, t)
            assert math.isfinite(c.log_f)
            assert c.prefactor > 0.0

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            su11.disentangling_coefficients(1.0, 0.0, -0.5)


_FIELDS = ("e_coef", "g_coef", "log_f", "prefactor")


def reference_coefficients(mu, nu, t):
    """E, G, ln F and the prefactor at 50 digits, from the cosh/sinh form.

    x = (mu-nu)t/2, F = cosh x + ((mu+nu)/(mu-nu)) sinh x,
    E = (2mu/(mu-nu)) sinh x / F, G = (2nu/(mu-nu)) sinh x / F and the
    prefactor e^x / F, with the mu = nu limit F = 1 + (mu+nu)t/2,
    E = mu t/F, G = nu t/F. The inputs are the exact binary values.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        mu, nu, t = Decimal(mu), Decimal(nu), Decimal(t)
        x = (mu - nu) * t / 2
        if x == 0:
            f = 1 + (mu + nu) * t / 2
            e, g = mu * t / f, nu * t / f
        else:
            sh = (x.exp() - (-x).exp()) / 2
            ch = (x.exp() + (-x).exp()) / 2
            f = ch + (mu + nu) / (mu - nu) * sh
            e = 2 * mu / (mu - nu) * sh / f
            g = 2 * nu / (mu - nu) * sh / f
        return dict(zip(_FIELDS, (e, g, f.ln(), x.exp() / f)))


def _rates_at(x, sign, t=2.0, base=0.5):
    """(mu, nu) with (mu - nu) t / 2 = sign * x: loss for +1, gain for -1."""
    spread = 2.0 * x / t
    return (base + spread, base) if sign > 0 else (base, base + spread)


def assert_matches_reference(c, ref):
    for field in _FIELDS:
        got, want = getattr(c, field), ref[field]
        if abs(want) < Decimal(sys.float_info.min):
            # Below the normal range (a gain prefactor past (nu-mu)t ~ 745):
            # the double must be the reference rounded, here 0.
            assert got == float(want), (field, got, want)
        else:
            assert abs((Decimal(got) - want) / want) <= Decimal("1e-14"), (field, got, want)


class TestDisentanglingReference:
    """The single expm1/log1p formula against 50-digit decimal arithmetic."""

    def test_balanced_rates(self):
        assert_matches_reference(
            su11.disentangling_coefficients(0.5, 0.5, 2.0), reference_coefficients(0.5, 0.5, 2.0)
        )

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("x", [1e-12, 1e-6, 1.0, 700.0, 1e5])
    def test_half_spread(self, x, sign):
        mu, nu = _rates_at(x, sign)
        c = su11.disentangling_coefficients(mu, nu, 2.0)
        assert not c.degenerate_branch
        assert_matches_reference(c, reference_coefficients(mu, nu, 2.0))

    @pytest.mark.parametrize("mu, nu", [(0.5, 0.5), (1.5, 0.5), (0.5, 1.5)])
    def test_short_time(self, mu, nu):
        # ln F ~ (mu + nu) t / 2 = 1e-10: log1p, not log(1 + ...), keeps it.
        c = su11.disentangling_coefficients(mu, nu, 1e-10)
        assert_matches_reference(c, reference_coefficients(mu, nu, 1e-10))

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("edge", [1e-6, 700.0])
    def test_continuous_across_former_edges(self, edge, sign):
        # The limit formula once took over at |x| = 1e-6 and the overflow
        # refusal at |x| = 700. Across either, each scalar must step by what
        # the reference, rounded to doubles, steps by, to 1e-14 of its size.
        below, above = (_rates_at(edge * (1.0 + s * 1e-9), sign) for s in (-1, 1))
        lo, hi = (su11.disentangling_coefficients(mu, nu, 2.0) for mu, nu in (below, above))
        ref_lo, ref_hi = (reference_coefficients(mu, nu, 2.0) for mu, nu in (below, above))
        for field in _FIELDS:
            step = getattr(hi, field) - getattr(lo, field)
            ref_step = float(ref_hi[field]) - float(ref_lo[field])
            assert abs(step - ref_step) <= 1e-14 * abs(float(ref_hi[field]))
