import math
import re

import numpy as np
import pytest

from qdho import config, fock
from reference import TIGHT_TOLERANCES, doubled


def trunc_of(dim, support=None):
    support = dim - 1 if support is None else support
    return fock.TruncationConfig(support_max=support, guard=dim - 1 - support)


class TestTruncationConfig:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            fock.TruncationConfig(support_max=0, guard=0)

    def test_dim_is_derived(self):
        assert fock.TruncationConfig(support_max=3, guard=5).dim == 9

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
        ops = fock.build_operators(3, theta=0.0)
        expected_a = np.array(
            [[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]], dtype=complex
        )
        np.testing.assert_array_equal(ops.a, expected_a)
        np.testing.assert_array_equal(ops.n_op, np.diag([0.0, 1.0, 2.0]))
        np.testing.assert_array_equal(ops.a_dagger, expected_a.conj().T)

    def test_two_level_commutator(self):
        ops = fock.build_operators(2)
        comm = ops.a @ ops.a_dagger - ops.a_dagger @ ops.a
        np.testing.assert_array_equal(comm, np.diag([1.0, -1.0]).astype(complex))

    def test_phase_cancels_in_number_operator(self):
        plain = fock.build_operators(4, theta=0.0)
        rotated = fock.build_operators(4, theta=np.pi / 2)
        np.testing.assert_allclose(
            rotated.a_dagger @ rotated.a, plain.a_dagger @ plain.a, atol=1e-15
        )

    def test_rejects_tiny_dimension(self):
        with pytest.raises(ValueError):
            fock.TruncationConfig(support_max=0, guard=0)

    @pytest.mark.parametrize("dim", [2, 5, 16])
    @pytest.mark.parametrize("theta", [0.0, 0.7, np.pi])
    def test_shift_commutators_are_truncation_exact(self, dim, theta):
        # [N, a] = -a and [N, a^dag] = a^dag hold on the full truncated
        # matrices, unlike [a, a^dag].
        ops = fock.build_operators(dim, theta)
        n = ops.n_op
        assert np.abs(n @ ops.a - ops.a @ n + ops.a).max() <= 1e-14
        assert np.abs(n @ ops.a_dagger - ops.a_dagger @ n - ops.a_dagger).max() <= 1e-14

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_canonical_commutator_fails_only_at_corner(self, dim):
        ops = fock.build_operators(dim)
        defect = ops.a @ ops.a_dagger - ops.a_dagger @ ops.a - ops.identity
        expected = np.zeros((dim, dim), dtype=complex)
        expected[dim - 1, dim - 1] = -dim
        np.testing.assert_allclose(defect, expected, atol=1e-14)


class TestDensityMatrix:
    def test_dim_is_the_matrix_size(self):
        m = np.eye(5, dtype=complex) / 5
        assert fock.DensityMatrix(m).dim == len(m) == 5

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="must be square"):
            fock.DensityMatrix(np.zeros((2, 3)))


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

    @pytest.mark.parametrize("alpha", [1e200, 1.7e308 + 1.7e308j])
    def test_rejects_overflowing_amplitude(self, alpha):
        # |alpha|^2, and for the second |alpha| itself, overflows a float.
        with pytest.raises(ValueError, match=r"^\|alpha\|\^2 = inf exceeds support_max = 4$"):
            fock.coherent_state(alpha, trunc_of(8, support=4))

    def test_rejects_norm_deficit(self):
        # |alpha|^2 = 4 <= support_max, but 8 levels cannot hold the tail.
        trunc = fock.TruncationConfig(support_max=7, guard=0)
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

    @pytest.mark.parametrize(
        "n_bar, message",
        [
            (-1.0, "n_bar must be non-negative, got -1.0"),
            (math.inf, "n_bar must be finite, got inf"),
            (math.nan, "n_bar must be finite, got nan"),
        ],
    )
    def test_rejects_negative_and_non_finite_n_bar(self, n_bar, message):
        # NaN passes n_bar < 0, and at inf or NaN q = n_bar/(n_bar + 1) is NaN.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fock.thermal_state(n_bar, trunc_of(6))


class TestMixtureState:
    def test_two_term_mixture(self):
        rho = fock.mixture_state([(0, 0.25), (3, 0.75)], trunc_of(5))
        np.testing.assert_array_equal(
            np.diag(rho.mat), np.array([0.25, 0, 0, 0.75, 0], dtype=complex)
        )

    @pytest.mark.parametrize(
        "terms, message",
        [
            ([(0, 0.5), (1, 0.6)], "mixture weights sum to 1.1, expected 1 within 1e-12"),
            ([(0, -0.1), (1, 1.1)], "mixture weight for level 0 is negative: -0.1"),
            ([(0, 0.5), (1, math.nan)], "mixture weight for level 1 is NaN"),
            ([(0, math.nan), (1, math.nan)], "mixture weight for level 0 is NaN"),
            ([(0, math.inf), (1, 0.0)], "mixture weights sum to inf, expected 1 within 1e-12"),
            ([], "mixture needs at least one (level, weight) term"),
        ],
        ids=["sum", "negative", "nan", "all-nan", "inf", "empty"],
    )
    def test_rejects_bad_weights(self, terms, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fock.mixture_state(terms, trunc_of(4))


class TestValidateDensity:
    def test_clean_projector_passes(self):
        report = fock.validate_density(np.diag([1.0, 0.0]).astype(complex), TIGHT_TOLERANCES)
        assert report.ok
        assert report.hermiticity_dev == 0.0
        assert report.trace_dev == 0.0

    def test_indefinite_diagonal(self):
        # diag(2, -1) has unit trace but a negative eigenvalue.
        report = fock.validate_density(np.diag([2.0, -1.0]).astype(complex), TIGHT_TOLERANCES)
        assert report.trace_ok
        assert not report.positive_ok
        assert not report.ok
        assert abs(report.min_eigenvalue + 1.0) < 1e-12

    def test_negative_eigenvalue_from_strong_coherence(self):
        # Eigenvalues of [[0.5, 0.6], [0.6, 0.5]] are 1.1 and -0.1 by the
        # quadratic formula.
        m = np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex)
        report = fock.validate_density(m, TIGHT_TOLERANCES)
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
        report = fock.validate_density(make(trunc_of(18)).mat, TIGHT_TOLERANCES)
        assert report.ok, report.describe()


def _residue_block_hermitian(dim, g, rng):
    # Random Hermitian matrix whose entries couple only levels equal mod g.
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    x = x + x.conj().T
    i, j = np.indices((dim, dim))
    x[(j - i) % g != 0] = 0.0
    return x


class TestPositivityByShape:
    """validate_density's smallest eigenvalue: the diagonal of a diagonal state, else eigvalsh."""

    @pytest.mark.parametrize("dim", [5, 7, 12, 24])
    @pytest.mark.parametrize("g", [2, 3])
    def test_blocks_match_dense_eigvalsh(self, dim, g):
        # x is exactly Hermitian, so its Hermitian part 0.5 (x + x^dag) is x.
        x = _residue_block_hermitian(dim, g, np.random.default_rng(10 * dim + g))
        assert fock.validate_density(x, TIGHT_TOLERANCES).min_eigenvalue == np.linalg.eigvalsh(x)[0]

    @pytest.mark.parametrize("dim", [1, 2, 9, 64])
    def test_diagonal_state_is_its_smallest_diagonal_entry(self, dim):
        rng = np.random.default_rng(dim)
        mat = np.diag(rng.normal(size=dim) + 1e-3j * rng.normal(size=dim))
        # Only the real part of the diagonal survives the Hermitian part.
        min_eig = fock.validate_density(mat, TIGHT_TOLERANCES).min_eigenvalue
        assert min_eig == np.min(mat.diagonal().real)
        mixture = fock.mixture_state([(0, 0.25), (3, 0.75)], trunc_of(max(dim, 4)))
        assert fock.validate_density(mixture.mat, TIGHT_TOLERANCES).min_eigenvalue == 0.0

    def test_full_state_is_one_dense_call(self):
        # g = 1: exactly the eigvalsh of the whole Hermitian part, bit for bit.
        rng = np.random.default_rng(4)
        for mat in (
            fock.coherent_state(1.0 + 0.5j, trunc_of(24, support=9)).mat,
            _residue_block_hermitian(24, 2, rng) + np.diag(np.ones(23), 1) * 1e-3,
        ):
            want = float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))[0])
            assert fock.validate_density(mat, TIGHT_TOLERANCES).min_eigenvalue == want


class TestCheckEvolutionArgs:
    """The one argument check of every quantum evolution."""

    RHO0 = fock.fock_state(1, trunc_of(24))
    TOLS = config.DEFAULT_TOLERANCES
    #: 8 (omega + mu + nu) D max(1, t) at D = 24 reaches the largest double
    #: at mu ~ 3.12e305 for t = 3 and ~ 9.36e305 for t <= 1.
    BOUND = np.finfo(float).max / (8 * 24 * 3)

    @pytest.mark.parametrize(
        "rates, times",
        [
            ({"mu": 3e305}, [0.0, 3.0]),
            ({"mu": 0.999 * BOUND}, [3.0]),
            ({"omega": 9e305}, [0.0, 0.5]),
        ],
    )
    def test_admits_rates_inside_the_bound(self, rates, times):
        fock.check_evolution_args(self.RHO0, fock.ModelParams(**rates), times, self.TOLS)

    @pytest.mark.parametrize(
        "rates, times",
        [
            ({"mu": 1.001 * BOUND}, [3.0]),
            ({"mu": 5e305}, [0.0, 3.0]),
            ({"nu": 5e305}, [3.0]),
            ({"omega": 1e306}, [0.0]),  # max(1, t): the generator's own entries
            ({"omega": 1e308, "mu": 1e308}, [1.0]),  # omega + mu overflows
        ],
    )
    def test_refuses_rates_past_the_bound(self, rates, times):
        with pytest.raises(ValueError, match=r"^rate scale 8 \(omega \+ mu \+ nu\) D max\(1, t\) "):
            fock.check_evolution_args(self.RHO0, fock.ModelParams(**rates), times, self.TOLS)

    def test_refuses_negative_and_nan_times(self):
        params = fock.ModelParams(mu=1.0)
        with pytest.raises(ValueError, match="must be non-negative"):
            fock.check_evolution_args(self.RHO0, params, [1.0, -0.5], self.TOLS)
        with pytest.raises(ValueError, match="must be non-negative, got nan"):
            fock.check_evolution_args(self.RHO0, params, [1.0, math.nan], self.TOLS)

    def test_warns_on_gain_only(self):
        with pytest.warns(fock.GainWarning, match="pump nu=0.5 exceeds loss mu=0.25"):
            fock.check_evolution_args(self.RHO0, fock.ModelParams(mu=0.25, nu=0.5), 1.0, self.TOLS)
        fock.check_evolution_args(self.RHO0, fock.ModelParams(mu=0.5, nu=0.5), 1.0, self.TOLS)
