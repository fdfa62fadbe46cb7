import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qdho import config, fock, liouville, observables, propagator, su11
from qdho.verification import random_interior_density
from reference import TIGHT_TOLERANCES


def trunc_of(dim, support=None):
    support = dim - 1 if support is None else support
    return fock.TruncationConfig(support_max=support, guard=dim - 1 - support)


def interior_state(dim, support, seed):
    rng = np.random.default_rng(seed)
    return fock.DensityMatrix(mat=random_interior_density(dim, support, rng))


class TestEvolveLindbladOnly:
    """The dissipator alone: evolve_analytic at omega = 0."""

    @staticmethod
    def evolve(rho0, mu, nu, t):
        return propagator.evolve_analytic(rho0, fock.ModelParams(omega=0.0, mu=mu, nu=nu), t)

    def test_t_zero_returns_state_exactly(self):
        rho0 = fock.coherent_state(1.0, trunc_of(14))
        out = self.evolve(rho0, 1.3, 0.2, 0.0)
        np.testing.assert_array_equal(out.mat, rho0.mat)

    def test_vacuum_fixed_point_without_pump(self):
        rho0 = fock.fock_state(0, trunc_of(8))
        out = self.evolve(rho0, 1.0, 0.0, 2.0)
        np.testing.assert_allclose(out.mat, rho0.mat, atol=1e-15)

    def test_single_excitation_decay_law(self):
        # |1><1| -> e^{-mu t}|1><1| + (1 - e^{-mu t})|0><0|; checked against
        # the closed form and the superoperator-exponential oracle.
        dim = 8
        rho0 = fock.fock_state(1, trunc_of(dim))
        for mu, t in [(1.0, 0.5), (1.0, 2.0), (0.3, 3.0)]:
            out = self.evolve(rho0, mu, 0.0, t)
            expected = np.zeros((dim, dim), dtype=complex)
            expected[0, 0] = 1 - np.exp(-mu * t)
            expected[1, 1] = np.exp(-mu * t)
            np.testing.assert_allclose(out.mat, expected, atol=1e-13)
            oracle = liouville.evolve_numeric_expm(
                rho0, fock.ModelParams(mu=mu, nu=0.0), t
            )
            np.testing.assert_allclose(out.mat, oracle.mat, atol=1e-12)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            self.evolve(fock.fock_state(0, trunc_of(4)), 1.0, 0.0, -1.0)

    def test_rejects_invalid_state(self):
        bad = fock.DensityMatrix(mat=np.diag([0.7, 0.7, -0.4, 0.0]).astype(complex))
        with pytest.raises(fock.ValidationError):
            self.evolve(bad, 1.0, 0.0, 1.0)


class TestEvolveAnalytic:
    def test_t_zero_returns_state_exactly(self):
        rho0 = fock.thermal_state(0.4, trunc_of(16))
        out = propagator.evolve_analytic(rho0, fock.ModelParams(omega=3, mu=1, nu=0.2), 0.0)
        np.testing.assert_array_equal(out.mat, rho0.mat)

    def test_diagonal_state_ignores_rotation(self):
        # Diagonal rho commutes with N, so the e^{-i w t N} factors cancel
        # and the full evolution equals the dissipator-only one.
        rho0 = fock.thermal_state(0.4, trunc_of(16))
        full = propagator.evolve_analytic(rho0, fock.ModelParams(omega=4.2, mu=0.8, nu=0.3), 0.9)
        lindblad = propagator.evolve_analytic(rho0, fock.ModelParams(omega=0.0, mu=0.8, nu=0.3), 0.9)
        np.testing.assert_allclose(full.mat, lindblad.mat, atol=1e-15)

    def test_coherent_state_against_expm_oracle(self):
        trunc = trunc_of(24, support=9)
        rho0 = fock.coherent_state(1.0, trunc)
        params = fock.ModelParams(omega=2 * np.pi, mu=0.5, nu=0.0)
        out = propagator.evolve_analytic(rho0, params, 1.0)
        oracle = liouville.evolve_numeric_expm(rho0, params, 1.0)
        assert observables.frobenius_distance(out, oracle) <= 1e-8

    def test_populations_independent_of_omega(self):
        rho0 = fock.coherent_state(1.2, trunc_of(20, support=9))
        diags = []
        for omega in (0.0, 1.0, 10.0):
            out = propagator.evolve_analytic(
                rho0, fock.ModelParams(omega=omega, mu=0.7, nu=0.2), 1.1
            )
            diags.append(np.real(np.diag(out.mat)))
        np.testing.assert_allclose(diags[0], diags[1], atol=1e-12)
        np.testing.assert_allclose(diags[0], diags[2], atol=1e-12)

    def test_output_hermitian_and_nearly_pure_trace(self):
        # Random interior states carry O(1) weight at their support edge, so
        # the guard band is sized for the pump (nu t ~ 0.45 needs ~18 levels).
        rho0 = interior_state(28, 8, seed=1)
        out = propagator.evolve_analytic(rho0, fock.ModelParams(omega=1, mu=1, nu=0.3), 1.5)
        assert np.abs(out.mat - out.mat.conj().T).max() <= 1e-12
        assert abs(np.trace(out.mat).real - 1.0) <= 1e-8
        assert observables.purity(out) <= 1.0 + 1e-10

    def test_semigroup_property(self):
        rho0 = interior_state(26, 8, seed=2)
        params = fock.ModelParams(omega=2.0, mu=0.9, nu=0.2)
        stepped = propagator.evolve_analytic(
            propagator.evolve_analytic(rho0, params, 0.6), params, 0.9
        )
        direct = propagator.evolve_analytic(rho0, params, 1.5)
        assert observables.frobenius_distance(stepped, direct) <= 1e-8

    def test_theta_invariance(self):
        rho0 = interior_state(14, 8, seed=3)
        outs = [
            propagator.evolve_analytic(
                rho0, fock.ModelParams(omega=1.5, mu=1.0, nu=0.4, theta=theta), 0.8
            ).mat
            for theta in (0.0, np.pi / 3, np.pi)
        ]
        np.testing.assert_allclose(outs[0], outs[1], atol=1e-12)
        np.testing.assert_allclose(outs[0], outs[2], atol=1e-12)

    def test_degenerate_rates_run_through_limit_branch(self):
        rho0 = fock.fock_state(2, trunc_of(20))
        params = fock.ModelParams(omega=1.0, mu=0.5, nu=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # must not warn: nu == mu is not gain
            out = propagator.evolve_analytic(rho0, params, 0.8)
        oracle = liouville.evolve_numeric_expm(rho0, params, 0.8)
        assert observables.frobenius_distance(out, oracle) <= 1e-8

    def test_rejects_underflowed_prefactor(self):
        # With gain, e^{(mu-nu)t/2}/F underflows to 0 once (nu-mu)t passes
        # ~745; a zero prefactor would erase the state.
        rho0 = fock.fock_state(0, trunc_of(8))
        params = fock.ModelParams(mu=0.2, nu=1.5)
        with pytest.warns(fock.GainWarning), pytest.raises(ValueError, match="prefactor"):
            propagator.evolve_analytic_grid(rho0, params, [0.0, 1.0, 1000.0])

    def test_gain_regime_warns(self):
        rho0 = fock.fock_state(0, trunc_of(16))
        with pytest.warns(fock.GainWarning):
            propagator.evolve_analytic(rho0, fock.ModelParams(mu=0.2, nu=0.6), 0.5)


class TestHermiticityGuard:
    """The guard on the series' output against the input's own Hermiticity."""

    PARAMS = fock.ModelParams(omega=2 * np.pi, mu=1.0, nu=0.4)

    @staticmethod
    def runs(rho0, params, t):
        pure_loss = dataclasses.replace(params, nu=0.0)
        return {
            "analytic": lambda: propagator.evolve_analytic(rho0, params, t),
            "certified": lambda: propagator.evolve_analytic_grid(rho0, params, [t], certify=True),
            "nu-zero": lambda: propagator.evolve_nu_zero(rho0, pure_loss, t),
        }

    @pytest.mark.parametrize("method", ["analytic", "certified", "nu-zero"])
    @pytest.mark.parametrize("eps", [5e-12, 9e-11])
    def test_evolves_what_validate_density_accepts(self, method, eps):
        # validate_density passes a deviation up to 1e-10; the series
        # carries it into its output, where a guard of 1e-12 alone refused it.
        trunc = fock.TruncationConfig.for_support(5)
        mat = fock.coherent_state(1.0, trunc).mat.copy()
        mat[0, 1] += eps * 1j
        assert fock.validate_density(mat, TIGHT_TOLERANCES).hermitian_ok
        rho0 = fock.DensityMatrix(mat=mat)
        self.runs(rho0, self.PARAMS, 1.3)[method]()

    @pytest.mark.parametrize("method", ["analytic", "certified", "nu-zero"])
    def test_refuses_series_error_on_a_hermitian_input(self, monkeypatch, method):
        series = propagator._series
        monkeypatch.setattr(propagator, "_series", lambda *args: series(*args) + 1e-9j)
        trunc = fock.TruncationConfig.for_support(5)
        # Both mirrors: the matrix layout of a coherent state, the diagonal
        # one of a Fock mixture, whose every slot is its own mirror.
        mixture = fock.mixture_state([(0, 0.5), (3, 0.5)], trunc)
        for rho0 in (fock.coherent_state(1.0, trunc), mixture):
            with pytest.raises(ArithmeticError, match="lost Hermiticity: deviation 2.000e-09"):
                self.runs(rho0, self.PARAMS, 1.3)[method]()


class TestEvolveNuZero:
    def test_vacuum_fixed(self):
        rho0 = fock.fock_state(0, trunc_of(6))
        out = propagator.evolve_nu_zero(rho0, fock.ModelParams(omega=2.0, mu=0.7), 3.0)
        np.testing.assert_allclose(out.mat, rho0.mat, atol=1e-15)

    def test_half_life_populations(self):
        # mu = ln 2, t = 1: e^{-mu t} = 1/2 exactly.
        rho0 = fock.fock_state(1, trunc_of(6))
        out = propagator.evolve_nu_zero(rho0, fock.ModelParams(mu=np.log(2.0)), 1.0)
        expected = np.zeros((6, 6), dtype=complex)
        expected[0, 0] = 0.5
        expected[1, 1] = 0.5
        np.testing.assert_allclose(out.mat, expected, atol=1e-15)

    def test_pure_rotation_flips_coherence_sign(self):
        # mu = 0 reduces to the unitary rotation e^{-i w t N} rho e^{+i w t N};
        # at w t = pi the 01-coherence picks up e^{i pi} = -1.
        mat = np.zeros((4, 4), dtype=complex)
        mat[:2, :2] = 0.5
        rho0 = fock.DensityMatrix(mat=mat)
        out = propagator.evolve_nu_zero(rho0, fock.ModelParams(omega=np.pi), 1.0)
        expected = mat.copy()
        expected[0, 1] = -0.5
        expected[1, 0] = -0.5
        np.testing.assert_allclose(out.mat, expected, atol=1e-15)

    def test_matches_analytic_on_random_instances(self):
        rng = np.random.default_rng(10)
        for seed in range(10):
            rho0 = interior_state(12, 8, seed=100 + seed)
            mu = float(rng.uniform(0.05, 2.0))
            omega = float(rng.uniform(0.0, 5.0))
            t = float(rng.uniform(0.0, 3.0))
            params = fock.ModelParams(omega=omega, mu=mu, nu=0.0)
            direct = propagator.evolve_nu_zero(rho0, params, t)
            via_full = propagator.evolve_analytic(rho0, params, t)
            assert np.abs(direct.mat - via_full.mat).max() <= 1e-12

    def test_mean_occupation_decays_exponentially(self):
        rho0 = interior_state(14, 8, seed=4)
        n0 = observables.expect_n(rho0)
        for mu, omega, t in [(0.8, 0.0, 1.0), (0.8, 3.0, 2.5), (1.5, 1.0, 0.4)]:
            out = propagator.evolve_nu_zero(rho0, fock.ModelParams(omega=omega, mu=mu), t)
            assert abs(observables.expect_n(out) - np.exp(-mu * t) * n0) <= 1e-8
        # The law is verified against both oracles as well, not assumed.
        mu, omega, t = 0.8, 3.0, 1.0
        params = fock.ModelParams(omega=omega, mu=mu, nu=0.0)
        target = np.exp(-mu * t) * n0
        assert abs(observables.expect_n(liouville.evolve_numeric_expm(rho0, params, t)) - target) <= 1e-8
        steps = 2 * liouville.stability_steps(params, rho0.dim, t)
        assert abs(observables.expect_n(liouville.evolve_numeric_rk4(rho0, params, t, steps)) - target) <= 1e-8



def _dense_series(x, lower_weight, left_exp, right_exp, raise_weight, scale, theta):
    """The closed-form series with dense operator products, theta != 0 allowed."""
    d = x.shape[0]
    ops = fock.build_operators(d, theta=theta)

    def series(mat, weight, left, right):
        total = mat.copy()
        term = mat
        for m in range(1, d):
            term = (weight / m) * (left @ term @ right)
            total = total + term
        return total

    levels = np.arange(d)
    inner = series(x, lower_weight, ops.a, ops.a_dagger)
    core = np.exp(left_exp * levels)[:, None] * inner * np.exp(right_exp * levels)[None, :]
    return scale * series(core, raise_weight, ops.a_dagger, ops.a)


def _on_matrix(layout, evolved):
    """Evolved layout values (times, ...) as (times, n, n) matrices."""
    n = layout.values.shape[-1]
    out = np.zeros((len(evolved), n, n), dtype=complex)
    out[:, layout.i, layout.j] = evolved
    return out


def _series_on_matrix(x, lower_weight, left_exp, raise_weight=0.0, scale=1.0):
    """propagator._series at one time, on a matrix, returning a matrix."""
    layout = propagator._layout(x)
    evolved = propagator._series(
        layout, *(np.array([w]) for w in (lower_weight, left_exp, raise_weight, scale))
    )
    return _on_matrix(layout, evolved)[0]


def _band_matrix(dim, width, rng):
    """Hermitian, diagonally dominant (so PSD) and unit trace, nonzero exactly up to |i-j| = width."""
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    x = x + x.conj().T
    i, j = np.indices((dim, dim))
    x[np.abs(i - j) > width] = 0.0
    np.fill_diagonal(x, np.abs(x).sum(axis=1) + 1.0)
    return x / np.trace(x).real


def _equivalence_inputs(dim):
    """(name, matrix, is_state): the shapes the band layout must get right."""
    rng = np.random.default_rng(dim)
    single_up = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim - 1)
    single_up[idx, idx + 1] = rng.normal(size=dim - 1) + 1j * rng.normal(size=dim - 1)
    corner = np.zeros((dim, dim), dtype=complex)
    corner[dim - 1, 0] = 0.7 - 0.3j  # the one entry of diagonal k = -(D-1)
    full = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    full = full @ full.conj().T
    return [
        ("zero", np.zeros((dim, dim), dtype=complex), False),
        ("diagonal", np.diag(rng.dirichlet(np.ones(dim))).astype(complex), True),
        ("k=1", single_up, False),
        ("k=-(D-1)", corner, False),
        ("band (D-1)//2", _band_matrix(dim, (dim - 1) // 2, rng), True),
        ("band D//2", _band_matrix(dim, dim // 2, rng), True),
        ("full", full / np.trace(full).real, True),
    ]


_EQUIVALENCE_CASES = [
    pytest.param(dim, name, mat, is_state, id=f"D{dim}-{name}")
    for dim in (2, 7, 24, 64)
    for name, mat, is_state in _equivalence_inputs(dim)
]


class TestBandSeriesEquivalence:
    """The band routine against dense a^m X a^dag^m products with theta != 0."""

    PARAMS = fock.ModelParams(omega=2.3, mu=1.0, nu=0.4, theta=0.9)
    T = 0.8

    def assert_close(self, got, want, x):
        scale = max(1.0, float(np.linalg.norm(x)))
        assert np.abs(got - want).max() <= 1e-14 * scale

    @pytest.mark.parametrize("dim, name, mat, is_state", _EQUIVALENCE_CASES)
    def test_full_series(self, dim, name, mat, is_state):
        params, t = self.PARAMS, self.T
        coeffs = su11.disentangling_coefficients(params.mu, params.nu, t)
        prefactor = coeffs.prefactor
        log_f, phase = coeffs.log_f, params.omega * t
        left, right = complex(-log_f, -phase), complex(-log_f, phase)
        want = _dense_series(mat, coeffs.e_coef, left, right, coeffs.g_coef, prefactor, params.theta)
        got = _series_on_matrix(mat, coeffs.e_coef, left, coeffs.g_coef, prefactor)
        self.assert_close(got, want, mat)
        if is_state:
            rho0 = fock.DensityMatrix(mat=mat)
            self.assert_close(propagator.evolve_analytic(rho0, params, t).mat, want, mat)

    @pytest.mark.parametrize("dim, name, mat, is_state", _EQUIVALENCE_CASES)
    def test_lowering_only(self, dim, name, mat, is_state):
        # evolve_nu_zero's series: no raising part, no prefactor.
        params = dataclasses.replace(self.PARAMS, nu=0.0)
        mu, omega, t = params.mu, params.omega, self.T
        weight = -np.expm1(-mu * t)
        exponent = -(0.5 * mu + 1j * omega) * t
        want = _dense_series(mat, weight, exponent, np.conj(exponent), 0.0, 1.0, self.PARAMS.theta)
        self.assert_close(_series_on_matrix(mat, weight, exponent), want, mat)
        if is_state:
            rho0 = fock.DensityMatrix(mat=mat)
            self.assert_close(propagator.evolve_nu_zero(rho0, params, t).mat, want, mat)


class TestTruncationBehaviour:
    def test_block_stability_of_series(self):
        # The evolved matrix at dim D equals the top-left block of the
        # evolution at dim 2D exactly: raising chains that leave the block
        # never come back, so truncating the series only discards population
        # above the cutoff (it never corrupts retained entries). Every
        # retained entry goes through the same elementwise arithmetic at D
        # and 2D, so the agreement is bit for bit.
        rho0 = interior_state(12, 8, seed=5)
        params = fock.ModelParams(omega=1.0, mu=0.5, nu=0.5)
        small = propagator.evolve_analytic(rho0, params, 2.0)
        big_mat = np.zeros((24, 24), dtype=complex)
        big_mat[:12, :12] = rho0.mat
        big = propagator.evolve_analytic(fock.DensityMatrix(mat=big_mat), params, 2.0)
        np.testing.assert_array_equal(big.mat[:12, :12], small.mat)

    def test_escape_distance_small_for_damped_run(self):
        rho0 = fock.coherent_state(1.0, trunc_of(24, support=9))
        dist = propagator.doubled_truncation_distance(
            rho0, fock.ModelParams(omega=1.0, mu=1.0, nu=0.2), 2.0
        )
        assert dist <= 1e-9

    def test_escape_distance_flags_underprovisioned_run(self):
        rho0 = fock.fock_state(3, trunc_of(12))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dist = propagator.doubled_truncation_distance(
                rho0, fock.ModelParams(omega=0.0, mu=0.5, nu=0.5), 3.0
            )
        assert dist > 1e-6


_PROPERTY_TRUNC = trunc_of(16, support=7)


@st.composite
def initial_states(draw):
    """A coherent state or a Fock mixture supported on levels 0..7 of D = 16."""
    if draw(st.booleans()):
        r = draw(st.floats(0.0, 1.5))
        phase = draw(st.floats(0.0, 2 * np.pi))
        return fock.coherent_state(r * np.exp(1j * phase), _PROPERTY_TRUNC)
    levels = draw(st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True))
    raw = draw(st.lists(st.floats(0.1, 1.0), min_size=len(levels), max_size=len(levels)))
    weights = [w / sum(raw) for w in raw[:-1]]
    weights.append(1.0 - sum(weights))
    return fock.mixture_state(list(zip(levels, weights)), _PROPERTY_TRUNC)


class TestAnalyticOutputIsAState:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        rho0=initial_states(),
        mu=st.floats(0.0, 3.0),
        pump_fraction=st.floats(0.0, 1.0),
        omega=st.floats(0.0, 3.0),
        t=st.floats(0.0, 3.0),
    )
    def test_certified_output_is_a_density_matrix(self, rho0, mu, pump_fraction, omega, t):
        params = fock.ModelParams(omega=omega, mu=mu, nu=pump_fraction * mu)
        assume(
            propagator.doubled_truncation_distance(rho0, params, t)
            <= propagator.TRUNCATION_DOUBLING_TOL
        )
        tols = config.DEFAULT_TOLERANCES
        out = propagator.evolve_analytic(rho0, params, t)
        report = fock.validate_density(out, tols)
        assert report.hermitian_ok, report.describe()
        assert report.positive_ok, report.describe()
        assert np.trace(out.mat).real <= 1.0 + tols.trace_tol


def _zero_padded(rho0):
    d = rho0.dim
    mat = np.zeros((2 * d, 2 * d), dtype=complex)
    mat[:d, :d] = rho0.mat
    return fock.DensityMatrix(mat=mat)


class TestAnalyticProperties:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        rho0=initial_states(),
        mu=st.floats(0.0, 3.0),
        pump_fraction=st.floats(0.0, 1.0),
        omega=st.floats(0.0, 3.0),
        t=st.floats(0.0, 3.0),
    )
    def test_block_stable_under_zero_padding(self, rho0, mu, pump_fraction, omega, t):
        params = fock.ModelParams(omega=omega, mu=mu, nu=pump_fraction * mu)
        small = propagator.evolve_analytic(rho0, params, t)
        big = propagator.evolve_analytic(_zero_padded(rho0), params, t)
        np.testing.assert_array_equal(big.mat[: rho0.dim, : rho0.dim], small.mat)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        rho0=initial_states(),
        mu=st.floats(0.0, 3.0),
        pump_fraction=st.floats(0.0, 1.0),
        omega=st.floats(0.0, 3.0),
        s=st.floats(0.0, 1.5),
        t=st.floats(0.0, 1.5),
    )
    def test_semigroup(self, rho0, mu, pump_fraction, omega, s, t):
        # Evolving for s + t equals evolving for s and then for t, wherever
        # the certificate passes at s + t. The closed form is the top block
        # of the untruncated evolution, so the intermediate state is held at
        # 2D: at D it would lack the weight above the cutoff (up to the
        # certificate's 1e-9), which flows back down during t.
        params = fock.ModelParams(omega=omega, mu=mu, nu=pump_fraction * mu)
        assume(
            propagator.doubled_truncation_distance(rho0, params, s + t)
            <= propagator.TRUNCATION_DOUBLING_TOL
        )
        whole = propagator.evolve_analytic(rho0, params, s + t).mat
        mid = propagator.evolve_analytic(_zero_padded(rho0), params, s)
        two_step = propagator.evolve_analytic(mid, params, t).mat[: rho0.dim, : rho0.dim]
        assert np.abs(two_step - whole).max() <= 1e-12 * np.abs(whole).max()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        rho0=initial_states(),
        mu=st.floats(0.0, 3.0),
        omega=st.floats(0.0, 3.0),
        t=st.floats(0.0, 3.0),
    )
    def test_nu_zero_matches_evolve_nu_zero(self, rho0, mu, omega, t):
        params = fock.ModelParams(omega=omega, mu=mu, nu=0.0)
        via_full = propagator.evolve_analytic(rho0, params, t)
        direct = propagator.evolve_nu_zero(rho0, params, t)
        assert np.abs(via_full.mat - direct.mat).max() <= 1e-12


_LARGE_T_TRUNC = trunc_of(48, support=7)


@st.composite
def large_t_states(draw):
    """A coherent state or a Fock state on levels 0..7 of D = 48."""
    if draw(st.booleans()):
        r = draw(st.floats(0.0, 1.5))
        phase = draw(st.floats(0.0, 2 * np.pi))
        return fock.coherent_state(r * np.exp(1j * phase), _LARGE_T_TRUNC)
    return fock.fock_state(draw(st.integers(0, 7)), _LARGE_T_TRUNC)


class TestLargeTime:
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(
        rho0=large_t_states(),
        mu=st.floats(0.5, 3.0),
        pump_fraction=st.floats(0.0, 0.5),
        omega=st.floats(0.0, 1e3),
        t=st.floats(1e3, 1e9),
    )
    def test_certified_closed_form_reaches_thermal_state(self, rho0, mu, pump_fraction, omega, t):
        # (mu - nu) t >= 250, so every trace of rho0 is gone: the state is
        # thermal with n_bar = nu/(mu - nu) <= 1, whose weight above D = 48
        # is below 4e-15. Past (mu - nu) t ~ 1,400, F itself overflows.
        params = fock.ModelParams(omega=omega, mu=mu, nu=pump_fraction * mu)
        (out,), escapes = propagator.evolve_analytic_grid(rho0, params, [t], certify=True)
        assert escapes[0] <= propagator.TRUNCATION_DOUBLING_TOL
        n_bar = params.nu / (params.mu - params.nu)
        thermal = fock.thermal_state(n_bar, _LARGE_T_TRUNC)
        assert np.abs(out - thermal.mat).max() <= 1e-13


@st.composite
def grid_states(draw):
    """A state from initial_states(), or a random one nonzero up to |i - j| = width.

    The random one may hold a signed zero inside its band, which a time
    whose series has stopped must keep bit for bit.
    """
    if draw(st.booleans()):
        return draw(initial_states())
    width = draw(st.integers(1, 6))
    mat = _band_matrix(16, width, np.random.default_rng(draw(st.integers(0, 2**16))))
    if draw(st.booleans()):
        mat[0, 1], mat[1, 0] = complex(-0.0, -0.0), complex(-0.0, 0.0)
    return fock.DensityMatrix(mat=mat)


def _bits(states):
    return [state.tobytes() for state in states]


class TestAnalyticGrid:
    """evolve_analytic_grid against a loop of one-time runs, bit for bit."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        rho0=grid_states(),
        mu=st.floats(0.0, 3.0),
        pump=st.sampled_from(["none", "equal", "fraction"]),
        fraction=st.floats(0.0, 1.0),
        omega=st.floats(0.0, 3.0),
        times=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=12),
        zero_at=st.integers(0, 12),
        chunk_bytes=st.sampled_from([1, 5_000, 50_000, propagator.BAND_CHUNK_BYTES]),
    )
    def test_grid_equals_per_time_loop(
        self, rho0, mu, pump, fraction, omega, times, zero_at, chunk_bytes
    ):
        # pump "none" is nu = 0 (no raising series), "equal" is mu = nu (the
        # degenerate branch at every t); t = 0 (E = G = 0) sits inside the batch.
        nu = {"none": 0.0, "equal": mu, "fraction": fraction * mu}[pump]
        params = fock.ModelParams(omega=omega, mu=mu, nu=nu)
        times = times[:zero_at] + [0.0] + times[zero_at:]
        with mock.patch.object(propagator, "BAND_CHUNK_BYTES", chunk_bytes):
            plain, none = propagator.evolve_analytic_grid(rho0, params, times)
            certified, escapes = propagator.evolve_analytic_grid(
                rho0, params, times, certify=True
            )
        assert none is None
        loop = [propagator.evolve_analytic(rho0, params, t).mat for t in times]
        assert _bits(plain) == _bits(loop)
        certified_loop = [
            propagator.evolve_analytic_grid(rho0, params, [t], certify=True) for t in times
        ]
        assert _bits(certified) == _bits(states[0] for states, _ in certified_loop)
        assert list(escapes) == [escape[0] for _, escape in certified_loop]
        # Block stability: the dim-D states of the 2D run are the dim-D run's.
        # Only zeros off the band may differ in sign, which equality ignores.
        np.testing.assert_array_equal(certified, plain)
        np.testing.assert_array_equal(plain[times.index(0.0)], rho0.mat)

    def test_long_grid_spans_several_chunks(self):
        # A 101-point grid at D = 24 on a full state: four chunks at the
        # default budget. The escape distance is checked against its
        # definition, a dim-2D run minus the zero-padded dim-D run.
        rho0 = fock.coherent_state(1.0 + 0.5j, trunc_of(24, support=9))
        params = fock.ModelParams(omega=2 * np.pi, mu=1.0, nu=0.4, theta=0.3)
        times = np.linspace(0.0, 3.0, 101)
        band_bytes = propagator._layout(rho0.mat).values.nbytes
        assert 1 < times.size * band_bytes / propagator.BAND_CHUNK_BYTES < times.size
        plain, _ = propagator.evolve_analytic_grid(rho0, params, times)
        certified, escapes = propagator.evolve_analytic_grid(rho0, params, times, certify=True)
        loop = [propagator.evolve_analytic(rho0, params, float(t)).mat for t in times]
        assert _bits(plain) == _bits(loop)
        for t, state, got, escape in zip(times[::10], loop[::10], certified[::10], escapes[::10]):
            np.testing.assert_array_equal(got, state)
            big = propagator.evolve_analytic(_zero_padded(rho0), params, float(t)).mat
            big[:24, :24] -= state
            assert escape == pytest.approx(np.linalg.norm(big), rel=1e-12, abs=1e-300)

    def test_checks_every_time(self):
        rho0 = fock.fock_state(1, trunc_of(6))
        with pytest.raises(ValueError, match="non-negative"):
            propagator.evolve_analytic_grid(rho0, fock.ModelParams(mu=1.0), [0.0, 1.0, -0.5])


def _skew_reference(rho):
    """(cols, band) with band[r, i] = rho[i, cols[r, i]]: the wrapped skewed band.

    Rows k in {-K..K} mod D, K being the widest nonzero diagonal of rho, or
    all D rows once 2K + 1 >= D; a full-width state then wraps, row k
    holding diagonal k for i < D - k followed by diagonal k - D.
    """
    d = rho.shape[0]
    nz_rows, nz_cols = np.nonzero(rho)
    width = int(np.abs(nz_rows - nz_cols).max()) if nz_rows.size else 0
    offsets = np.arange(-width, width + 1) % d if 2 * width + 1 < d else np.arange(d)
    levels = np.arange(d)
    cols = (levels + offsets[:, None]) % d
    return cols, rho[levels, cols]


def _full_width_band_series(band, cols, lower_weight, left_exp, raise_weight, scale):
    """The band series with every term held over the whole (times x rows x D) array.

    The reference for the windowed terms of propagator._series: each term
    is a fresh zero array whose shifted part is filled in, scaled, tested
    and added over the full row. On the wrapped band of
    :func:`_skew_reference` it runs any state, full-width ones included.
    """
    d = band.shape[-1]
    levels = np.arange(d)
    shape = (len(scale),) + band.shape
    lower_w = np.sqrt((levels[:-1] + 1.0) * (cols[:, :-1] + 1.0))
    lower_w[cols[:, :-1] == d - 1] = 0.0
    raise_w = np.sqrt(levels[1:] * cols[:, 1:].astype(float))

    def series(z, weight, shift_w, src, dst):
        total = np.broadcast_to(z, shape).copy()
        term = z
        weight = weight[:, None, None]
        live = np.ones(shape[0], dtype=bool)
        for m in range(1, d):
            shifted = np.zeros(shape, dtype=complex)
            np.multiply(shift_w, term[..., src], out=shifted[..., dst])
            term = np.multiply(weight / m, shifted, out=shifted)
            live &= term.view(float).any(axis=(1, 2))
            if not live.any():
                break
            np.add(total, term, out=total, where=live[:, None, None])
        return total

    out = series(band, lower_weight, lower_w, slice(1, None), slice(None, -1))
    left = np.exp(left_exp[:, None] * levels)[:, None, :]
    out = left * out * np.exp(left_exp.conj()[:, None] * levels)[:, cols]
    if raise_weight.any():
        out = series(out, raise_weight, raise_w, slice(None, -1), slice(1, None))
    return scale[:, None, None] * out


def _analytic_weights(params, times):
    """The series weights evolve_analytic_grid builds for the times."""
    coeffs = [su11.disentangling_coefficients(params.mu, params.nu, t) for t in times]
    return (
        np.array([c.e_coef for c in coeffs]),
        np.array([complex(-c.log_f, -params.omega * t) for c, t in zip(coeffs, times)]),
        np.array([c.g_coef for c in coeffs]),
        np.array([c.prefactor for c in coeffs]),
    )


def _series_matches_reference(rho0, params, times):
    """propagator._series against the full-width wrapped band, as matrices.

    Returns the row step of the layout the series ran on.
    """
    weights = _analytic_weights(params, times)
    layout = propagator._layout(rho0.mat)
    got = _on_matrix(layout, propagator._series(layout, *weights))
    cols, band = _skew_reference(rho0.mat)
    want = np.zeros_like(got)
    want[:, np.arange(rho0.dim), cols] = _full_width_band_series(band, cols, *weights)
    assert np.array_equal(got, want)
    return layout.row_step


def _full_rank_state(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return fock.DensityMatrix(mat=mat / np.trace(mat).real)


_COHERENT_24 = fock.coherent_state(1.5 * np.exp(0.7j), trunc_of(24))
_DAMPED = fock.ModelParams(omega=2 * np.pi, mu=1.0, nu=0.4)
# name: (state, params, row step of the layout its series runs on)
_WINDOW_CASES = {
    "coherent": (_COHERENT_24, _DAMPED, 1),
    "mixture below D": (
        fock.mixture_state([(0, 0.5), (3, 0.3), (7, 0.2)], trunc_of(24, support=7)),
        _DAMPED,
        0,
    ),
    "padded to 2D": (_zero_padded(_COHERENT_24), _DAMPED, 1),
    "random full rank": (_full_rank_state(24, 5), _DAMPED, 1),
    "high Fock level": (fock.fock_state(20, trunc_of(24)), _DAMPED, 0),
    "tridiagonal": (
        fock.DensityMatrix(mat=_band_matrix(24, 1, np.random.default_rng(3))),
        _DAMPED,
        1,
    ),
    "nu = 0": (_COHERENT_24, fock.ModelParams(omega=2 * np.pi, mu=1.0, nu=0.0), 1),
    "mu = 0": (_COHERENT_24, fock.ModelParams(omega=2 * np.pi, mu=0.0, nu=0.4), 1),
}


class TestWindowedBandSeries:
    """_series on its layout against the full-width wrapped band, value for value."""

    @pytest.mark.parametrize("name", list(_WINDOW_CASES))
    def test_equals_full_width_series(self, name):
        rho0, params, row_step = _WINDOW_CASES[name]
        assert _series_matches_reference(rho0, params, [0.3, 1.3, 3.0]) == row_step

    def test_mixed_stops_in_one_batch(self):
        # t = 0 stops both series at m = 1 (E = G = 0), t = 1e-300 a few terms
        # later by underflow; t = 1e-3 and t = 3 run to the nilpotent cutoff.
        times = [0.0, 1e-300, 1e-3, 3.0]
        for rho0 in (_COHERENT_24, _zero_padded(_COHERENT_24), _full_rank_state(24, 6)):
            assert _series_matches_reference(rho0, _DAMPED, times) == 1


class TestLayoutChoice:
    """The one-row diagonal layout exactly for a diagonal state, the matrix for any other."""

    def layout_of(self, mat):
        return propagator._layout(np.asarray(mat, dtype=complex))

    def test_diagonal_states_keep_the_band(self):
        for rho0 in (fock.fock_state(0, trunc_of(8)), fock.mixture_state([(1, 0.5), (6, 0.5)], trunc_of(8))):
            layout = self.layout_of(rho0.mat)
            assert layout.row_step == 0
            assert layout.values.shape == (1, 8)

    def test_non_diagonal_takes_the_matrix_whatever_its_width(self):
        # Levels 2..4 occupied (w = 3) with K = 1: narrow, but not diagonal.
        mat = np.zeros((8, 8))
        mat[2:5, 2:5] = np.eye(3) + np.eye(3, k=1) + np.eye(3, k=-1)
        layout = self.layout_of(mat)
        assert layout.row_step == 1
        assert np.array_equal(layout.values, mat)

    def test_full_width_takes_the_matrix(self):
        # K = 2 on the same three levels: 2K + 1 = 5 > w = 3.
        mat = np.zeros((8, 8))
        mat[2:5, 2:5] = 1.0
        layout = self.layout_of(mat)
        assert layout.row_step == 1
        assert np.array_equal(layout.values, mat)

    def test_padding_keeps_the_choice(self):
        rho0 = _COHERENT_24
        plain, padded = propagator._layout(rho0.mat), propagator._layout(rho0.mat, 48)
        assert plain.row_step == padded.row_step == 1
        assert padded.values.shape == (48, 48)
        assert np.array_equal(padded.values[:24, :24], rho0.mat)
        assert not padded.values[24:].any() and not padded.values[:, 24:].any()
        mixture = fock.mixture_state([(0, 0.5), (3, 0.5)], trunc_of(24, support=3))
        band = propagator._layout(mixture.mat, 48)
        assert band.row_step == 0 and band.values.shape == (1, 48)


class TestNuZeroGrid:
    """evolve_nu_zero_grid against a loop of one-time runs, bit for bit."""

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(
        rho0=grid_states(),
        mu=st.floats(0.0, 3.0),
        omega=st.floats(0.0, 3.0),
        times=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=12),
        chunk_bytes=st.sampled_from([1, 5_000, propagator.BAND_CHUNK_BYTES]),
    )
    def test_grid_equals_per_time_loop(self, rho0, mu, omega, times, chunk_bytes):
        params = fock.ModelParams(omega=omega, mu=mu)
        with mock.patch.object(propagator, "BAND_CHUNK_BYTES", chunk_bytes):
            grid = propagator.evolve_nu_zero_grid(rho0, params, times)
        loop = [propagator.evolve_nu_zero(rho0, params, t).mat for t in times]
        assert _bits(grid) == _bits(loop)

    def test_checks_every_time(self):
        rho0 = fock.fock_state(1, trunc_of(6))
        with pytest.raises(ValueError, match="non-negative"):
            propagator.evolve_nu_zero_grid(rho0, fock.ModelParams(mu=1.0), [0.0, 1.0, -0.5])

    def test_refuses_a_pump(self):
        rho0 = fock.fock_state(1, trunc_of(6))
        with pytest.raises(ValueError, match="^the pure-loss series requires nu = 0, got nu = 0.4"):
            propagator.evolve_nu_zero_grid(rho0, fock.ModelParams(mu=1.0, nu=0.4), [1.0])
