import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qdho import config, fock, liouville, observables, propagator, su11
from qdho.verification import random_interior_density


def trunc_of(dim, support=None):
    support = dim - 1 if support is None else support
    return fock.TruncationConfig(dim=dim, support_max=support, guard=dim - 1 - support)


def interior_state(dim, support, seed):
    rng = np.random.default_rng(seed)
    return fock.DensityMatrix(
        mat=random_interior_density(dim, support, rng), trunc=trunc_of(dim, support)
    )


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
        bad = fock.DensityMatrix(
            mat=np.diag([0.7, 0.7, -0.4, 0.0]).astype(complex), trunc=trunc_of(4)
        )
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
        # With gain, e^{(mu-nu)t/2}/F underflows to 0 long before |mu-nu|t/2
        # reaches the overflow guard; a zero prefactor would erase the state.
        rho0 = fock.fock_state(0, trunc_of(8))
        params = fock.ModelParams(mu=0.2, nu=1.5)
        with pytest.warns(propagator.GainWarning), pytest.raises(ValueError, match="prefactor"):
            propagator.evolve_analytic_grid(rho0, params, [0.0, 1.0, 1000.0])

    def test_gain_regime_warns(self):
        rho0 = fock.fock_state(0, trunc_of(16))
        with pytest.warns(propagator.GainWarning):
            propagator.evolve_analytic(rho0, fock.ModelParams(mu=0.2, nu=0.6), 0.5)


class TestEvolveNuZero:
    def test_vacuum_fixed(self):
        rho0 = fock.fock_state(0, trunc_of(6))
        out = propagator.evolve_nu_zero(rho0, 0.7, 2.0, 3.0)
        np.testing.assert_allclose(out.mat, rho0.mat, atol=1e-15)

    def test_half_life_populations(self):
        # mu = ln 2, t = 1: e^{-mu t} = 1/2 exactly.
        rho0 = fock.fock_state(1, trunc_of(6))
        out = propagator.evolve_nu_zero(rho0, np.log(2.0), 0.0, 1.0)
        expected = np.zeros((6, 6), dtype=complex)
        expected[0, 0] = 0.5
        expected[1, 1] = 0.5
        np.testing.assert_allclose(out.mat, expected, atol=1e-15)

    def test_pure_rotation_flips_coherence_sign(self):
        # mu = 0 reduces to the unitary rotation e^{-i w t N} rho e^{+i w t N};
        # at w t = pi the 01-coherence picks up e^{i pi} = -1.
        mat = np.zeros((4, 4), dtype=complex)
        mat[:2, :2] = 0.5
        rho0 = fock.DensityMatrix(mat=mat, trunc=trunc_of(4))
        out = propagator.evolve_nu_zero(rho0, 0.0, np.pi, 1.0)
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
            direct = propagator.evolve_nu_zero(rho0, mu, omega, t)
            via_full = propagator.evolve_analytic(
                rho0, fock.ModelParams(omega=omega, mu=mu, nu=0.0), t
            )
            assert np.abs(direct.mat - via_full.mat).max() <= 1e-12

    def test_mean_occupation_decays_exponentially(self):
        rho0 = interior_state(14, 8, seed=4)
        n0 = observables.expect_n(rho0)
        for mu, omega, t in [(0.8, 0.0, 1.0), (0.8, 3.0, 2.5), (1.5, 1.0, 0.4)]:
            out = propagator.evolve_nu_zero(rho0, mu, omega, t)
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
    ops = fock.build_operators(trunc_of(d), theta=theta)

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


def _series_on_matrix(x, lower_weight, left_exp, right_exp, raise_weight=0.0, scale=1.0):
    """propagator._band_series at one time, on a matrix, returning a matrix."""
    cols, band = propagator._skew(x)
    (evolved,) = propagator._band_series(
        band, cols, *(np.array([w]) for w in (lower_weight, left_exp, right_exp, raise_weight, scale))
    )
    out = np.zeros_like(x)
    out[np.arange(x.shape[0]), cols] = evolved
    return out


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
        prefactor = np.exp(0.5 * (params.mu - params.nu) * t) / coeffs.f_coef
        log_f, phase = np.log(coeffs.f_coef), params.omega * t
        left, right = complex(-log_f, -phase), complex(-log_f, phase)
        want = _dense_series(mat, coeffs.e_coef, left, right, coeffs.g_coef, prefactor, params.theta)
        got = _series_on_matrix(mat, coeffs.e_coef, left, right, coeffs.g_coef, prefactor)
        self.assert_close(got, want, mat)
        if is_state:
            rho0 = fock.DensityMatrix(mat=mat, trunc=trunc_of(dim))
            self.assert_close(propagator.evolve_analytic(rho0, params, t).mat, want, mat)

    @pytest.mark.parametrize("dim, name, mat, is_state", _EQUIVALENCE_CASES)
    def test_lowering_only(self, dim, name, mat, is_state):
        # evolve_nu_zero's series: no raising part, no prefactor.
        mu, omega, t = self.PARAMS.mu, self.PARAMS.omega, self.T
        weight = -np.expm1(-mu * t)
        exponent = -(0.5 * mu + 1j * omega) * t
        want = _dense_series(mat, weight, exponent, np.conj(exponent), 0.0, 1.0, self.PARAMS.theta)
        self.assert_close(_series_on_matrix(mat, weight, exponent, np.conj(exponent)), want, mat)
        if is_state:
            rho0 = fock.DensityMatrix(mat=mat, trunc=trunc_of(dim))
            self.assert_close(propagator.evolve_nu_zero(rho0, mu, omega, t).mat, want, mat)


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
        big_trunc = rho0.trunc.doubled()
        big_mat = np.zeros((24, 24), dtype=complex)
        big_mat[:12, :12] = rho0.mat
        big = propagator.evolve_analytic(
            fock.DensityMatrix(mat=big_mat, trunc=big_trunc), params, 2.0
        )
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
        report = fock.validate_density(
            out,
            hermiticity_tol=tols.hermiticity_tol,
            trace_tol=tols.trace_tol,
            positivity_tol=tols.positivity_tol,
        )
        assert report.hermitian_ok, report.describe()
        assert report.positive_ok, report.describe()
        assert np.trace(out.mat).real <= 1.0 + tols.trace_tol


def _zero_padded(rho0):
    d = rho0.dim
    mat = np.zeros((2 * d, 2 * d), dtype=complex)
    mat[:d, :d] = rho0.mat
    return fock.DensityMatrix(mat=mat, trunc=rho0.trunc.doubled())


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
        omega=st.floats(0.0, 3.0),
        t=st.floats(0.0, 3.0),
    )
    def test_nu_zero_matches_evolve_nu_zero(self, rho0, mu, omega, t):
        via_full = propagator.evolve_analytic(rho0, fock.ModelParams(omega=omega, mu=mu, nu=0.0), t)
        direct = propagator.evolve_nu_zero(rho0, mu, omega, t)
        assert np.abs(via_full.mat - direct.mat).max() <= 1e-12


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
    return fock.DensityMatrix(mat=mat, trunc=_PROPERTY_TRUNC)


def _bits(states):
    return [state.mat.tobytes() for state in states]


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
        loop = [propagator.evolve_analytic(rho0, params, t) for t in times]
        assert _bits(plain) == _bits(loop)
        certified_loop = [
            propagator.evolve_analytic_grid(rho0, params, [t], certify=True) for t in times
        ]
        assert _bits(certified) == _bits(states[0] for states, _ in certified_loop)
        assert list(escapes) == [escape[0] for _, escape in certified_loop]
        # Block stability: the dim-D states of the 2D run are the dim-D run's.
        # Only zeros off the band may differ in sign, which equality ignores.
        for got, want in zip(certified, plain):
            np.testing.assert_array_equal(got.mat, want.mat)
        np.testing.assert_array_equal(plain[times.index(0.0)].mat, rho0.mat)

    def test_long_grid_spans_several_chunks(self):
        # A 101-point grid at D = 24 on a full state: four chunks at the
        # default budget. The escape distance is checked against its
        # definition, a dim-2D run minus the zero-padded dim-D run.
        rho0 = fock.coherent_state(1.0 + 0.5j, trunc_of(24, support=9))
        params = fock.ModelParams(omega=2 * np.pi, mu=1.0, nu=0.4, theta=0.3)
        times = np.linspace(0.0, 3.0, 101)
        band_bytes = propagator._skew(rho0.mat)[1].nbytes
        assert 1 < times.size * band_bytes / propagator.BAND_CHUNK_BYTES < times.size
        plain, _ = propagator.evolve_analytic_grid(rho0, params, times)
        certified, escapes = propagator.evolve_analytic_grid(rho0, params, times, certify=True)
        loop = [propagator.evolve_analytic(rho0, params, float(t)) for t in times]
        assert _bits(plain) == _bits(loop)
        for t, state, got, escape in zip(times[::10], loop[::10], certified[::10], escapes[::10]):
            np.testing.assert_array_equal(got.mat, state.mat)
            big = propagator.evolve_analytic(_zero_padded(rho0), params, float(t)).mat
            big[:24, :24] -= state.mat
            assert escape == pytest.approx(np.linalg.norm(big), rel=1e-12, abs=1e-300)

    def test_checks_every_time(self):
        rho0 = fock.fock_state(1, trunc_of(6))
        with pytest.raises(ValueError, match="non-negative"):
            propagator.evolve_analytic_grid(rho0, fock.ModelParams(mu=1.0), [0.0, 1.0, -0.5])
