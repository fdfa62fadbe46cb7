import numpy as np
import pytest

from qdho import classical, su11


class TestAnalytic:
    def test_t_zero_is_identity(self):
        p = classical.ClassicalParams(omega=2.0, gamma=0.5)
        m = classical.evolution_matrix(p, 0.0)
        np.testing.assert_array_equal(m, np.eye(2))
        out = classical.evolve_classical_analytic(classical.PhasePoint(1.2, -0.3), p, 0.0)
        assert (out.x, out.y) == (1.2, -0.3)

    def test_undamped_quarter_period(self):
        # gamma = 0, omega = 2, t = pi/4: x = cos(pi/2) = 0, y = -2 sin(pi/2).
        p = classical.ClassicalParams(omega=2.0, gamma=0.0)
        out = classical.evolve_classical_analytic(classical.PhasePoint(1.0, 0.0), p, np.pi / 4)
        assert abs(out.x) <= 1e-15
        assert abs(out.y + 2.0) <= 1e-14

    def test_against_rk4_oracle(self):
        p = classical.ClassicalParams(omega=2.0, gamma=1.0)
        start = classical.PhasePoint(1.0, 0.0)
        exact = classical.evolve_classical_analytic(start, p, 1.0)
        approx = classical.evolve_classical_rk4(start, p, 1.0, 10_000)
        assert abs(exact.x - approx.x) <= 1e-9
        assert abs(exact.y - approx.y) <= 1e-9

    def test_rejects_critical_and_overdamped(self):
        with pytest.raises(classical.AnalyticUnsupportedError):
            classical.evolve_classical_analytic(
                classical.PhasePoint(1.0, 0.0), classical.ClassicalParams(omega=1.0, gamma=1.0), 1.0
            )
        with pytest.raises(classical.AnalyticUnsupportedError):
            classical.evolution_matrix(classical.ClassicalParams(omega=1.0, gamma=2.0), 1.0)

    def test_determinant_decays_at_twice_gamma(self):
        # det exp(tM) = e^{t tr M} with tr M = -2 gamma.
        for omega, gamma in [(2.0, 1.0), (1.0, 0.1), (5.0, 0.0)]:
            p = classical.ClassicalParams(omega=omega, gamma=gamma)
            for t in (0.3, 1.7, 6.0):
                det = np.linalg.det(classical.evolution_matrix(p, t))
                assert abs(det - np.exp(-2.0 * gamma * t)) <= 1e-12

    def test_semigroup(self):
        p = classical.ClassicalParams(omega=3.0, gamma=0.4)
        lhs = classical.evolution_matrix(p, 0.7) @ classical.evolution_matrix(p, 1.1)
        rhs = classical.evolution_matrix(p, 1.8)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_system_matrix_splits_over_su11_generators(self):
        # [[0, 1], [-w^2, -2g]] = -g 1 + k+ + w^2 k- + 2 g k3, exactly.
        k_plus, k_minus, k3 = su11.k_generators()
        for omega, gamma in [(2.0, 1.0), (1.0, 0.1), (5.0, 0.0)]:
            p = classical.ClassicalParams(omega=omega, gamma=gamma)
            split = -gamma * np.eye(2) + k_plus + omega**2 * k_minus + 2.0 * gamma * k3
            np.testing.assert_array_equal(classical.system_matrix(p), split.real)


def rk4_loop(p0, params, t, steps):
    # The textbook step loop that evolve_classical_rk4 replaces by a matrix power.
    m = classical.system_matrix(params)
    h = t / steps
    v = np.array([p0.x, p0.y])
    for _ in range(steps):
        k1 = m @ v
        k2 = m @ (v + 0.5 * h * k1)
        k3 = m @ (v + 0.5 * h * k2)
        k4 = m @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v


class TestRk4:
    @pytest.mark.parametrize("gamma", [0.3, 2.0, 5.0], ids=["under", "critical", "over"])
    @pytest.mark.parametrize("steps", [1, 2, 7, 1000])
    def test_matches_step_loop(self, gamma, steps):
        # h * max(omega, 2 gamma) = 0.09 at gamma = 5: inside the stability bound.
        p = classical.ClassicalParams(omega=2.0, gamma=gamma)
        p0 = classical.PhasePoint(1.3, -0.7)
        t = 0.009 * steps
        out = classical.evolve_classical_rk4(p0, p, t, steps)
        ref = rk4_loop(p0, p, t, steps)
        tol = 1e-12 * max(1.0, np.hypot(p0.x, p0.y))
        assert abs(out.x - ref[0]) <= tol
        assert abs(out.y - ref[1]) <= tol

    @pytest.mark.parametrize("gamma", [0.3, 2.0, 5.0], ids=["under", "critical", "over"])
    def test_t_zero_returns_start_exactly(self, gamma):
        p0 = classical.PhasePoint(1.3, -0.7)
        p = classical.ClassicalParams(omega=2.0, gamma=gamma)
        for steps in (1, 7):
            out = classical.evolve_classical_rk4(p0, p, 0.0, steps)
            assert (out.x, out.y) == (p0.x, p0.y) == tuple(rk4_loop(p0, p, 0.0, steps))

    def test_energy_conserved_without_damping(self):
        p = classical.ClassicalParams(omega=2.0, gamma=0.0)
        state = classical.PhasePoint(1.0, 0.0)
        energy0 = p.omega**2 * state.x**2 + state.y**2
        for t in np.linspace(0.5, 10.0, 20):
            out = classical.evolve_classical_rk4(state, p, float(t), 40_000)
            energy = p.omega**2 * out.x**2 + out.y**2
            assert abs(energy - energy0) <= 1e-8

    def test_fourth_order_convergence(self):
        p = classical.ClassicalParams(omega=2.0, gamma=1.0)
        start = classical.PhasePoint(1.0, 0.0)
        exact = classical.evolve_classical_analytic(start, p, 5.0)
        errors = []
        for steps in (200, 400, 800):
            out = classical.evolve_classical_rk4(start, p, 5.0, steps)
            errors.append(np.hypot(out.x - exact.x, out.y - exact.y))
        assert 13.0 <= errors[0] / errors[1] <= 19.0
        assert 13.0 <= errors[1] / errors[2] <= 19.0

    def test_overdamped_monotone_decay(self):
        # omega = 1, gamma = 2: both eigenvalues of the system matrix are
        # real and negative (oracle below), so x decays without crossing zero
        # from x0 > 0, y0 = 0.
        p = classical.ClassicalParams(omega=1.0, gamma=2.0)
        eigs = np.linalg.eigvals(classical.system_matrix(p))
        assert np.abs(eigs.imag).max() <= 1e-12
        assert eigs.real.max() < 0.0
        xs = []
        for t in np.linspace(0.0, 8.0, 17):
            out = classical.evolve_classical_rk4(classical.PhasePoint(1.0, 0.0), p, float(t), 4000)
            xs.append(out.x)
        assert all(x > 0 for x in xs)
        assert all(a >= b for a, b in zip(xs, xs[1:]))
        # The slow mode -gamma + sqrt(gamma^2 - omega^2) bounds the decay.
        assert xs[-1] <= 1.1 * np.exp(eigs.real.max() * 8.0)

    def test_rejects_unstable_steps(self):
        p = classical.ClassicalParams(omega=5.0, gamma=0.0)
        needed = classical.stability_steps(p, 2.0)
        with pytest.raises(ValueError):
            classical.evolve_classical_rk4(classical.PhasePoint(1.0, 0.0), p, 2.0, needed - 1)

    def test_overflowing_step_count_is_a_value_error(self):
        # t * rate / 0.1 is inf; int() of it would raise OverflowError.
        p = classical.ClassicalParams(omega=1.0, gamma=0.1)
        with pytest.raises(ValueError, match="overflows double precision"):
            classical.stability_steps(p, 1e308)
        with pytest.raises(ValueError, match="overflows double precision"):
            classical.evolve_classical_rk4(classical.PhasePoint(1.0, 0.0), p, 1e308, 1)


class TestParams:
    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            classical.ClassicalParams(omega=0.0)

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            classical.ClassicalParams(omega=1.0, gamma=-0.1)

    def test_rejects_nonfinite_phase_point(self):
        with pytest.raises(ValueError):
            classical.PhasePoint(np.inf, 0.0)
