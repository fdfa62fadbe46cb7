import math
import re

import numpy as np
import pytest

import qdho
from qdho import classical, su11


class TestAnalytic:
    def test_t_zero_is_identity(self):
        p = classical.ClassicalParams(omega=2.0, gamma=0.5)
        m = classical.evolution_matrix(p, 0.0)
        np.testing.assert_array_equal(m, np.eye(2))
        out = classical.evolve_classical_analytic_grid(classical.PhasePoint(1.2, -0.3), p, [0.0])
        assert out.tolist() == [[1.2, -0.3]]

    def test_undamped_quarter_period(self):
        # gamma = 0, omega = 2, t = pi/4: x = cos(pi/2) = 0, y = -2 sin(pi/2).
        p = classical.ClassicalParams(omega=2.0, gamma=0.0)
        (x, y), = classical.evolve_classical_analytic_grid(
            classical.PhasePoint(1.0, 0.0), p, [np.pi / 4]
        )
        assert abs(x) <= 1e-15
        assert abs(y + 2.0) <= 1e-14

    def test_against_rk4_oracle(self):
        p = classical.ClassicalParams(omega=2.0, gamma=1.0)
        start = classical.PhasePoint(1.0, 0.0)
        (x, y), = classical.evolve_classical_analytic_grid(start, p, [1.0])
        approx = classical.evolve_classical_rk4(start, p, 1.0, 10_000)
        assert abs(x - approx.x) <= 1e-9
        assert abs(y - approx.y) <= 1e-9

    def test_rejects_critical_and_overdamped(self):
        critical = classical.ClassicalParams(omega=1.0, gamma=1.0)
        with pytest.raises(classical.AnalyticUnsupportedError):
            classical.evolve_classical_analytic_grid(classical.PhasePoint(1.0, 0.0), critical, [1.0])
        with pytest.raises(classical.AnalyticUnsupportedError):
            classical.evolution_matrix(classical.ClassicalParams(omega=1.0, gamma=2.0), 1.0)

    @pytest.mark.parametrize("gamma", [0.0, 5e-301])
    def test_underflowing_big_omega_takes_its_limit(self, gamma):
        # omega > gamma, but Omega = sqrt(omega^2 - gamma^2) underflows to 0:
        # sin(Omega t)/Omega is then its limit t.
        p = classical.ClassicalParams(omega=1e-300, gamma=gamma)
        for t in (0.0, 1.5, 10.0):
            np.testing.assert_array_equal(classical.evolution_matrix(p, t), [[1.0, t], [0.0, 1.0]])

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
        (x, y), = classical.evolve_classical_analytic_grid(start, p, [5.0])
        errors = []
        for steps in (200, 400, 800):
            out = classical.evolve_classical_rk4(start, p, 5.0, steps)
            errors.append(np.hypot(out.x - x, out.y - y))
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

    def test_numpy_scalar_arguments_equal_python_ones(self):
        # 0-d arrays do not hash; the cached power must still take them.
        p = classical.ClassicalParams(omega=2.0, gamma=0.3)
        p0 = classical.PhasePoint(1.3, -0.7)
        ref = classical.evolve_classical_rk4(p0, p, 1.0, 100)
        assert classical.evolve_classical_rk4(p0, p, np.array(1.0), 100) == ref
        assert classical.evolve_classical_rk4(p0, p, np.float64(1.0), np.array(100)) == ref
        assert classical.evolve_classical_rk4(p0, p, 1.0, np.int64(100)) == ref
        with pytest.raises(TypeError):
            classical.evolve_classical_rk4(p0, p, 1.0, 100.0)

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


class TestRk4Grid:
    @staticmethod
    def segment_loop(p0, params, times):
        # The loop the CLI ran before the grid function: the rate
        # max(omega, 2 gamma) at 4e-3 per step, one segment at a time.
        rate = max(params.omega, 2.0 * params.gamma)
        points, current, prev_t = [], p0, 0.0
        for t in times:
            seg = float(t) - prev_t
            if seg > 0:
                steps = max(1, int(np.ceil(seg * rate / 4e-3)))
                current = classical.evolve_classical_rk4(current, params, seg, steps)
            points.append(current)
            prev_t = float(t)
        return points

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("t_start, num_points", [(0.0, 11), (0.7, 101)])
    def test_equals_segment_loop(self, gamma, t_start, num_points):
        params = classical.ClassicalParams(omega=2.0, gamma=gamma)
        p0 = classical.PhasePoint(1.0, 0.0)
        times = np.linspace(t_start, 10.0, num_points)
        got = classical.evolve_classical_rk4_grid(p0, params, times)
        assert got == self.segment_loop(p0, params, times)

    def test_one_integrator_call_per_segment(self, monkeypatch):
        calls = []
        rk4 = classical.evolve_classical_rk4

        def counted(*args):
            calls.append(args[3])
            return rk4(*args)

        monkeypatch.setattr(classical, "evolve_classical_rk4", counted)
        params = classical.ClassicalParams(omega=2.0, gamma=0.5)
        p0 = classical.PhasePoint(1.0, 0.0)
        got = classical.evolve_classical_rk4_grid(p0, params, [0.0, 0.5, 0.5, 1.5, 1.5])
        # Zero-length segments repeat the point before them.
        assert got[0] is p0 and got[2] is got[1] and got[4] is got[3]
        assert calls == [250, 500]

    # The classical benchmark's grids, 0..t_end, under-, critically and
    # overdamped, and the (segment, steps) pairs each has to the bit.
    WORKLOAD_GRIDS = pytest.mark.parametrize(
        "omega, gamma, t_end, num_points, pairs",
        [(2.0 * np.pi, 0.1, 300.0, 3001, 13), (1.0, 1.0, 40.0, 401, 10),
         (1.0, 5.0, 360.0, 3601, 13)],
        ids=["under", "critical", "over"],
    )

    @WORKLOAD_GRIDS
    def test_equals_uncached_calls(self, omega, gamma, t_end, num_points, pairs):
        params = classical.ClassicalParams(omega=omega, gamma=gamma)
        p0 = classical.PhasePoint(0.6, 0.8 * omega)
        times = np.linspace(0.0, t_end, num_points)
        got = classical.evolve_classical_rk4_grid(p0, params, times)
        rate = max(omega, 2.0 * gamma)
        expected, current, prev_t = [], p0, 0.0
        for t in times.tolist():
            if t > prev_t:
                classical._rk4_power.cache_clear()
                steps = max(1, int(np.ceil((t - prev_t) * rate / 4e-3)))
                current = classical.evolve_classical_rk4(current, params, t - prev_t, steps)
            expected.append(current)
            prev_t = t
        assert got == expected

    @WORKLOAD_GRIDS
    def test_raises_one_power_per_pair(self, omega, gamma, t_end, num_points, pairs):
        params = classical.ClassicalParams(omega=omega, gamma=gamma)
        classical._rk4_power.cache_clear()
        classical.evolve_classical_rk4_grid(
            classical.PhasePoint(1.0, 0.0), params, np.linspace(0.0, t_end, num_points)
        )
        info = classical._rk4_power.cache_info()
        assert (info.misses, info.hits) == (pairs, num_points - 1 - pairs)

    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
    def test_refuses_bad_times_before_stepping(self, monkeypatch, bad):
        monkeypatch.setattr(classical, "evolve_classical_rk4", None)
        params = classical.ClassicalParams(omega=2.0, gamma=0.5)
        with pytest.raises(ValueError, match="time must be finite and non-negative"):
            classical.evolve_classical_rk4_grid(classical.PhasePoint(1.0, 0.0), params, [0.0, 1.0, bad])

    def test_overflowing_step_count_names_the_segment(self):
        # Rate 4e305 at 4e-3 per step: the first segment, 1, takes 1e308
        # steps; the second, 2.5, overflows.
        params = classical.ClassicalParams(omega=2.0, gamma=2e305)
        with pytest.raises(ValueError, match=r"^RK4 step count at t = 2.5 overflows double precision$"):
            classical.evolve_classical_rk4_grid(classical.PhasePoint(1.0, 0.0), params, [1.0, 3.5])


def closed_form(params, t):
    # The one-time matrix as written before the stacked build: the bits the
    # grid must reproduce.
    big_omega = math.sqrt(params.omega**2 - params.gamma**2)
    c = math.cos(big_omega * t)
    s = math.sin(big_omega * t) / big_omega
    decay = math.exp(-params.gamma * t)
    return decay * np.array(
        [[c + params.gamma * s, s], [-params.omega**2 * s, c - params.gamma * s]]
    )


class TestAnalyticGrid:
    def test_exported_from_the_package(self):
        assert qdho.evolve_classical_analytic_grid is classical.evolve_classical_analytic_grid

    # The classical benchmark's three grids and the sample config's.
    SHAPES = pytest.mark.parametrize(
        "omega, gamma, t_end, num_points",
        [(2.0 * np.pi, 0.1, 300.0, 3001), (1.0, 1.0, 40.0, 401), (1.0, 5.0, 360.0, 3601),
         (2.0, 1.0, 10.0, 101)],
        ids=["under", "critical", "over", "sample"],
    )

    @SHAPES
    @pytest.mark.parametrize("angle", [0.0, 1.1, 2.9, 4.4])
    def test_equals_per_time_loop(self, omega, gamma, t_end, num_points, angle):
        params = classical.ClassicalParams(omega=omega, gamma=gamma)
        p0 = classical.PhasePoint(math.cos(angle), omega * math.sin(angle))
        times = np.linspace(0.0, t_end, num_points)
        if omega <= gamma:
            with pytest.raises(classical.AnalyticUnsupportedError):
                classical.evolve_classical_analytic_grid(p0, params, times)
            return
        got = classical.evolve_classical_analytic_grid(p0, params, times)
        assert got.shape == (num_points, 2)
        for i, t in enumerate(times.tolist()):
            one = classical.evolution_matrix(params, t) @ (p0.x, p0.y)
            expected = closed_form(params, t) @ (p0.x, p0.y)
            assert got[i].tobytes() == one.tobytes() == expected.tobytes()

    @SHAPES
    def test_stacked_matrices_equal_per_time_ones(self, omega, gamma, t_end, num_points):
        params = classical.ClassicalParams(omega=omega, gamma=gamma)
        times = np.linspace(0.0, t_end, num_points)
        if omega <= gamma:
            with pytest.raises(classical.AnalyticUnsupportedError):
                classical.evolution_matrix(params, times)
            return
        stack = classical.evolution_matrix(params, times)
        assert stack.shape == (num_points, 2, 2)
        for i, t in enumerate(times.tolist()):
            one = classical.evolution_matrix(params, t)
            assert one.shape == (2, 2)
            assert stack[i].tobytes() == one.tobytes() == closed_form(params, t).tobytes()

    def test_refuses_critical_damping_before_building(self, monkeypatch):
        monkeypatch.setattr(classical.math, "cos", None)
        monkeypatch.setattr(classical.np, "stack", None)
        params = classical.ClassicalParams(omega=1.0, gamma=1.0)
        message = (
            "analytic path requires omega > gamma, got omega=1.0, gamma=1.0; "
            "use the RK4 integrator"
        )
        with pytest.raises(classical.AnalyticUnsupportedError, match=f"^{re.escape(message)}$"):
            classical.evolve_classical_analytic_grid(
                classical.PhasePoint(1.0, 0.0), params, np.linspace(0.0, 1.0, 5)
            )

    @pytest.mark.parametrize("bad, shown", [(-0.5, "-0.5"), (np.nan, "nan")])
    def test_refuses_bad_times_before_building(self, monkeypatch, bad, shown):
        monkeypatch.setattr(classical, "evolution_matrix", None)
        params = classical.ClassicalParams(omega=2.0, gamma=0.5)
        with pytest.raises(
            ValueError, match=f"^time must be finite and non-negative, got {shown}$"
        ):
            classical.evolve_classical_analytic_grid(
                classical.PhasePoint(1.0, 0.0), params, [0.0, 1.0, bad]
            )

    def test_refuses_the_first_non_finite_row(self):
        # y = -3 sin(3t) * 1e308 overflows at t = 0.5 and 0.6 but not at 0.1
        # or 1.0; the message names the row at 0.5.
        params = classical.ClassicalParams(omega=3.0, gamma=0.0)
        p0 = classical.PhasePoint(1e308, 0.0)
        x = float(closed_form(params, 0.5)[0, 0]) * p0.x  # y0 = 0 adds nothing
        message = f"phase point must be finite, got ({x}, -inf)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            classical.evolve_classical_analytic_grid(p0, params, [0.0, 0.1, 0.5, 0.6, 1.0])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            classical.evolve_classical_analytic_grid(p0, params, [0.5])


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
