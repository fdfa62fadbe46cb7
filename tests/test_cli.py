import dataclasses
import math
import os
import re
import sys
import time
import warnings

import numpy as np
import pytest

import cli_runs
import qdho.su11
from qdho import classical, cli, config, fock, liouville, propagator, verification

QUANTUM_CONFIG = """
[model]
omega = 0.0
mu = 1.0
nu = 0.0

[state]
kind = fock
n = 1

[truncation]
support_max = 1

[grid]
t_start = 0.0
t_end = 1.0
num_points = 2

[run]
method = analytic
"""

COMPARE_CONFIG = """
[model]
omega = 6.283185307179586
mu = 1.0
nu = 0.4

[state]
kind = coherent
re = 1.0
im = 0.0

[truncation]
support_max = 9
guard = 14

[grid]
t_start = 0.0
t_end = 1.0
num_points = 3

[run]
method = analytic
"""

CLASSICAL_CONFIG = """
[classical]
omega = {omega}
gamma = {gamma}
x0 = 1.0
y0 = 0.0

[grid]
t_start = 0.0
t_end = {t_end}
num_points = {num_points}
"""


def _rate_overflow(omega=6.283185307179586, mu=1.0, nu=0.4, d=24, t=3.0):
    """The error text of the one rate bound, for a run of COMPARE_CONFIG's kind."""
    return (
        f"rate scale 8 (omega + mu + nu) D max(1, t) at omega = {omega:.6g}, "
        f"mu = {mu:.6g}, nu = {nu:.6g}, D = {d}, t = {t:.6g} overflows double precision"
    )


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_full_round_trip(self, tmp_path):
        cfg = config.load_run_config(write(tmp_path, COMPARE_CONFIG))
        assert cfg.params.mu == 1.0 and cfg.params.nu == 0.4
        assert cfg.state.kind == "coherent" and cfg.state.alpha == 1.0 + 0.0j
        assert cfg.trunc.dim == 24
        assert cfg.grid.num_points == 3
        assert cfg.method == "analytic"
        assert cfg.tolerances == config.DEFAULT_TOLERANCES

    def test_guard_defaults_to_policy(self, tmp_path):
        cfg = config.load_run_config(write(tmp_path, QUANTUM_CONFIG))
        assert cfg.trunc.support_max == 1
        assert cfg.trunc.guard == 5
        assert cfg.trunc.dim == 7

    def test_mixture_terms(self, tmp_path):
        text = QUANTUM_CONFIG.replace(
            "kind = fock\nn = 1", "kind = mixture\nterms = 0:0.25 3:0.75"
        ).replace("support_max = 1", "support_max = 3")
        cfg = config.load_run_config(write(tmp_path, text))
        assert cfg.state.terms == ((0, 0.25), (3, 0.75))

    @pytest.mark.parametrize(
        "terms, message",
        [
            ("0:0.5 1:0.6", "mixture weights sum to 1.1, expected 1 within 1e-12"),
            ("0:-0.1 1:1.1", "mixture weight for level 0 is negative: -0.1"),
            ("0:nan 1:nan", "mixture weight for level 0 is NaN"),
            ("0:1 1:nan", "mixture weight for level 1 is NaN"),
            ("", "mixture needs at least one (level, weight) term"),
        ],
        ids=["sum", "negative", "nan", "nan-second", "empty"],
    )
    def test_rejects_bad_mixture_weights(self, tmp_path, capsys, terms, message):
        # One weight check, fock.check_mixture_weights, serves the config
        # reader and the library; a NaN weight once passed both.
        text = QUANTUM_CONFIG.replace("kind = fock\nn = 1", f"kind = mixture\nterms = {terms}")
        with pytest.raises(config.ConfigError, match=f"^\\[state\\] terms: {re.escape(message)}$"):
            config.load_run_config(write(tmp_path, text))
        assert cli.main(["evolve", "--config", write(tmp_path, text)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [state] terms: {message}\n"

    def test_rejects_unknown_method(self, tmp_path):
        with pytest.raises(config.ConfigError):
            config.load_run_config(write(tmp_path, QUANTUM_CONFIG.replace("analytic", "magic")))

    def test_removed_nu_zero_method_exits_1(self, tmp_path, capsys):
        # Pure loss is the analytic method at nu = 0; the old method name is
        # refused like any unknown one.
        text = QUANTUM_CONFIG.replace("method = analytic", "method = nu-zero")
        assert cli.main(["evolve", "--config", write(tmp_path, text)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: method must be one of ('analytic', 'expm', 'rk4'), got 'nu-zero'\n"
        )

    def test_missing_section_is_flagged(self, tmp_path):
        with pytest.raises(config.ConfigError) as err:
            config.load_run_config(write(tmp_path, "[model]\nomega = 1.0\n"))
        assert "missing required section" in str(err.value)

    def test_bad_number_names_the_key(self, tmp_path):
        with pytest.raises(config.ConfigError) as err:
            config.load_run_config(write(tmp_path, QUANTUM_CONFIG.replace("mu = 1.0", "mu = fast")))
        assert "mu" in str(err.value)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("t_end = 1.0", "t_end = soon", "[grid] t_end: expected a number, got 'soon'"),
            ("num_points = 2", "num_points = many",
             "[grid] num_points: expected an integer, got 'many'"),
            # --check-truncation is the one spelling of certification.
            ("method = analytic", "method = analytic\ncheck_truncation = true",
             "[run] check_truncation: unknown key"),
            ("t_end = 1.0\n", "", "[grid] t_end: required key is missing"),
            ("[grid]", "[grids]", "missing required section [grid] in {path}"),
            ("method = analytic", "method = analytic\ncolour = red", "[run] colour: unknown key"),
            # A misspelled section is refused, not skipped for its defaults.
            ("method = analytic", "method = analytic\n\n[tolerance]\noracle_tol = 1e-30",
             "[tolerance]: unknown section"),
            ("mu = 1.0", "mu = fast", "[model] mu: expected a number, got 'fast'"),
            ("mu = 1.0", "mu = -1.0", "[model]: omega, mu, nu must be non-negative"),
            # A negative guard is refused, not read as "use the default".
            ("support_max = 1", "support_max = 1\nguard = -7",
             "[truncation]: support_max and guard must be non-negative"),
        ],
    )
    def test_reader_error_text(self, tmp_path, old, new, message):
        path = write(tmp_path, QUANTUM_CONFIG.replace(old, new))
        with pytest.raises(config.ConfigError) as err:
            config.load_run_config(path)
        assert str(err.value) == message.format(path=path)

    def test_rejects_misspelled_key(self, tmp_path):
        # A misspelled key must not fall back to the default (nu = 0).
        text = COMPARE_CONFIG.replace("nu = 0.4", "nuu = 0.4")
        with pytest.raises(config.ConfigError, match=r"\[model\] nuu: unknown key"):
            config.load_run_config(write(tmp_path, text))

    def test_rejects_key_of_another_state_kind(self, tmp_path):
        text = QUANTUM_CONFIG.replace("n = 1", "n = 1\nre = 0.5")
        with pytest.raises(config.ConfigError, match=r"\[state\] re: unknown key"):
            config.load_run_config(write(tmp_path, text))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("gamma = 1.0", "gama = 1.0", "[classical] gama: unknown key"),
            ("[grid]", "[run]\nmethod = rk4\n\n[grid]", "[run]: unknown section"),
        ],
    )
    def test_classical_rejects_unknown_names(self, tmp_path, old, new, message):
        text = CLASSICAL_CONFIG.format(omega=2.0, gamma=1.0, t_end=10.0, num_points=5)
        with pytest.raises(config.ConfigError) as err:
            config.load_classical_config(write(tmp_path, text.replace(old, new)))
        assert str(err.value) == message

    def test_classical_round_trip(self, tmp_path):
        path = write(tmp_path, CLASSICAL_CONFIG.format(omega=2.0, gamma=1.0, t_end=10.0, num_points=5))
        ccfg = config.load_classical_config(path)
        assert ccfg.params == classical.ClassicalParams(omega=2.0, gamma=1.0)
        assert ccfg.start == classical.PhasePoint(x=1.0, y=0.0)
        assert ccfg.grid.times()[-1] == 10.0

    def test_classical_config_refuses_rates_the_params_refuse(self, tmp_path):
        text = CLASSICAL_CONFIG.format(omega=-1.0, gamma=1.0, t_end=10.0, num_points=5)
        with pytest.raises(ValueError, match="^omega must be positive, got -1.0$"):
            config.load_classical_config(write(tmp_path, text))


class TestToleranceConfig:
    def test_rejects_out_of_range(self):
        with pytest.raises(config.ConfigError):
            config.ToleranceConfig(trace_tol=0.5)
        with pytest.raises(config.ConfigError):
            config.ToleranceConfig(oracle_tol=-1e-9)


class TestTimeGrid:
    def test_single_point_needs_equal_endpoints(self):
        with pytest.raises(config.ConfigError):
            config.TimeGrid(t_start=0.0, t_end=1.0, num_points=1)
        grid = config.TimeGrid(t_start=0.0, t_end=0.0, num_points=1)
        np.testing.assert_array_equal(grid.times(), [0.0])

    def test_inclusive_uniform_grid(self):
        times = config.TimeGrid(t_start=0.0, t_end=3.0, num_points=7).times()
        np.testing.assert_allclose(times, np.linspace(0, 3, 7))


class TestCmdEvolve:
    def test_decay_of_single_excitation(self, tmp_path):
        cfg = config.load_run_config(write(tmp_path, QUANTUM_CONFIG))
        csv = cli.cmd_evolve(cfg)
        lines = csv.strip().split("\n")
        header = lines[0].split(",")
        assert header[:4] == ["t", "trace_re", "expect_n", "purity"]
        assert header[-1] == "min_eigenvalue"
        row0 = [float(x) for x in lines[1].split(",")]
        row1 = [float(x) for x in lines[2].split(",")]
        assert row0[header.index("expect_n")] == 1.0
        assert abs(row1[header.index("expect_n")] - math.exp(-1.0)) <= 1e-8

    def test_single_point_grid_reproduces_initial_state(self, tmp_path):
        text = QUANTUM_CONFIG.replace("t_end = 1.0", "t_end = 0.0").replace(
            "num_points = 2", "num_points = 1"
        )
        cfg = config.load_run_config(write(tmp_path, text))
        csv = cli.cmd_evolve(cfg)
        lines = csv.strip().split("\n")
        assert len(lines) == 2
        row = [float(x) for x in lines[1].split(",")]
        assert row[1] == 1.0  # trace
        assert row[2] == 1.0  # expect_n of |1><1|

    def test_deterministic_output(self, tmp_path):
        cfg = config.load_run_config(write(tmp_path, COMPARE_CONFIG))
        assert cli.cmd_evolve(cfg) == cli.cmd_evolve(cfg)

    def test_values_are_seventeen_significant_digits(self, tmp_path):
        cfg = config.load_run_config(write(tmp_path, QUANTUM_CONFIG))
        body = cli.cmd_evolve(cfg).strip().split("\n")[1]
        for fieldvalue in body.split(","):
            mantissa, _, exponent = fieldvalue.partition("e")
            assert len(mantissa.lstrip("-").replace(".", "")) == 17
            assert exponent

    # A pump lifts population past the one-level support: the oracles then
    # need guard levels to keep the trace, as the closed form does.
    PUMP = {"nu = 0.0": "nu = 0.4", "support_max = 1": "support_max = 1\nguard = 24"}

    @pytest.mark.parametrize(
        "method, edits",
        [("expm", {}), ("rk4", {}), ("expm", PUMP), ("rk4", PUMP)],
        ids=["expm", "rk4", "expm-pumped", "rk4-pumped"],
    )
    def test_methods_agree_on_observables(self, tmp_path, method, edits):
        text = QUANTUM_CONFIG
        for old, new in edits.items():
            text = text.replace(old, new)
        base = config.load_run_config(write(tmp_path, text))
        alt = config.load_run_config(
            write(tmp_path, text.replace("method = analytic", f"method = {method}"), "alt.ini")
        )
        ref_rows = cli.cmd_evolve(base).strip().split("\n")[1:]
        alt_rows = cli.cmd_evolve(alt).strip().split("\n")[1:]
        for ref, got in zip(ref_rows, alt_rows):
            for a, b in zip(ref.split(","), got.split(",")):
                assert abs(float(a) - float(b)) <= 1e-8

    def test_check_truncation_passes_for_damped_run(self, tmp_path):
        cfg = dataclasses.replace(
            config.load_run_config(write(tmp_path, COMPARE_CONFIG)), check_truncation=True
        )
        assert cli.cmd_evolve(cfg).count("\n") == 4

    def test_check_truncation_fails_for_starved_run(self, tmp_path):
        text = COMPARE_CONFIG.replace("mu = 1.0", "mu = 0.5").replace("nu = 0.4", "nu = 0.5").replace(
            "support_max = 9", "support_max = 9"
        ).replace("guard = 14", "guard = 2").replace("t_end = 1.0", "t_end = 3.0")
        cfg = dataclasses.replace(
            config.load_run_config(write(tmp_path, text)), check_truncation=True
        )
        with pytest.raises(cli.ToleranceFailure):
            cli.cmd_evolve(cfg)


    def test_check_truncation_evolves_each_state_once(self, tmp_path, monkeypatch):
        # The certified grid checks rho0 once and runs the series once per
        # grid time, at 2D only: the dim-D states are blocks of the 2D run.
        # The CSV is the one an uncertified run writes.
        cfg = config.load_run_config(write(tmp_path, COMPARE_CONFIG))
        plain = cli.cmd_evolve(cfg)
        checked, evolved = [], []
        original_check = propagator.check_evolution_args
        original_series = propagator._series

        def counting_check(*args, **kwargs):
            rho0 = original_check(*args, **kwargs)
            checked.append(len(rho0))
            return rho0

        def counting_series(layout, *weights):
            # Levels of the layout, once per time: both layouts end in n positions.
            evolved.extend([layout.values.shape[-1]] * len(weights[-1]))
            return original_series(layout, *weights)

        monkeypatch.setattr(propagator, "check_evolution_args", counting_check)
        monkeypatch.setattr(propagator, "_series", counting_series)
        certified = cli.cmd_evolve(dataclasses.replace(cfg, check_truncation=True))
        assert certified == plain
        assert checked == [24]
        assert evolved == [48] * 3
        checked.clear()
        evolved.clear()
        cli.cmd_compare(dataclasses.replace(cfg, check_truncation=True))
        assert checked == [24]
        assert evolved == [48] * 3

    @pytest.mark.parametrize("method", ["analytic", "expm", "rk4"])
    def test_grid_validates_rho0_once(self, tmp_path, monkeypatch, method):
        # One check of rho0 for the whole grid, then one per CSV row.
        text = (
            COMPARE_CONFIG.replace("nu = 0.4", "nu = 0.0")
            .replace("num_points = 3", "num_points = 101")
            .replace("method = analytic", f"method = {method}")
        )
        cfg = config.load_run_config(write(tmp_path, text))
        calls = []
        original = fock.validate_density

        def counting_validate(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(fock, "validate_density", counting_validate)
        monkeypatch.setattr(cli, "validate_density", counting_validate)
        cli.cmd_evolve(cfg)
        assert len(calls) == 102


class TestCmdCompare:
    def test_default_physical_config_passes(self, tmp_path):
        cfg = config.load_run_config(write(tmp_path, COMPARE_CONFIG))
        report, code = cli.cmd_compare(cfg)
        assert code == cli.EXIT_OK
        assert "RESULT pass" in report
        worst = float(report.strip().split("max_residual=")[-1])
        assert worst <= 1e-7

    def test_degenerate_rates_exercise_limit_branch(self, tmp_path):
        text = COMPARE_CONFIG.replace("mu = 1.0", "mu = 0.5").replace("nu = 0.4", "nu = 0.5")
        cfg = config.load_run_config(write(tmp_path, text))
        report, code = cli.cmd_compare(cfg)
        assert code == cli.EXIT_OK, report

    def test_zero_length_grid_gives_exact_zero_distances(self, tmp_path):
        text = COMPARE_CONFIG.replace("t_end = 1.0", "t_end = 0.0").replace(
            "num_points = 3", "num_points = 1"
        )
        cfg = config.load_run_config(write(tmp_path, text))
        report, code = cli.cmd_compare(cfg)
        assert code == cli.EXIT_OK
        assert "RESULT pass max_residual=0.000000e+00" in report

    def test_unreachable_tolerance_fails_with_code_2(self, tmp_path):
        cfg = config.load_run_config(write(tmp_path, COMPARE_CONFIG))
        cfg = dataclasses.replace(
            cfg, tolerances=dataclasses.replace(cfg.tolerances, oracle_tol=1e-15)
        )
        report, code = cli.cmd_compare(cfg)
        assert code == cli.EXIT_TOLERANCE
        assert "RESULT fail" in report


class TestCmdSteady:
    def test_pure_damping_relaxes_to_vacuum(self, tmp_path):
        cfg = config.load_run_config(write(tmp_path, COMPARE_CONFIG.replace("nu = 0.4", "nu = 0.0")))
        report, code = cli.cmd_steady(cfg)
        assert code == cli.EXIT_OK
        n_line = [l for l in report.split("\n") if l.startswith("expect_n=")][0]
        assert float(n_line.split("=")[1].split()[0]) <= 1e-6

    def test_pumped_damping_reaches_thermal_fixed_point(self, tmp_path):
        cfg = config.load_run_config(write(tmp_path, COMPARE_CONFIG))
        report, code = cli.cmd_steady(cfg)
        assert code == cli.EXIT_OK
        assert "RESULT pass" in report

    @pytest.mark.parametrize("method", ["expm", "rk4"])
    def test_runs_the_configured_method(self, tmp_path, monkeypatch, method):
        analytic = cli.cmd_steady(config.load_run_config(write(tmp_path, COMPARE_CONFIG)))
        name = f"evolve_numeric_{method}_grid"
        calls = []
        real = getattr(liouville, name)

        def counted(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(liouville, name, counted)
        text = COMPARE_CONFIG.replace("method = analytic", f"method = {method}")
        cfg = config.load_run_config(write(tmp_path, text))
        report, code = cli.cmd_steady(cfg)
        assert [list(times) for times in calls] == [[20.0 / (cfg.params.mu - cfg.params.nu)]]
        assert code == cli.EXIT_OK and "RESULT pass" in report
        assert report != analytic[0]

    @pytest.mark.parametrize("nu", ["0.0", "0.4"])
    def test_runs_the_closed_form_once(self, tmp_path, monkeypatch, nu):
        # The analytic method, pure loss included, is one grid call at
        # 20/(mu - nu).
        calls = []
        real = propagator.evolve_analytic_grid

        def counted(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(propagator, "evolve_analytic_grid", counted)
        cfg = config.load_run_config(write(tmp_path, COMPARE_CONFIG.replace("nu = 0.4", f"nu = {nu}")))
        report, code = cli.cmd_steady(cfg)
        assert [list(times) for times in calls] == [[20.0 / (cfg.params.mu - cfg.params.nu)]]
        assert code == cli.EXIT_OK and "RESULT pass" in report

    def test_rejects_balanced_rates(self, tmp_path):
        text = COMPARE_CONFIG.replace("mu = 1.0", "mu = 0.5").replace("nu = 0.4", "nu = 0.5")
        cfg = config.load_run_config(write(tmp_path, text))
        with pytest.raises(config.ConfigError):
            cli.cmd_steady(cfg)


class TestCmdClassical:
    def test_full_period_returns_home(self, tmp_path):
        path = write(
            tmp_path,
            CLASSICAL_CONFIG.format(omega=1.0, gamma=0.0, t_end=2 * np.pi, num_points=2),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            csv = cli.cmd_classical(config.load_classical_config(path))
        assert not caught
        last = csv.strip().split("\n")[-1].split(",")
        assert abs(float(last[1]) - 1.0) <= 1e-10  # x_analytic(2 pi) = 1

    def test_underdamped_deviation_column_small(self, tmp_path):
        path = write(tmp_path, CLASSICAL_CONFIG.format(omega=2.0, gamma=1.0, t_end=10.0, num_points=11))
        csv = cli.cmd_classical(config.load_classical_config(path))
        for line in csv.strip().split("\n")[1:]:
            assert float(line.split(",")[-1]) <= 1e-8

    def test_huge_step_count_finishes_at_once(self, tmp_path):
        # One segment of 100 * 1e6 / 4e-3 = 2.5e10 RK4 steps.
        path = write(tmp_path, CLASSICAL_CONFIG.format(omega=1e6, gamma=0.0, t_end=100.0, num_points=2))
        out = tmp_path / "traj.csv"
        start = time.perf_counter()
        code = cli.main(["classical", "--config", path, "--out", str(out)])
        elapsed = time.perf_counter() - start
        assert code == cli.EXIT_OK
        assert elapsed < 1.0
        assert len(out.read_text(encoding="utf-8").strip().split("\n")[1:]) == 2

    @pytest.mark.parametrize("gamma", ["0.0", "5e-301"])
    def test_underflowing_big_omega_exits_0(self, tmp_path, capsys, gamma):
        # omega = 1e-300 passes omega > gamma, and Omega underflows to 0: the
        # closed form is then [[1, t], [0, 1]], where it once divided by 0.
        text = CLASSICAL_CONFIG.format(omega="1e-300", gamma=gamma, t_end=10.0, num_points=11)
        path = write(tmp_path, text.replace("y0 = 0.0", "y0 = 1.0"))
        assert cli.main(["classical", "--config", path]) == cli.EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = [[float(v) for v in line.split(",")] for line in captured.out.split("\n")[1:-1]]
        assert len(rows) == 11
        for t, x_analytic, _, _, _, deviation in rows:
            assert x_analytic == 1.0 + t
            assert deviation < 1e-12

    def test_overdamped_flags_analytic_columns(self, tmp_path):
        path = write(tmp_path, CLASSICAL_CONFIG.format(omega=1.0, gamma=2.0, t_end=4.0, num_points=5))
        with pytest.warns(UserWarning, match="analytic columns unsupported") as caught:
            csv = cli.cmd_classical(config.load_classical_config(path))
        assert [str(w.message) for w in caught] == [
            "omega=1.0 <= gamma=2.0: analytic columns unsupported (RK4 only)"
        ]
        for line in csv.strip().split("\n")[1:]:
            fields = line.split(",")
            assert fields[1] == "" and fields[2] == "" and fields[5] == ""
            assert fields[3] != ""


class TestCmdVerify:
    def test_fresh_build_passes(self):
        report, code = cli.cmd_verify()
        assert code == cli.EXIT_OK
        assert "RESULT pass" in report
        for line in report.strip().split("\n")[:-1]:
            assert "identity=" in line and "max_residual=" in line and "tol=" in line

    def test_sign_flip_mutation_is_caught(self, monkeypatch):
        # Flip the sign of the lowering-series amplitude and verify the
        # disentangling suites notice.
        original = qdho.su11.disentangling_coefficients

        def flipped(mu, nu, t):
            c = original(mu, nu, t)
            return dataclasses.replace(c, e_coef=-c.e_coef)

        monkeypatch.setattr(qdho.su11, "disentangling_coefficients", flipped)
        suites = {s.name: s for s in verification.run_identity_suites()}
        assert not suites["disentangling-2x2"].passed
        assert not suites["disentangling-superop"].passed
        report, code = cli.cmd_verify()
        assert code == cli.EXIT_TOLERANCE
        assert "RESULT fail" in report

    @pytest.mark.parametrize(
        "which, row, col, value",
        [
            # K0 gains an off-diagonal entry.
            (0, 0, 1, 1e-3),
            # K+ couples entry (0, 0), sector 0, to entry (0, 1), sector 1.
            (1, 0, 1, 1.0),
        ],
    )
    def test_sector_mixing_mutation_is_caught(self, monkeypatch, which, row, col, value):
        original = liouville.k_superoperators

        def mutated(trunc):
            ops = original(trunc)
            ops[which][row, col] = value
            return ops

        monkeypatch.setattr(liouville, "k_superoperators", mutated)
        assert not verification.suite_k0_commutativity().passed
        report, code = cli.cmd_verify()
        assert code == cli.EXIT_TOLERANCE
        assert "RESULT fail" in report


class TestMainEntry:
    def test_usage_error_exits_1(self, capsys):
        assert cli.main(["evolve"]) == cli.EXIT_VALIDATION  # missing --config
        assert cli.main(["no-such-verb"]) == cli.EXIT_VALIDATION

    def test_missing_config_file_exits_1(self):
        assert cli.main(["evolve", "--config", "/nonexistent.ini"]) == cli.EXIT_VALIDATION

    def test_overdamped_warning_prints_through_main(self, tmp_path, capsys):
        path = write(tmp_path, CLASSICAL_CONFIG.format(omega=2.0, gamma=3.0, t_end=1.0, num_points=3))
        assert cli.main(["classical", "--config", path]) == cli.EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: omega=2.0 <= gamma=3.0: analytic columns unsupported (RK4 only)\n"
        )
        assert captured.out.startswith("t,x_analytic,")

    @pytest.mark.parametrize("verb", ["verify", "evolve"])
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_out_exits_1_with_one_line(self, tmp_path, capsys, verb, target):
        out = tmp_path / "absent" / "x.txt" if target == "missing-dir" else tmp_path
        argv = [verb, "--out", str(out)]
        if verb == "evolve":
            argv += ["--config", write(tmp_path, QUANTUM_CONFIG)]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: cannot write output file {out}: ")

    def test_evolve_writes_file(self, tmp_path, capsys):
        cfg_path = write(tmp_path, QUANTUM_CONFIG)
        out_path = tmp_path / "series.csv"
        assert cli.main(["evolve", "--config", cfg_path, "--out", str(out_path)]) == cli.EXIT_OK
        text = out_path.read_text(encoding="utf-8")
        assert text.startswith("t,trace_re,expect_n,purity,")
        assert "\r" not in text

    @pytest.mark.parametrize(
        "verb, extra",
        [
            ("steady", ["--check-truncation"]),
            # Tolerances come from [tolerances] alone.
            ("evolve", ["--tol-override", "oracle_tol=1e-3"]),
            ("compare", ["--tol-override", "oracle_tol=1e-3"]),
            ("steady", ["--tol-override", "oracle_tol=1e-3"]),
            ("classical", ["--check-truncation"]),
            ("classical", ["--tol-override", "oracle_tol=1e-3"]),
            ("verify", ["--config", "{quantum}"]),
            ("verify", ["--check-truncation"]),
            ("verify", ["--tol-override", "oracle_tol=1e-3"]),
        ],
    )
    def test_flag_a_verb_does_not_read_exits_1(self, tmp_path, capsys, verb, extra):
        quantum = write(tmp_path, QUANTUM_CONFIG)
        classical_cfg = write(
            tmp_path, CLASSICAL_CONFIG.format(omega=1.0, gamma=0.0, t_end=1.0, num_points=2), "c.ini"
        )
        config_of = {"evolve": quantum, "compare": quantum, "steady": quantum,
                     "classical": classical_cfg}
        argv = [verb] + (["--config", config_of[verb]] if verb in config_of else [])
        argv += [arg.format(quantum=quantum) for arg in extra]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage: qdho {verb} [-h] ")
        assert "unrecognized arguments" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "text, named",
        [
            (COMPARE_CONFIG.replace("nu = 0.4", "nuu = 0.4"), "nuu"),
            (COMPARE_CONFIG + "\n[tolerances]\ndegeneracy_threshold = 1e-6\n", "degeneracy_threshold"),
        ],
    )
    def test_unknown_key_exits_1(self, tmp_path, capsys, text, named):
        cfg_path = write(tmp_path, text)
        assert cli.main(["evolve", "--config", cfg_path]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""

    def test_large_t_reaches_the_thermal_state(self, tmp_path, capsys):
        # mu = 1, nu = 0.4: the fixed point is thermal with n_bar = 2/3, so
        # p_n = 0.6 * 0.4^n. At t = 1e6, F itself would overflow.
        cfg_path = write(tmp_path, COMPARE_CONFIG.replace("t_end = 1.0", "t_end = 1e6"))
        assert cli.main(["evolve", "--config", cfg_path]) == cli.EXIT_OK
        header, _, *rows = capsys.readouterr().out.strip().split("\n")
        assert len(rows) == 2
        for row in rows:
            values = dict(zip(header.split(","), map(float, row.split(","))))
            for n in range(5):
                assert abs(values[f"p{n}"] - 0.6 * 0.4**n) <= 1e-12

    GAIN_WARNING = (
        "warning: pump nu=1.5 exceeds loss mu=0.2: no steady state exists and "
        "truncation error grows with t"
    )

    def test_gain_run_with_finite_prefactor_fails_its_certificate(self, tmp_path, capsys):
        text = QUANTUM_CONFIG.replace("mu = 1.0", "mu = 0.2").replace("nu = 0.0", "nu = 1.5")
        cfg_path = write(tmp_path, text.replace("t_end = 1.0", "t_end = 10.0"))
        assert qdho.su11.disentangling_coefficients(0.2, 1.5, 10.0).prefactor > 0.0
        code = cli.main(["evolve", "--config", cfg_path, "--check-truncation"])
        assert code == cli.EXIT_TOLERANCE
        warning, failure = capsys.readouterr().err.splitlines()
        assert warning == self.GAIN_WARNING
        assert failure.startswith("tolerance failure: truncation not converged at t=10:")

    def test_gain_run_past_prefactor_underflow_exits_1(self, tmp_path, capsys):
        # (nu - mu) t = 1300 > ~745: e^{-(nu - mu) t} underflows to 0.
        text = QUANTUM_CONFIG.replace("mu = 1.0", "mu = 0.2").replace("nu = 0.0", "nu = 1.5")
        cfg_path = write(tmp_path, text.replace("t_end = 1.0", "t_end = 1e3"))
        code = cli.main(["evolve", "--config", cfg_path, "--check-truncation"])
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            self.GAIN_WARNING,
            "error: prefactor must be positive, got 0.0",
        ]

    @pytest.mark.parametrize("method", ["analytic", "expm", "rk4"])
    def test_gain_warning_prints_once_per_run(self, tmp_path, capsys, method):
        # Each method checks its whole grid once, so it warns once; main
        # would print a repeated message once anyway.
        text = COMPARE_CONFIG.replace("mu = 1.0", "mu = 0.2").replace("nu = 0.4", "nu = 1.5")
        text = text.replace("t_end = 1.0", "t_end = 0.1").replace("method = analytic", f"method = {method}")
        assert cli.main(["evolve", "--config", write(tmp_path, text)]) == cli.EXIT_OK
        assert capsys.readouterr().err == self.GAIN_WARNING + "\n"

    def test_runtime_warning_in_a_verb_still_raises(self, monkeypatch):
        # The warning recorder adds no filter: under the suite's
        # error::RuntimeWarning a numpy warning inside a verb still fails.
        def overflowing():
            return np.float64(1e308) * 10.0, cli.EXIT_OK

        monkeypatch.setattr(cli, "cmd_verify", overflowing)
        with pytest.raises(RuntimeWarning, match="overflow"):
            cli.main(["verify"])

    @pytest.mark.parametrize(
        "verb, method, nu",
        [
            ("evolve", "analytic", "0.4"),
            ("evolve", "expm", "0.4"),
            ("evolve", "rk4", "0.4"),
            ("evolve", "analytic", "0.0"),
            ("compare", "analytic", "0.4"),
            ("steady", "analytic", "0.4"),
        ],
    )
    def test_overflowing_rate_exits_1(self, tmp_path, capsys, verb, method, nu):
        # omega t overflows in the phase and the RK4 step count; each path
        # refuses it, naming the overflow, before any numpy work warns.
        text = (
            COMPARE_CONFIG.replace("omega = 6.283185307179586", "omega = 1e308")
            .replace("nu = 0.4", f"nu = {nu}")
            .replace("t_end = 1.0", "t_end = 3.0")
            .replace("method = analytic", f"method = {method}")
        )
        cfg_path = write(tmp_path, text)
        assert cli.main([verb, "--config", cfg_path]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "overflows double precision" in captured.err

    @pytest.mark.parametrize(
        "edits, verb, message",
        [
            # The one rate bound of every method, even on a grid of t = 0 only.
            ({"omega": "1e308", "t_end": "0", "method": "expm"}, "evolve",
             _rate_overflow(omega=1e308, t=0)),
            ({"mu": "1e308", "method": "expm"}, "evolve", _rate_overflow(mu=1e308)),
            ({"mu": "1e308", "method": "rk4"}, "evolve", _rate_overflow(mu=1e308)),
            ({"nu": "1e308", "method": "expm"}, "evolve", _rate_overflow(nu=1e308)),
            ({"mu": "1e308"}, "evolve", _rate_overflow(mu=1e308)),
            ({"mu": "1e308", "nu": "0"}, "evolve", _rate_overflow(mu=1e308, nu=0)),
            ({"mu": "1e308", "t_end": "0"}, "compare", _rate_overflow(mu=1e308, t=0)),
            ({"re": "nan"}, "evolve", "|alpha|^2 = nan exceeds support_max = 9"),
            ({"re": "1e200"}, "evolve", "|alpha|^2 = inf exceeds support_max = 9"),
        ],
    )
    def test_extreme_inputs_exit_1_with_one_line(self, tmp_path, capsys, edits, verb, message):
        # Each of these once made numpy warn (an error under tier-1) before
        # the run failed or, worse, printed a CSV.
        text = COMPARE_CONFIG.replace("t_end = 1.0", "t_end = 3.0")
        for key, value in edits.items():
            text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert cli.main([verb, "--config", write(tmp_path, text)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("n_bar", ["inf", "nan"])
    def test_non_finite_n_bar_exits_1_by_name(self, tmp_path, capsys, n_bar):
        # Both once reached the state check as a matrix of NaNs.
        text = COMPARE_CONFIG.replace(
            "kind = coherent\nre = 1.0\nim = 0.0", f"kind = thermal\nn_bar = {n_bar}"
        )
        assert cli.main(["evolve", "--config", write(tmp_path, text)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: n_bar must be finite, got {n_bar}\n"

    def test_overflowing_classical_start_exits_1(self, tmp_path, capsys):
        text = CLASSICAL_CONFIG.format(omega=2.0, gamma=0.0, t_end=1.0, num_points=3)
        cfg_path = write(tmp_path, text.replace("x0 = 1.0", "x0 = 1e308"))
        assert cli.main(["classical", "--config", cfg_path]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: phase point must be finite, got (")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "omega, gamma, t_end",
        [("1e200", "1.0", "10.0"), ("2.0", "1e308", "10.0"), ("2.0", "1e306", "10.0")],
    )
    def test_overflowing_classical_rate_exits_1(self, tmp_path, capsys, omega, gamma, t_end):
        text = CLASSICAL_CONFIG.format(omega=omega, gamma=gamma, t_end=t_end, num_points=11)
        assert cli.main(["classical", "--config", write(tmp_path, text)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows double precision" in captured.err

    def test_tolerances_section_sets_oracle_tol(self, tmp_path):
        cfg_path = write(tmp_path, COMPARE_CONFIG + "\n[tolerances]\noracle_tol = 1e-15\n")
        code = cli.main(["compare", "--config", cfg_path, "--out", "stdout"])
        assert code == cli.EXIT_TOLERANCE

    @pytest.mark.parametrize("value, shown", [("nan", "nan"), ("inf", "inf"), ("0", "0.0"),
                                              ("-1", "-1.0")])
    def test_bad_steady_tol_exits_1(self, tmp_path, capsys, value, shown):
        # Left unchecked, nan and -1 fail every steady run and inf passes any.
        cfg_path = write(tmp_path, COMPARE_CONFIG + f"steady_tol = {value}\n")
        assert cli.main(["steady", "--config", cfg_path]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: steady_tol must be positive and finite, got {shown}\n"

    def test_rk4_over_step_budget_exits_1(self, tmp_path, monkeypatch):
        text = QUANTUM_CONFIG.replace("omega = 0.0", "omega = 1e8").replace(
            "method = analytic", "method = rk4"
        )
        cfg_path = write(tmp_path, text)

        def no_stepping(*args, **kwargs):
            raise AssertionError("RK4 set up its right-hand side despite the step budget")

        # 2 x 7e9 steps are asked for; the budget must refuse them before any step.
        monkeypatch.setattr(cli.liouville, "_literal_rhs", no_stepping)
        assert cli.main(["evolve", "--config", cfg_path]) == cli.EXIT_VALIDATION

    def test_rk4_over_work_budget_exits_1(self, tmp_path, monkeypatch, capsys):
        # 2 x 2.4e6 steps at D = 24: steps x D^2 = 2.8e9 is past the work
        # budget, which refuses before any set-up.
        text = (
            QUANTUM_CONFIG.replace("omega = 0.0", "omega = 1e4")
            .replace("support_max = 1", "support_max = 1\nguard = 22")
            .replace("method = analytic", "method = rk4")
        )
        cfg = config.load_run_config(write(tmp_path, text))
        steps = 2 * cli.liouville.stability_steps(cfg.params, cfg.trunc.dim, 1.0)
        assert steps * cfg.trunc.dim**2 > cli.liouville.RK4_MAX_WORK

        def no_stepping(*args, **kwargs):
            raise AssertionError("RK4 set up its right-hand side despite the work budget")

        monkeypatch.setattr(cli.liouville, "_literal_rhs", no_stepping)
        assert cli.main(["evolve", "--config", write(tmp_path, text)]) == cli.EXIT_VALIDATION
        assert "work budget" in capsys.readouterr().err

    def test_rk4_work_budget_admits_its_limit_and_refuses_past_it(self, tmp_path, capsys):
        # At D = 2 a segment of t = 1 takes 2 ceil(20 omega) steps: exactly
        # 5e7 steps x D^2 = 2e8 runs, 50,000,002 steps are refused.
        text = (
            QUANTUM_CONFIG.replace("mu = 1.0", "mu = 0.0")
            .replace("support_max = 1", "support_max = 1\nguard = 0")
            .replace("method = analytic", "method = rk4")
        )
        at_limit = write(tmp_path, text.replace("omega = 0.0", "omega = 1249999.975"), "at.ini")
        past = write(tmp_path, text.replace("omega = 0.0", "omega = 1250000.025"), "past.ini")
        assert cli.main(["evolve", "--config", at_limit]) == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        assert cli.main(["evolve", "--config", past]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: 5.000e+7 RK4 steps at D = 2 exceed the work budget of 2.0e+08 steps x D^2; "
            "lower omega, mu + nu, the dimension or the time step\n"
        )

    @pytest.mark.parametrize(
        "admitted, refused, line",
        [
            ((246, 3), (247, 3),
             "[truncation]: D = support_max + guard + 1 = 257 exceeds the budget of 256 levels"),
            ((0, 100_000), (0, 100_001), "[grid] num_points: 100001 exceeds the budget of 100000"),
            ((14, 29_127), (14, 29_128),
             "[grid] num_points: 29128 states at D = 24 take 268443648 bytes, over the budget "
             "of 268435456 bytes"),
        ],
        ids=["dim", "grid", "state-bytes"],
    )
    def test_config_budget_admits_its_limit_and_refuses_past_it(
        self, tmp_path, monkeypatch, capsys, admitted, refused, line
    ):
        # (guard, num_points) at and one past each literal limit: D = 256,
        # 10^5 points (at D = 10) and 256 MiB of states (29,127 at D = 24).
        def config_path(guard, num_points):
            text = COMPARE_CONFIG.replace("guard = 14", f"guard = {guard}").replace(
                "num_points = 3", f"num_points = {num_points}"
            )
            return write(tmp_path, text, f"{guard}_{num_points}.ini")

        config.load_run_config(config_path(*admitted))

        def no_state(*args, **kwargs):
            raise AssertionError("an initial state was built despite the config budget")

        monkeypatch.setattr(cli, "build_initial_state", no_state)
        assert cli.main(["evolve", "--config", config_path(*refused)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {line}\n"

    @pytest.mark.parametrize(
        "guard, num_points, key",
        [
            (100000, 3, "support_max + guard + 1"),
            (14, 10**9, "num_points"),
            (118, 20000, "bytes"),  # D = 128: 5.2 GB of states
        ],
        ids=["dim", "grid", "state-bytes"],
    )
    def test_config_over_budget_exits_1_at_once(
        self, tmp_path, monkeypatch, capsys, guard, num_points, key
    ):
        text = COMPARE_CONFIG.replace("guard = 14", f"guard = {guard}").replace(
            "num_points = 3", f"num_points = {num_points}"
        )
        cfg_path = write(tmp_path, text)

        def no_state(*args, **kwargs):
            raise AssertionError("an initial state was built despite the config budget")

        monkeypatch.setattr(cli, "build_initial_state", no_state)
        start = time.perf_counter()
        code = cli.main(["evolve", "--config", cfg_path])
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "budget" in err and key in err

    @pytest.mark.parametrize(
        "support_max, guard, num_points",
        [(9, 14, 101), (19, 28, 11), (15, 48, 11), (23, 72, 11), (0, 31, 1), (1, 127, 2)],
        ids=["d24x101", "d48x11", "d64x11", "d96x11", "d32x1", "d129x2"],
    )
    def test_largest_runs_are_admitted(self, tmp_path, support_max, guard, num_points):
        # The benchmark's run shapes, and the largest D tier-1 reads from a
        # config (one level over the sector oracle's budget).
        text = (
            COMPARE_CONFIG.replace("support_max = 9", f"support_max = {support_max}")
            .replace("guard = 14", f"guard = {guard}")
            .replace("num_points = 3", f"num_points = {num_points}")
            .replace("t_end = 1.0", "t_end = 0.0" if num_points == 1 else "t_end = 1.0")
        )
        cfg = config.load_run_config(write(tmp_path, text))
        assert (cfg.trunc.dim, cfg.grid.num_points) == (support_max + guard + 1, num_points)

    def test_failed_certificate_exits_2_without_csv(self, tmp_path, capsys):
        text = COMPARE_CONFIG.replace("mu = 1.0", "mu = 0.5").replace(
            "nu = 0.4", "nu = 0.5"
        ).replace("guard = 14", "guard = 2").replace("t_end = 1.0", "t_end = 3.0")
        cfg_path = write(tmp_path, text)
        out = tmp_path / "series.csv"
        code = cli.main(["evolve", "--config", cfg_path, "--out", str(out), "--check-truncation"])
        assert code == cli.EXIT_TOLERANCE
        assert not out.exists()
        assert "tolerance failure: truncation not converged at t=" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["analytic", "expm", "rk4"])
    def test_weight_pumped_past_the_doubled_space_fails_the_certificate(
        self, tmp_path, capsys, method
    ):
        # A pure pump carries Fock level 4 of D = 9 past level 17 by t = 3:
        # the D and 2D runs both read ~0 on and above the cutoff, and only
        # the trace the 2D run lost shows the escape.
        edits = {**cli_runs.PUMP, **cli_runs.sets(method=method)}
        path = write(tmp_path, cli_runs.config_text(cli_runs.COHERENT, edits))
        capsys.readouterr()
        assert cli.main(["evolve", "--config", path, "--check-truncation"]) == cli.EXIT_TOLERANCE
        captured = capsys.readouterr()
        assert captured.out == ""
        warning, failure = captured.err.splitlines()
        assert warning.startswith("warning: pump nu=2.0 exceeds loss mu=0.0: ")
        assert failure.startswith("tolerance failure: truncation not converged at t=3: ")

    def test_dense_oracle_over_size_budget_exits_1(self, tmp_path, monkeypatch, capsys):
        # The expm oracle runs by sectors; one level above its budget it must
        # refuse before building a block or an exponential.
        dim = cli.liouville.ORACLE_MAX_DIM + 1
        text = QUANTUM_CONFIG.replace(
            "support_max = 1", f"support_max = 1\nguard = {dim - 2}"
        ).replace("method = analytic", "method = expm")
        cfg_path = write(tmp_path, text)

        def no_blocks(*args, **kwargs):
            raise AssertionError("the expm oracle built its blocks despite the budget")

        for name in ("liouvillian_sector", "expm"):
            monkeypatch.setattr(cli.liouville, name, no_blocks)
        assert cli.main(["evolve", "--config", cfg_path]) == cli.EXIT_VALIDATION
        assert f"budget is D <= {cli.liouville.ORACLE_MAX_DIM}" in capsys.readouterr().err

    def test_expm_oracle_runs_above_dense_budget(self, tmp_path):
        # D = 96 is past the dense Liouvillian's budget but well inside the
        # sector oracle's; its CSV must match the closed form.
        text = COMPARE_CONFIG.replace("guard = 14", "guard = 86")
        analytic_path = write(tmp_path, text)
        expm_path = write(tmp_path, text.replace("method = analytic", "method = expm"), "expm.ini")
        assert cli.liouville.DENSE_MAX_DIM < 96 <= cli.liouville.ORACLE_MAX_DIM
        outputs = []
        for cfg_path in (analytic_path, expm_path):
            out = tmp_path / f"{len(outputs)}.csv"
            assert cli.main(["evolve", "--config", cfg_path, "--out", str(out)]) == cli.EXIT_OK
            outputs.append(out.read_text(encoding="utf-8").strip().split("\n"))
        ref, got = outputs
        assert len(ref) == len(got) == 4 and ref[0] == got[0]
        for ref_row, got_row in zip(ref[1:], got[1:]):
            for a, b in zip(ref_row.split(","), got_row.split(",")):
                assert abs(float(a) - float(b)) <= 1e-10

    def test_numeric_failure_exits_3(self, tmp_path, monkeypatch):
        cfg_path = write(tmp_path, QUANTUM_CONFIG)

        def explode(*args, **kwargs):
            raise ArithmeticError("synthetic numeric breakdown")

        monkeypatch.setattr(cli.observables, "expect_n", explode)
        assert cli.main(["evolve", "--config", cfg_path]) == cli.EXIT_NUMERIC

    @pytest.mark.parametrize(
        "error, detail",
        [
            (MemoryError("Unable to allocate 5.00 GiB for an array"), ": Unable to allocate 5.00 GiB"),
            (MemoryError(), ""),
        ],
    )
    def test_out_of_memory_exits_3_with_one_line(self, monkeypatch, capsys, error, detail):
        def exhaust(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "cmd_verify", exhaust)
        assert cli.main(["verify"]) == cli.EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric failure: out of memory" + detail)
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


class TestNonFiniteOutput:
    """A NaN out of the evolution is refused with ValueError, and the CLI exits 1.

    The closed form's Hermiticity guard lets a NaN through, as a NaN
    deviation compares False; the finiteness check behind it refuses it.
    Each method's core is patched to return NaN values of the right shape.
    """

    @staticmethod
    def _nan_everywhere(monkeypatch):
        series = propagator._series
        blocks = liouville._cached_propagator.__wrapped__
        powers = liouville._rk4_powers.__wrapped__

        def nan_like(arrays):
            return tuple(np.full_like(a, np.nan) for a in arrays)

        monkeypatch.setattr(propagator, "_series", lambda *a: np.full_like(series(*a), np.nan))
        monkeypatch.setattr(liouville, "_cached_propagator", lambda *a: nan_like(blocks(*a)))
        monkeypatch.setattr(liouville, "_rk4_powers", lambda *a: nan_like(powers(*a)))

    @pytest.mark.parametrize(
        "evolve",
        [
            lambda rho0, p, ts: propagator.evolve_analytic_grid(rho0, p, ts),
            lambda rho0, p, ts: propagator.evolve_analytic_grid(rho0, p, ts, certify=True),
            liouville.evolve_numeric_expm_grid,
            liouville.evolve_numeric_rk4_grid,
        ],
        ids=["analytic", "certified", "expm", "rk4"],
    )
    def test_grid_refuses_nan(self, monkeypatch, evolve):
        self._nan_everywhere(monkeypatch)
        rho0 = fock.coherent_state(0.5, fock.TruncationConfig.for_support(3))
        with pytest.raises(ValueError, match="NaN/Inf"):
            evolve(rho0, fock.ModelParams(omega=1.0, mu=1.0), [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("method", ["analytic", "expm", "rk4"])
    @pytest.mark.parametrize("flags", [[], ["--check-truncation"]])
    def test_evolve_exits_1_with_one_error_line(self, tmp_path, monkeypatch, capsys, method, flags):
        self._nan_everywhere(monkeypatch)
        path = write(tmp_path, QUANTUM_CONFIG.replace("method = analytic", f"method = {method}"))
        capsys.readouterr()
        assert cli.main(["evolve", "--config", path, *flags]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: density matrix contains NaN/Inf entries\n"


@pytest.mark.parametrize("run", cli_runs.RUNS, ids=lambda run: run.name)
def test_cli_run(tmp_path, capsys, run):
    """Each row of tests/cli_runs.py, in process through cli.main."""
    args = run.argv(tmp_path / "run.ini")
    capsys.readouterr()
    code = cli.main(args)
    captured = capsys.readouterr()
    assert cli_runs.mismatches(run, code, captured.out, captured.err) == []


@pytest.mark.parametrize("name", ["verify", "malformed mu", "stray flag"])
def test_cli_run_by_subprocess(tmp_path, name):
    """The runner that ``python tests/cli_runs.py`` drives, on three cheap rows."""
    run = next(run for run in cli_runs.RUNS if run.name == name)
    # The child imports the qdho that this process imported.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    args = run.argv(tmp_path / "run.ini")
    result = cli_runs.run_command([sys.executable, "-m", "qdho"], args, tmp_path, env)
    assert cli_runs.mismatches(run, *result) == []


def test_cli_runs_match_the_goldens_and_configs():
    """Each golden file is one row's; each row's edits replace one config line each."""
    goldens = sorted(run.golden for run in cli_runs.RUNS if run.golden is not None)
    assert goldens == sorted(path.name for path in cli_runs.GOLDEN.iterdir())
    assert len({run.name for run in cli_runs.RUNS}) == len(cli_runs.RUNS)
    for run in cli_runs.RUNS:
        if run.config is not None:
            cli_runs.config_text(run.config, run.edits)  # ValueError unless one line per edit


def test_cli_run_mismatches_name_each_departure():
    run = next(run for run in cli_runs.RUNS if run.name == "compare")
    out = (cli_runs.GOLDEN / run.golden).read_text().replace("max expm_vs_rk4=1.", "max expm_vs_rk4=11.")
    assert cli_runs.mismatches(run, 2, out, "warning: x\n") == [
        "exit 2, expected 0",
        "stdout line 10 is 'max expm_vs_rk4=11.861609e-11 (tol 1.0e-07)\\n'; tests/golden/"
        "compare_damped_coherent.txt has 'max expm_vs_rk4=1.861609e-11 (tol 1.0e-07)\\n'",
        "stdout fails oracles_agree",
        "stderr is 'warning: x\\n', expected ''",
    ]


class TestOneRateBound:
    """Every method on configs/damped_coherent.ini (D = 24, t_end = 3) near the rate bound.

    8 (omega + mu + nu) D max(1, t) overflows past mu ~ 3.1e305 here. Below
    it every run finishes with no numpy warning, which the suite's
    error::RuntimeWarning would raise: `evolve` prints its CSV, and RK4
    runs, `compare`'s included, stop at the RK4 oracle's work budget. Above
    it every run exits 1 with the one error line of
    :func:`qdho.fock.check_evolution_args`.
    """

    RUNS = [
        ("evolve", {}, []),
        ("evolve", {}, ["--check-truncation"]),
        ("evolve", {"nu": "0"}, []),
        ("evolve", {"method": "expm"}, []),
        ("evolve", {"method": "rk4"}, []),
        ("compare", {}, []),
    ]
    RK4_BUDGET = (
        r"error: \d\.\d{3}e\+\d+ RK4 steps at D = 24 exceed the work budget of "
        r"2\.0e\+08 steps x D\^2; [^\n]*\n"
    )

    def _run(self, tmp_path, capsys, mu, verb, edits, flags):
        path = tmp_path / "run.ini"
        path.write_text(cli_runs.config_text(cli_runs.COHERENT, cli_runs.sets(mu=mu, **edits)))
        capsys.readouterr()
        code = cli.main([verb, "--config", str(path), *flags])
        return code, capsys.readouterr()

    @pytest.mark.parametrize("verb, edits, flags", RUNS)
    def test_below_the_bound_runs(self, tmp_path, capsys, verb, edits, flags):
        code, captured = self._run(tmp_path, capsys, "3e305", verb, edits, flags)
        if verb == "compare" or edits.get("method") == "rk4":
            assert code == cli.EXIT_VALIDATION
            assert re.fullmatch(self.RK4_BUDGET, captured.err)
            assert len(captured.err) < 200
        else:
            assert (code, captured.err) == (cli.EXIT_OK, "")
            assert captured.out.startswith("t,trace_re,")

    @pytest.mark.parametrize("mu", ["5e305", "1e306"])
    @pytest.mark.parametrize("verb, edits, flags", RUNS)
    def test_past_the_bound_exits_1(self, tmp_path, capsys, mu, verb, edits, flags):
        code, captured = self._run(tmp_path, capsys, mu, verb, edits, flags)
        assert code == cli.EXIT_VALIDATION
        assert captured.out == ""
        nu = float(edits.get("nu", 0.4))
        assert captured.err == f"error: {_rate_overflow(mu=float(mu), nu=nu)}\n"
