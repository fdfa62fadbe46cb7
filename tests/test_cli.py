import dataclasses
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

import qdho.su11
from qdho import cli, config, fock, propagator, verification

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

    def test_rejects_bad_mixture_weights(self, tmp_path):
        text = QUANTUM_CONFIG.replace("kind = fock\nn = 1", "kind = mixture\nterms = 0:0.5 1:0.6")
        with pytest.raises(config.ConfigError):
            config.load_run_config(write(tmp_path, text))

    def test_rejects_unknown_method(self, tmp_path):
        with pytest.raises(config.ConfigError):
            config.load_run_config(write(tmp_path, QUANTUM_CONFIG.replace("analytic", "magic")))

    def test_nu_zero_method_requires_zero_pump(self, tmp_path):
        text = COMPARE_CONFIG.replace("method = analytic", "method = nu-zero")
        with pytest.raises(config.ConfigError):
            config.load_run_config(write(tmp_path, text))

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
            ("method = analytic", "method = analytic\ncheck_truncation = maybe",
             "[run] check_truncation: expected a boolean, got 'maybe'"),
            ("t_end = 1.0\n", "", "[grid] t_end: required key is missing"),
            ("[grid]", "[grids]", "missing required section [grid] in {path}"),
            ("method = analytic", "method = analytic\ncolour = red", "[run] colour: unknown key"),
            ("mu = 1.0", "mu = fast", "[model] mu: expected a number, got 'fast'"),
            ("mu = 1.0", "mu = -1.0", "[model]: omega, mu, nu must be non-negative"),
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

    def test_classical_rejects_misspelled_key(self, tmp_path):
        text = CLASSICAL_CONFIG.format(omega=2.0, gamma=1.0, t_end=10.0, num_points=5)
        path = write(tmp_path, text.replace("gamma = 1.0", "gama = 1.0"))
        with pytest.raises(config.ConfigError, match=r"\[classical\] gama: unknown key"):
            config.load_classical_config(path)

    def test_classical_round_trip(self, tmp_path):
        path = write(tmp_path, CLASSICAL_CONFIG.format(omega=2.0, gamma=1.0, t_end=10.0, num_points=5))
        ccfg = config.load_classical_config(path)
        assert ccfg.omega == 2.0 and ccfg.gamma == 1.0
        assert ccfg.grid.times()[-1] == 10.0


class TestToleranceConfig:
    def test_overrides(self):
        tols = config.DEFAULT_TOLERANCES.replaced(["oracle_tol=1e-6", "trace_tol=2e-9"])
        assert tols.oracle_tol == 1e-6
        assert tols.trace_tol == 2e-9
        assert tols.positivity_tol == config.DEFAULT_TOLERANCES.positivity_tol

    def test_rejects_unknown_key(self):
        with pytest.raises(config.ConfigError):
            config.DEFAULT_TOLERANCES.replaced(["sloppiness=1"])

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

    @pytest.mark.parametrize("method", ["expm", "rk4", "nu-zero"])
    def test_methods_agree_on_observables(self, tmp_path, method):
        base = config.load_run_config(write(tmp_path, QUANTUM_CONFIG))
        alt = config.load_run_config(
            write(tmp_path, QUANTUM_CONFIG.replace("method = analytic", f"method = {method}"), "alt.ini")
        )
        ref_rows = cli.cmd_evolve(base).strip().split("\n")[1:]
        alt_rows = cli.cmd_evolve(alt).strip().split("\n")[1:]
        for ref, got in zip(ref_rows, alt_rows):
            for a, b in zip(ref.split(","), got.split(",")):
                assert abs(float(a) - float(b)) <= 1e-8

    def test_check_truncation_passes_for_damped_run(self, tmp_path):
        text = COMPARE_CONFIG.replace("check_truncation = false", "")
        cfg = dataclasses.replace(
            config.load_run_config(write(tmp_path, text)), check_truncation=True
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

        def counting_check(rho0, *args, **kwargs):
            checked.append(rho0.dim)
            return original_check(rho0, *args, **kwargs)

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

    @pytest.mark.parametrize("method", ["analytic", "nu-zero"])
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
            cfg, tolerances=cfg.tolerances.replaced(["oracle_tol=1e-15"])
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
        csv, warns = cli.cmd_classical(config.load_classical_config(path))
        assert not warns
        last = csv.strip().split("\n")[-1].split(",")
        assert abs(float(last[1]) - 1.0) <= 1e-10  # x_analytic(2 pi) = 1

    def test_underdamped_deviation_column_small(self, tmp_path):
        path = write(tmp_path, CLASSICAL_CONFIG.format(omega=2.0, gamma=1.0, t_end=10.0, num_points=11))
        csv, _ = cli.cmd_classical(config.load_classical_config(path))
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

    def test_overdamped_flags_analytic_columns(self, tmp_path):
        path = write(tmp_path, CLASSICAL_CONFIG.format(omega=1.0, gamma=2.0, t_end=4.0, num_points=5))
        csv, warns = cli.cmd_classical(config.load_classical_config(path))
        assert warns and "unsupported" in warns[0]
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


class TestMainEntry:
    def test_usage_error_exits_1(self, capsys):
        assert cli.main(["evolve"]) == cli.EXIT_VALIDATION  # missing --config
        assert cli.main(["no-such-verb"]) == cli.EXIT_VALIDATION

    def test_missing_config_file_exits_1(self):
        assert cli.main(["evolve", "--config", "/nonexistent.ini"]) == cli.EXIT_VALIDATION

    def test_verify_runs_without_config(self, capsys):
        assert cli.main(["verify"]) == cli.EXIT_OK
        assert "RESULT pass" in capsys.readouterr().out

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
        config_of = {"steady": quantum, "classical": classical_cfg}
        argv = [verb] + (["--config", config_of[verb]] if verb in config_of else [])
        argv += [arg.format(quantum=quantum) for arg in extra]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "text, extra, named",
        [
            (COMPARE_CONFIG.replace("nu = 0.4", "nuu = 0.4"), [], "nuu"),
            (COMPARE_CONFIG + "\n[tolerances]\ndegeneracy_threshold = 1e-6\n", [], "degeneracy_threshold"),
            (COMPARE_CONFIG, ["--tol-override", "degeneracy_threshold=1e-6"], "degeneracy_threshold"),
        ],
    )
    def test_unknown_key_exits_1(self, tmp_path, capsys, text, extra, named):
        cfg_path = write(tmp_path, text)
        assert cli.main(["evolve", "--config", cfg_path] + extra) == cli.EXIT_VALIDATION
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

    def test_gain_run_with_finite_prefactor_fails_its_certificate(self, tmp_path, capsys):
        text = QUANTUM_CONFIG.replace("mu = 1.0", "mu = 0.2").replace("nu = 0.0", "nu = 1.5")
        cfg_path = write(tmp_path, text.replace("t_end = 1.0", "t_end = 10.0"))
        assert qdho.su11.disentangling_coefficients(0.2, 1.5, 10.0).prefactor > 0.0
        with pytest.warns(propagator.GainWarning):
            code = cli.main(["evolve", "--config", cfg_path, "--check-truncation"])
        assert code == cli.EXIT_TOLERANCE
        assert "truncation not converged" in capsys.readouterr().err

    def test_gain_run_past_prefactor_underflow_exits_1(self, tmp_path, capsys):
        # (nu - mu) t = 1300 > ~745: e^{-(nu - mu) t} underflows to 0.
        text = QUANTUM_CONFIG.replace("mu = 1.0", "mu = 0.2").replace("nu = 0.0", "nu = 1.5")
        cfg_path = write(tmp_path, text.replace("t_end = 1.0", "t_end = 1e3"))
        with pytest.warns(propagator.GainWarning):
            code = cli.main(["evolve", "--config", cfg_path, "--check-truncation"])
        assert code == cli.EXIT_VALIDATION
        assert "prefactor must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb, method, nu",
        [
            ("evolve", "analytic", "0.4"),
            ("evolve", "expm", "0.4"),
            ("evolve", "rk4", "0.4"),
            ("evolve", "nu-zero", "0.0"),
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
            # The expm oracle's blocks overflow even on a grid of t = 0 only.
            ({"omega": "1e308", "t_end": "0", "method": "expm"}, "evolve",
             "the sector generator at D = 24 overflows double precision"),
            ({"mu": "1e308", "method": "expm"}, "evolve",
             "the sector generator at D = 24 overflows double precision"),
            ({"nu": "1e308", "method": "expm"}, "evolve",
             "the sector generator at D = 24 overflows double precision"),
            # ln F (n - 1) of the series' number exponentials.
            ({"mu": "1e308"}, "evolve", "number exponent at D = 24 overflows double precision"),
            ({"mu": "1e308", "nu": "0", "method": "nu-zero"}, "evolve",
             "number exponent at D = 24 overflows double precision"),
            ({"mu": "1e308", "t_end": "0"}, "compare",
             "the sector generator at D = 24 overflows double precision"),
            ({"re": "nan"}, "evolve", "|alpha|^2 = nan exceeds support_max = 9"),
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

    def test_tol_override_flag(self, tmp_path):
        cfg_path = write(tmp_path, COMPARE_CONFIG)
        code = cli.main(
            ["compare", "--config", cfg_path, "--out", "stdout", "--tol-override", "oracle_tol=1e-15"]
        )
        assert code == cli.EXIT_TOLERANCE

    def test_bad_tol_override_exits_1(self, tmp_path):
        cfg_path = write(tmp_path, COMPARE_CONFIG)
        assert cli.main(["compare", "--config", cfg_path, "--tol-override", "bogus"]) == cli.EXIT_VALIDATION

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
        # 2 x 2.4e6 steps at D = 24 stay inside the step budget, but steps x D^2
        # = 2.8e9 does not; the work budget refuses before any set-up.
        text = (
            QUANTUM_CONFIG.replace("omega = 0.0", "omega = 1e4")
            .replace("support_max = 1", "support_max = 1\nguard = 22")
            .replace("method = analytic", "method = rk4")
        )
        cfg = config.load_run_config(write(tmp_path, text))
        steps = 2 * cli.liouville.stability_steps(cfg.params, cfg.trunc.dim, 1.0)
        assert steps <= cli.liouville.RK4_MAX_STEPS
        assert steps * cfg.trunc.dim**2 > cli.liouville.RK4_MAX_WORK

        def no_stepping(*args, **kwargs):
            raise AssertionError("RK4 set up its right-hand side despite the work budget")

        monkeypatch.setattr(cli.liouville, "_literal_rhs", no_stepping)
        assert cli.main(["evolve", "--config", write(tmp_path, text)]) == cli.EXIT_VALIDATION
        assert "work budget" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "guard, num_points, key",
        [
            (100000, 3, "support_max + guard + 1"),
            (14, 10**9, "num_points"),
            (118, 20000, "MB"),  # D = 128: 5.2 GB of states
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


ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"


class TestGoldenEvolve:
    """`qdho evolve` on configs/damped_coherent.ini against tests/golden, byte for byte.

    The CI's installed-script step diffs the console entry point against
    the same files.
    """

    @pytest.mark.parametrize(
        "golden, edits, flags",
        [
            ("evolve_damped_coherent.csv", {}, []),
            ("evolve_damped_coherent_certified.csv", {}, ["--check-truncation"]),
            ("evolve_damped_coherent_nu_zero.csv", {"nu": "0", "method": "nu-zero"}, []),
        ],
    )
    def test_stdout_equals_golden(self, tmp_path, capsys, golden, edits, flags):
        text = (ROOT / "configs" / "damped_coherent.ini").read_text()
        for key, value in edits.items():
            text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        path = tmp_path / "run.ini"
        path.write_text(text)
        capsys.readouterr()
        assert cli.main(["evolve", "--config", str(path), *flags]) == cli.EXIT_OK
        assert capsys.readouterr().out == (GOLDEN / golden).read_text()
