"""How verify draws its points and folds its residuals.

Verify's points come from the standard library and the tests' from numpy;
every suite's residuals fold through ``np.max``, so a NaN fails.
"""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import cli_runs
import reference
from qdho import cli, liouville, su11, verification


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values).tobytes()).hexdigest()


def test_reference_draws_are_pinned():
    # The numpy draws the tests read, as the verification module drew them
    # when it still used numpy: moving them changed no test's points.
    assert _digest(reference.parameter_grid(200, seed=20240811)) == (
        "73a3d19210d095f33c73202c788b68d5e2d2fd0aa7f96f7c9478a3c34c5a0cc0"
    )
    assert _digest(reference.random_interior_density(12, 8, np.random.default_rng(31415))) == (
        "7da36e9582c275b1cd318b7eda731d45d206432f1d06cd564614e994b57c8382"
    )


def test_verify_draws_are_pinned():
    # random.Random(seed).random() gives one sequence for a seed on every
    # Python version, so verify's points and states are these on any build.
    grid = verification.parameter_grid(200)
    assert len(grid) == 211 and grid[200:] == list(verification.EDGE_POINTS)
    assert all(0.0 <= x < 5.0 for point in grid[:200] for x in point)
    assert _digest(grid) == "b0633eeb175efdd1b3c81cd186704513857a4d3c1e17b109c6ccb31dae4f944a"
    states = verification.superop_states(10, 5, 99)
    assert _digest(states) == "3c913cbf12aef6667928c16bce7083cffa6d99dcea65639579a54f0fa9b336aa"
    for rho in states:
        assert np.abs(rho[7:]).max() == 0.0 and np.abs(rho[:, 7:]).max() == 0.0
        assert abs(np.trace(rho) - 1.0) <= 1e-15
        assert np.linalg.eigvalsh(rho).min() >= -1e-15


def test_no_run_imports_numpy_random(tmp_path):
    """verify, and each verb on the sample configs, leave numpy.random unimported.

    numpy loads ``numpy.random`` on first use only; it costs ~5 MB of RSS
    and pulls in hashlib, hmac and secrets. Each run goes through
    ``cli.main`` in one fresh interpreter, which reports after each run.
    """
    runs = [run for run in cli_runs.RUNS if not run.edits and run.code == 0]
    assert {run.verb for run in runs} == {"verify", "evolve", "compare", "steady", "classical"}
    argvs = [run.argv(tmp_path / f"{k}.ini") for k, run in enumerate(runs)]
    child = textwrap.dedent(
        """
        import contextlib, io, json, sys
        from qdho import cli
        print("import", "numpy.random" in sys.modules)
        for argv in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            print(argv[0], code, "numpy.random" in sys.modules)
        """
    )
    # The child imports the qdho that this process imported.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", child, json.dumps(argvs)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["import False"] + [f"{argv[0]} 0 False" for argv in argvs]


def _with_nan(m: np.ndarray, entry: tuple[int, int]) -> np.ndarray:
    m = np.array(m, dtype=complex)
    m[entry] = math.nan
    return m


#: suite name: (the suite, then the module, function, call (from 0) and
#: change that put one NaN into one of its residuals).
NAN_INJECTIONS = {
    "vectorization-sandwich": (
        verification.suite_sandwich_identity, liouville, "sandwich_check", 50, lambda r: math.nan
    ),
    "su11-2x2-commutators": (
        verification.suite_su11_commutators, su11, "k_generators", 0,
        lambda ks: (ks[0], _with_nan(ks[1], (0, 0)), ks[2]),
    ),
    "disentangling-2x2": (
        verification.suite_disentangling_2x2, su11, "flow", 100, lambda m: _with_nan(m, (0, 1))
    ),
    "gauss-reconstruction": (
        verification.suite_gauss_reconstruction, su11, "gauss_decompose", 10,
        lambda f: (_with_nan(f[0], (0, 1)), *f[1:]),
    ),
    "k0-commutativity": (
        verification.suite_k0_commutativity, liouville, "k_superoperators", 0,
        lambda ops: (ops[0], _with_nan(ops[1], (0, 1)), *ops[2:]),
    ),
    "disentangling-superop": (
        verification.suite_disentangling_superop, verification, "superop_states", 0,
        lambda rhos: [_with_nan(rhos[0], (0, 0)), *rhos[1:]],
    ),
}


def _inject_nan(monkeypatch, name: str) -> None:
    _, module, function, call, poison = NAN_INJECTIONS[name]
    original = getattr(module, function)
    calls = itertools.count()

    def poisoned(*args):
        out = original(*args)
        return poison(out) if next(calls) == call else out

    monkeypatch.setattr(module, function, poisoned)


@pytest.mark.parametrize("name", NAN_INJECTIONS)
def test_nan_residual_fails_its_suite(monkeypatch, name):
    # Python's max(worst, nan) keeps worst; np.max keeps the NaN, which fails.
    _inject_nan(monkeypatch, name)
    result = NAN_INJECTIONS[name][0]()
    assert result.name == name and math.isnan(result.max_residual) and not result.passed
    assert result.describe().endswith(f"max_residual=nan tol={result.tolerance:.1e} FAIL")


def test_verify_with_a_nan_residual_exits_2(monkeypatch, capsys):
    _inject_nan(monkeypatch, "vectorization-sandwich")
    assert cli.main(["verify"]) == cli.EXIT_TOLERANCE
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "identity=vectorization-sandwich grid=100 max_residual=nan tol=1.0e-12 FAIL"
    assert all(line.endswith(" pass") for line in lines[1:-1])
    assert lines[-1] == "RESULT fail max_residual=nan"


def test_stacked_scaled_max_residual_is_each_pairs():
    # Each member of a stack reads the bits of the call on that pair alone,
    # and of the scaled difference written out pair by pair.
    rng = np.random.default_rng(2718)
    shape = (3, 4, 3, 2)
    exponents = rng.choice([-200.0, 0.0, 200.0], size=shape[:2] + (1, 1))
    lhs = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0**exponents
    rhs = lhs * (1.0 + 1e-15 * rng.standard_normal(shape))
    rhs[0, 1] = 10.0 ** rng.choice([-200.0, 200.0], size=(3, 2)) * rng.standard_normal((3, 2))
    nan_members = [(1, 2), (2, 3)]
    lhs[nan_members[0] + (0, 1)] = math.nan
    rhs[nan_members[1] + (2, 0)] = math.nan
    got = verification.scaled_max_residual(lhs, rhs)
    assert got.shape == shape[:2] and np.isnan(got).sum() == 2
    for k in np.ndindex(*shape[:2]):
        assert got[k].tobytes() == verification.scaled_max_residual(lhs[k], rhs[k]).tobytes()
        if k in nan_members:
            assert math.isnan(got[k])
        else:
            scale = max(1.0, float(np.abs(lhs[k]).max()), float(np.abs(rhs[k]).max()))
            assert 0.0 < got[k] == float(np.abs(lhs[k] - rhs[k]).max()) / scale
