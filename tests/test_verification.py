"""Where the seeded points come from: verify's from the standard library, the tests' from numpy."""

import hashlib
import json
import os
import subprocess
import sys
import textwrap

import numpy as np

import cli_runs
import reference
from qdho import cli, verification


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
