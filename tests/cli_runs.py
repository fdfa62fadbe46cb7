"""One table of CLI runs, ``RUNS``, which tier-1, CI and ``cli_diff.py`` all read.

Usage, with the ``qdho`` console script on PATH (``pip install -e .``):

    python tests/cli_runs.py

runs every row through that ``qdho`` by subprocess, prints each mismatch
and exits 1 if any row fails, or 2 if no ``qdho`` is installed. Tier-1
(``tests/test_cli.py``) runs every row in process through ``cli.main``, and
``python tests/cli_diff.py REV`` runs every row on this tree and on REV. A
new CLI behaviour is one new row. Standard library only; pytest collects
``test_*.py`` files, so tier-1 does not run this script.

Each row pins the exit code and the exact stderr. Its stdout is a golden
file under ``tests/golden``, a predicate, both, or not pinned. The goldens
pin these facts:

- the steady golden pins t = 20/(mu - nu), the relaxation time;
- the critically and overdamped classical runs also pin their one warning
  line, and the 101-point classical golden pins the stacked closed form on
  a longer grid;
- the coherent goldens run on the matrix layout and both oracles, the
  mixture golden on the one-row diagonal layout;
- the 101-point coherent goldens run the RK4 oracle on a grid whose segment
  lengths alternate in the last bit.
"""

from __future__ import annotations

import itertools
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

COHERENT, MIXTURE, CLASSICAL = "damped_coherent.ini", "damped_mixture.ini", "classical_damped.ini"
CERTIFY = ("--check-truncation",)


@dataclass(frozen=True)
class Run:
    """One CLI invocation and what it must give.

    ``edits`` maps a key to the line that replaces its ``key = ...`` line in
    the config under ``configs/``, or to None to delete that line. ``golden``
    names the file under ``tests/golden`` that stdout must equal, and
    ``out`` is a predicate that stdout must satisfy; with neither, stdout is
    not pinned. ``err`` is the exact stderr.
    """

    name: str
    verb: str
    config: str | None
    edits: dict = field(default_factory=dict)
    flags: tuple = ()
    code: int = 0
    golden: str | None = None
    out: Callable[[str], bool] | None = None
    err: str = ""

    def argv(self, path: Path) -> list[str]:
        """The arguments after the command; the row's config is written to ``path``."""
        if self.config is None:
            return [self.verb, *self.flags]
        path.write_text(config_text(self.config, self.edits), encoding="utf-8")
        return [self.verb, "--config", str(path), *self.flags]


def sets(**values) -> dict:
    """Edits that set each ``key = value`` line of a config."""
    return {key: f"{key} = {value}" for key, value in values.items()}


def config_text(config: str, edits: dict) -> str:
    """``configs/<config>`` with ``edits`` applied, each to exactly one line."""
    text = (ROOT / "configs" / config).read_text(encoding="utf-8")
    for key, line in edits.items():
        pattern = rf"^{key} = .*\n" if line is None else rf"^{key} = .*$"
        text, count = re.subn(pattern, "" if line is None else line, text, flags=re.M)
        if count != 1:
            raise ValueError(f"{config} has {count} lines for key {key!r}")
    return text


def _ends_in_pass(out: str) -> bool:
    lines = out.splitlines()
    return bool(lines) and lines[-1].startswith("RESULT pass ")


def verify_passes(out: str) -> bool:
    """Six passing identity lines; the sectored superop suite sits far below
    its 1e-9 tolerance, and the entrywise K0 commutator is exactly zero."""
    superop = re.search(r"^identity=disentangling-superop .* max_residual=(\S+) ", out, re.M)
    return (
        sum(bool(re.fullmatch(r"identity=.* pass", line)) for line in out.splitlines()) == 6
        and superop is not None
        and float(superop[1]) < 1e-11
        and re.search(r"^identity=k0-commutativity .* max_residual=0\.000000e\+00 ", out, re.M)
        is not None
        and _ends_in_pass(out)
    )


def oracles_agree(out: str) -> bool:
    """Both oracles integrate one truncated generator: they differ only by RK4's error."""
    match = re.search(r"^max expm_vs_rk4=(\S+) ", out, re.M)
    return match is not None and float(match[1]) < 1e-10


def steady_expm_passes(out: str) -> bool:
    """steady runs [run] method: the expm oracle passes with its own numbers."""
    plain = (GOLDEN / "steady_damped_coherent.txt").read_text(encoding="utf-8")
    return _ends_in_pass(out) and out != plain


PUMP = {
    **sets(omega="0.0", mu="0.0", nu="2.0", kind="fock", support_max="4", guard="4"),
    **sets(t_start="3.0", num_points="1", method="rk4"),
    "re": None,
    "im": "n = 4",
}
RATE_BOUND = (
    "error: rate scale 8 (omega + mu + nu) D max(1, t) at omega = 6.28319, mu = 1e+306, "
    "nu = 0.4, D = 24, t = 3 overflows double precision\n"
)

# Exit codes: 1 is a validation or config error, 2 a tolerance failure.
RUNS = [
    Run("verify", "verify", None, out=verify_passes),
    Run("evolve", "evolve", COHERENT, golden="evolve_damped_coherent.csv"),
    # The certified series runs on the state zero-padded to 2D.
    Run("evolve certified", "evolve", COHERENT, flags=CERTIFY,
        golden="evolve_damped_coherent_certified.csv"),
    Run("evolve expm", "evolve", COHERENT, sets(method="expm"),
        golden="evolve_damped_coherent_expm.csv"),
    Run("evolve expm certified", "evolve", COHERENT, sets(method="expm"), CERTIFY),
    Run("evolve rk4", "evolve", COHERENT, sets(method="rk4"), golden="evolve_damped_coherent_rk4.csv"),
    Run("evolve rk4 certified", "evolve", COHERENT, sets(method="rk4"), CERTIFY),
    # Pure loss is the closed form at nu = 0.
    Run("evolve nu=0", "evolve", COHERENT, sets(nu="0"), golden="evolve_damped_coherent_nu_zero.csv"),
    Run("evolve nu=0 certified", "evolve", COHERENT, sets(nu="0"), CERTIFY),
    Run("removed method", "evolve", COHERENT, sets(nu="0", method="nu-zero"), code=1,
        err="error: method must be one of ('analytic', 'expm', 'rk4'), got 'nu-zero'\n"),
    Run("evolve 101", "evolve", COHERENT, sets(num_points="101")),
    Run("evolve 101 certified", "evolve", COHERENT, sets(num_points="101"), CERTIFY),
    Run("evolve 101 rk4", "evolve", COHERENT, sets(num_points="101", method="rk4"),
        golden="evolve_damped_coherent_rk4_101.csv"),
    Run("evolve mixture", "evolve", MIXTURE),
    Run("evolve mixture certified", "evolve", MIXTURE, flags=CERTIFY,
        golden="evolve_mixture_certified.csv"),
    Run("evolve mixture expm", "evolve", MIXTURE, sets(method="expm")),
    Run("evolve mixture rk4", "evolve", MIXTURE, sets(method="rk4")),
    Run("evolve mixture 101", "evolve", MIXTURE, sets(num_points="101")),
    Run("compare", "compare", COHERENT, golden="compare_damped_coherent.txt", out=oracles_agree),
    Run("compare certified", "compare", COHERENT, flags=CERTIFY),
    Run("compare 101", "compare", COHERENT, sets(num_points="101"),
        golden="compare_damped_coherent_101.txt"),
    Run("compare mixture", "compare", MIXTURE),
    Run("steady", "steady", COHERENT, golden="steady_damped_coherent.txt"),
    Run("steady expm", "steady", COHERENT, sets(method="expm"), out=steady_expm_passes),
    Run("steady rk4", "steady", COHERENT, sets(method="rk4")),
    Run("steady mixture", "steady", MIXTURE),
    Run("classical", "classical", CLASSICAL, golden="classical_damped.csv"),
    Run("classical overdamped", "classical", CLASSICAL, sets(gamma="3"),
        golden="classical_overdamped.csv",
        err="warning: omega=2.0 <= gamma=3.0: analytic columns unsupported (RK4 only)\n"),
    Run("classical critical", "classical", CLASSICAL, sets(gamma="2"),
        golden="classical_critical.csv",
        err="warning: omega=2.0 <= gamma=2.0: analytic columns unsupported (RK4 only)\n"),
    Run("classical 101", "classical", CLASSICAL, sets(num_points="101"),
        golden="classical_damped_101.csv"),
    # An overflowing rotation exits 1 with one error line and no numpy
    # RuntimeWarning ahead of it.
    Run("overflowing omega", "evolve", COHERENT, sets(omega="1e308"), code=1,
        err="error: rate scale 8 (omega + mu + nu) D max(1, t) at omega = 1e+308, mu = 1, "
        "nu = 0.4, D = 24, t = 3 overflows double precision\n"),
    Run("malformed num_points", "evolve", COHERENT, sets(num_points="many"), code=1,
        err="error: [grid] num_points: expected an integer, got 'many'\n"),
    Run("malformed mu", "evolve", COHERENT, sets(mu="fast"), code=1,
        err="error: [model] mu: expected a number, got 'fast'\n"),
    # Each run option has one spelling: tolerances come from [tolerances]
    # and certification from --check-truncation.
    Run("stray flag", "compare", COHERENT, flags=("--tol-override", "oracle_tol=1e-3"), code=1,
        err="usage: qdho compare [-h] --config CONFIG [--out OUT] [--check-truncation]\n"
        "error: unrecognized arguments: --tol-override oracle_tol=1e-3\n"),
    Run("removed key", "evolve", COHERENT,
        {"photon_levels": "photon_levels = 4\ncheck_truncation = true"}, code=1,
        err="error: [run] check_truncation: unknown key\n"),
    Run("unknown section", "compare", COHERENT,
        {"photon_levels": "photon_levels = 4\n\n[tolerance]\noracle_tol = 1e-30"}, code=1,
        err="error: [tolerance]: unknown section\n"),
    # [DEFAULT] is a section like any other, not defaults for the rest.
    Run("default section", "evolve", COHERENT,
        {"photon_levels": "photon_levels = 4\n\n[DEFAULT]\nmu = 0.5"}, code=1,
        err="error: [DEFAULT]: unknown section\n"),
    Run("classical default section", "classical", CLASSICAL,
        {"num_points": "num_points = 11\n\n[DEFAULT]\nx0 = 0.5"}, code=1,
        err="error: [DEFAULT]: unknown section\n"),
    # theta, the phase of a, cancels from every result: it is read, must be
    # finite, and is then dropped.
    Run("theta nan", "evolve", COHERENT, sets(theta="nan"), code=1,
        err="error: [model] theta: expected a finite number, got nan\n"),
    Run("non-finite mu", "evolve", COHERENT, sets(mu="nan"), code=1,
        err="error: [model]: model parameters must be finite, got (6.283185307179586, nan, 0.4)\n"),
    # A gain run warns in one line, then fails on its underflowed prefactor.
    Run("gain underflow", "evolve", COHERENT, sets(mu="0.2", nu="1.5", t_end="1e3"), code=1,
        err="warning: pump nu=1.5 exceeds loss mu=0.2: no steady state exists and truncation "
        "error grows with t\nerror: prefactor must be positive, got 0.0\n"),
    # Rates past the one bound exit 1 with the same line under every method.
    Run("rate bound analytic", "evolve", COHERENT, sets(mu="1e306"), code=1, err=RATE_BOUND),
    Run("rate bound expm", "evolve", COHERENT, sets(mu="1e306", method="expm"), code=1,
        err=RATE_BOUND),
    Run("rate bound rk4", "evolve", COHERENT, sets(mu="1e306", method="rk4"), code=1,
        err=RATE_BOUND),
    # A pump that carries Fock level 4 of D = 9 past 2D fails the certificate
    # under rk4 too: its gain warning, then one failure line.
    Run("pump certificate rk4", "evolve", COHERENT, PUMP, CERTIFY, code=2,
        err="warning: pump nu=2.0 exceeds loss mu=0.0: no steady state exists and truncation "
        "error grows with t\ntolerance failure: truncation not converged at t=3: doubling-D "
        "distance 1.000e+00 > 1.0e-09\n"),
]


def run_command(prefix: list[str], args: list[str], cwd: Path, env: dict | None = None):
    """(exit code, stdout, stderr) of ``prefix + args`` run in ``cwd``."""
    proc = subprocess.run(prefix + args, cwd=cwd, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def mismatches(run: Run, code: int, out: str, err: str) -> list[str]:
    """How one result departs from its row; empty when it matches."""
    found = []
    if code != run.code:
        found.append(f"exit {code}, expected {run.code}")
    want = None if run.golden is None else (GOLDEN / run.golden).read_text(encoding="utf-8")
    if want is not None and out != want:
        pairs = itertools.zip_longest(out.splitlines(True), want.splitlines(True))
        number, (got, expected) = next((n, p) for n, p in enumerate(pairs, 1) if p[0] != p[1])
        found.append(f"stdout line {number} is {got!r}; tests/golden/{run.golden} has {expected!r}")
    if run.out is not None and not run.out(out):
        found.append(f"stdout fails {run.out.__name__}")
    if err != run.err:
        found.append(f"stderr is {err!r}, expected {run.err!r}")
    return found


def main() -> int:
    qdho = shutil.which("qdho")
    if qdho is None:
        print("error: no qdho on PATH; install it with pip install -e .", file=sys.stderr)
        return 2
    failed = 0
    with tempfile.TemporaryDirectory(prefix="qdho-cli-runs-") as tmp:
        for run in RUNS:
            found = mismatches(run, *run_command([qdho], run.argv(Path(tmp) / "run.ini"), tmp))
            for line in found:
                print(f"FAIL {run.name}: {line}")
            failed += bool(found)
    print(f"{len(RUNS)} runs, {failed} fail")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
