"""Run one fixed list of ``python -m qdho`` invocations on this tree and on REV.

Usage, from anywhere inside the repository:

    python tests/cli_diff.py REV

REV is extracted with ``git archive`` into a temporary directory, so the
repository gains no worktree entry. Each run's config file is written once,
from this tree's ``configs/`` with the run's key edits, and both trees run
it with their own ``src`` first on the import path. The script prints each
run whose stdout, stderr or exit code differs, then the count, and exits 1
if any run differs. Standard library only; pytest collects ``test_*.py``
files, so tier-1 does not run this script.
"""

from __future__ import annotations

import io
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

COHERENT, MIXTURE, CLASSICAL = "damped_coherent.ini", "damped_mixture.ini", "classical_damped.ini"


def sets(**values) -> dict:
    """Edits that set each ``key = value`` line of a config."""
    return {key: f"{key} = {value}" for key, value in values.items()}


PUMP = {
    **sets(omega="0.0", mu="0.0", nu="2.0", kind="fock", support_max="4", guard="4"),
    **sets(t_start="3.0", num_points="1", method="rk4"),
    "re": None,
    "im": "n = 4",
}

#: (name, verb, config under configs/ or None, edits, flags). An edit maps a
#: key to the line that replaces its ``key = ...`` line, or to None to delete it.
RUNS = [
    ("verify", "verify", None, {}, []),
    ("evolve", "evolve", COHERENT, {}, []),
    ("evolve certified", "evolve", COHERENT, {}, ["--check-truncation"]),
    ("evolve expm", "evolve", COHERENT, sets(method="expm"), []),
    ("evolve expm certified", "evolve", COHERENT, sets(method="expm"), ["--check-truncation"]),
    ("evolve rk4", "evolve", COHERENT, sets(method="rk4"), []),
    ("evolve rk4 certified", "evolve", COHERENT, sets(method="rk4"), ["--check-truncation"]),
    ("evolve nu=0", "evolve", COHERENT, sets(nu="0"), []),
    ("evolve nu=0 certified", "evolve", COHERENT, sets(nu="0"), ["--check-truncation"]),
    ("evolve nu-zero", "evolve", COHERENT, sets(nu="0", method="nu-zero"), []),
    ("evolve nu-zero certified", "evolve", COHERENT, sets(nu="0", method="nu-zero"),
     ["--check-truncation"]),
    ("evolve 101", "evolve", COHERENT, sets(num_points="101"), []),
    ("evolve 101 certified", "evolve", COHERENT, sets(num_points="101"), ["--check-truncation"]),
    ("evolve 101 rk4", "evolve", COHERENT, sets(num_points="101", method="rk4"), []),
    ("evolve mixture", "evolve", MIXTURE, {}, []),
    ("evolve mixture certified", "evolve", MIXTURE, {}, ["--check-truncation"]),
    ("evolve mixture expm", "evolve", MIXTURE, sets(method="expm"), []),
    ("evolve mixture rk4", "evolve", MIXTURE, sets(method="rk4"), []),
    ("evolve mixture 101", "evolve", MIXTURE, sets(num_points="101"), []),
    ("compare", "compare", COHERENT, {}, []),
    ("compare certified", "compare", COHERENT, {}, ["--check-truncation"]),
    ("compare 101", "compare", COHERENT, sets(num_points="101"), []),
    ("compare mixture", "compare", MIXTURE, {}, []),
    ("steady", "steady", COHERENT, {}, []),
    ("steady expm", "steady", COHERENT, sets(method="expm"), []),
    ("steady rk4", "steady", COHERENT, sets(method="rk4"), []),
    ("steady nu-zero", "steady", COHERENT, sets(nu="0", method="nu-zero"), []),
    ("steady mixture", "steady", MIXTURE, {}, []),
    ("classical", "classical", CLASSICAL, {}, []),
    ("classical overdamped", "classical", CLASSICAL, sets(gamma="3"), []),
    ("classical critical", "classical", CLASSICAL, sets(gamma="2"), []),
    ("classical 101", "classical", CLASSICAL, sets(num_points="101"), []),
    # The error cases of CI's installed-script step.
    ("overflowing omega", "evolve", COHERENT, sets(omega="1e308"), []),
    ("malformed num_points", "evolve", COHERENT, sets(num_points="many"), []),
    ("malformed mu", "evolve", COHERENT, sets(mu="fast"), []),
    ("stray flag", "compare", COHERENT, {}, ["--tol-override", "oracle_tol=1e-3"]),
    ("removed key", "evolve", COHERENT,
     {"photon_levels": "photon_levels = 4\ncheck_truncation = true"}, []),
    ("gain underflow", "evolve", COHERENT, sets(mu="0.2", nu="1.5", t_end="1e3"), []),
    ("rate bound analytic", "evolve", COHERENT, sets(mu="1e306"), []),
    ("rate bound expm", "evolve", COHERENT, sets(mu="1e306", method="expm"), []),
    ("rate bound rk4", "evolve", COHERENT, sets(mu="1e306", method="rk4"), []),
    ("pump certificate rk4", "evolve", COHERENT, PUMP, ["--check-truncation"]),
]


def config_text(config: str, edits: dict) -> str:
    text = (ROOT / "configs" / config).read_text(encoding="utf-8")
    for key, line in edits.items():
        pattern = rf"^{key} = .*\n" if line is None else rf"^{key} = .*$"
        text, count = re.subn(pattern, "" if line is None else line, text, flags=re.M)
        if count != 1:
            raise SystemExit(f"error: {config} has {count} lines for key {key!r}")
    return text


def run(src: Path, verb: str, config: Path | None, flags: list[str], cwd: Path):
    """(exit code, stdout, stderr) of ``python -m qdho`` with ``src`` first on the path."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(src))
    args = [sys.executable, "-m", "qdho", verb]
    if config is not None:
        args += ["--config", str(config)]
    proc = subprocess.run(args + flags, cwd=cwd, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def extract(rev: str, dest: Path) -> None:
    """The tree of ``rev`` under ``dest``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: python tests/cli_diff.py REV", file=sys.stderr)
        return 2
    sys.stdout.reconfigure(line_buffering=True)
    with tempfile.TemporaryDirectory(prefix="qdho-cli-diff-") as tmp:
        tmp = Path(tmp)
        try:
            extract(argv[0], tmp / "rev")
        except subprocess.CalledProcessError as err:
            print(f"error: git archive {argv[0]}: {err.stderr.decode().strip()}", file=sys.stderr)
            return 2
        trees = {"this tree": ROOT / "src", argv[0]: tmp / "rev" / "src"}
        differ = 0
        for k, (name, verb, config, edits, flags) in enumerate(RUNS):
            path = None
            if config is not None:
                path = tmp / f"run{k}.ini"
                path.write_text(config_text(config, edits), encoding="utf-8")
            new, old = (run(src, verb, path, flags, tmp) for src in trees.values())
            if new != old:
                differ += 1
                parts = [part for part, a, b in zip(("exit", "stdout", "stderr"), new, old) if a != b]
                print(f"DIFFERS {name}: {', '.join(parts)}")
                for label, (code, _, err) in zip(trees, (new, old)):
                    last = err.strip().splitlines()[-1:] or [""]
                    print(f"  {label}: exit {code}; last stderr line: {last[0]}")
        print(f"{len(RUNS)} runs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
