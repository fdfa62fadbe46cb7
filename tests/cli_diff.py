"""Run the table of ``tests/cli_runs.py`` as ``python -m qdho`` on this tree and on REV.

Usage, from anywhere inside the repository:

    python tests/cli_diff.py REV

REV is extracted with ``git archive`` into a temporary directory, so the
repository gains no worktree entry. Each row's config file is written once,
from this tree's ``configs/`` with the row's key edits, and both trees run
it with their own ``src`` first on the import path. The script prints each
run whose stdout, stderr or exit code differs, then the count, and exits 1
if any run differs. Standard library only; pytest collects ``test_*.py``
files, so tier-1 does not run this script.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from cli_runs import ROOT, RUNS, run_command


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
        envs = [dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(src))
                for src in trees.values()]
        differ = 0
        for run in RUNS:
            args = run.argv(tmp / "run.ini")
            new, old = (run_command([sys.executable, "-m", "qdho"], args, tmp, env) for env in envs)
            if new != old:
                differ += 1
                parts = [part for part, a, b in zip(("exit", "stdout", "stderr"), new, old) if a != b]
                print(f"DIFFERS {run.name}: {', '.join(parts)}")
                for label, (code, _, err) in zip(trees, (new, old)):
                    last = err.strip().splitlines()[-1:] or [""]
                    print(f"  {label}: exit {code}; last stderr line: {last[0]}")
        print(f"{len(RUNS)} runs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
