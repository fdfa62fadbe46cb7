"""One-line mutants of the thresholds in src/qdho, each run against tier-1.

Usage, from anywhere:

    python tests/mutants.py

Each mutant replaces one line of one module in a temporary copy of src/
and runs the tier-1 suite (this directory) with ``-x`` on that copy. A
mutant is caught when the suite fails and survives when it passes. The
unmutated copy runs first and must pass. The script prints one line per
mutant with its time and exits 1 if any mutant survived or a mutated line
is no longer found exactly once. Standard library only; pytest collects
``test_*.py`` files, so tier-1 does not run this script.

A change that adds a threshold adds its mutant here. A change that can
alter no output is listed in ``EQUIVALENT`` with its reason and not run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

#: (module under src/qdho, exact text of the line's change, replacement, what it does)
MUTANTS = [
    ("liouville.py", "_EXPM_DEGREE = 15", "_EXPM_DEGREE = 10", "expm Taylor degree 15 -> 10"),
    ("liouville.py", "_EXPM_SCALE_LIMIT = 0.5", "_EXPM_SCALE_LIMIT = 1.0",
     "expm scale limit 0.5 -> 1.0"),
    ("liouville.py", "RK4_STABILITY_LIMIT = 0.1", "RK4_STABILITY_LIMIT = 0.2",
     "quantum RK4 stability limit 0.1 -> 0.2"),
    ("liouville.py", "aad_diag = np.append(levels[1:], 0.0)", "aad_diag = levels + 1.0",
     "literal truncated a a^dag replaced by N + 1"),
    ("propagator.py", "TRUNCATION_DOUBLING_TOL = 1e-9", "TRUNCATION_DOUBLING_TOL = 1e-6",
     "truncation certificate tolerance 1e-9 -> 1e-6"),
    ("propagator.py",
     "escapes.append(max(escape, lost) if lost > TRUNCATION_DOUBLING_TOL else escape)",
     "escapes.append(escape)", "certificate's lost-trace rule dropped"),
    ("classical.py", "_CLASSICAL_STEP_LIMIT = 4e-3", "_CLASSICAL_STEP_LIMIT = 4e-2",
     "classical CSV step limit 4e-3 -> 4e-2"),
    ("fock.py", "positive_ok=min_eig >= -tolerances.positivity_tol,",
     "positive_ok=min_eig >= -100 * tolerances.positivity_tol,",
     "positivity check loosened 100x"),
    ("fock.py", "if not math.isfinite(8.0 * (omega + mu + nu)",
     "if not math.isfinite(4.0 * (omega + mu + nu)", "rate bound's 8 -> 4"),
    ("fock.py", "hermitian_ok=herm_dev <= tolerances.hermiticity_tol * scale,",
     "hermitian_ok=True,", "validate_density always Hermitian"),
    ("fock.py", "hermitian_ok=herm_dev <= tolerances.hermiticity_tol * scale,",
     "hermitian_ok=herm_dev <= 100 * tolerances.hermiticity_tol * scale,",
     "validate_density Hermiticity test loosened 100x"),
    ("propagator.py", "_HERMITICITY_GUARD = 1e-12", "_HERMITICITY_GUARD = 1e-6",
     "closed form's Hermiticity guard 1e-12 -> 1e-6"),
    ("cli.py", "t_ss = 20.0 / (params.mu - params.nu)", "t_ss = 12.0 / (params.mu - params.nu)",
     "steady relaxation time 20/(mu - nu) -> 12/(mu - nu)"),
    ("propagator.py", "if _is_diagonal(rho):", "if True:",
     "series layout: every state taken as diagonal"),
    ("propagator.py", "if _is_diagonal(rho):", "if False:",
     "series layout: no state taken as diagonal"),
    ("fock.py", "diagonal = _is_diagonal(stack)", "diagonal = True",
     "state checks: every state taken as diagonal"),
    ("cli.py", "diagonal = _is_diagonal(states)", "diagonal = True",
     "evolve row checks: every grid taken as diagonal"),
    ("config.py", "MAX_DIM = 256", "MAX_DIM = 257", "config dimension budget 256 -> 257"),
    ("config.py", "MAX_GRID_POINTS = 100_000", "MAX_GRID_POINTS = 100_001",
     "config grid budget 100,000 -> 100,001 points"),
    ("config.py", "MAX_STATE_BYTES = 256 * 2**20", "MAX_STATE_BYTES = 257 * 2**20",
     "config state budget 256 -> 257 MB"),
    ("config.py", "if not 0 < self.steady_tol < math.inf:",
     "if not 0 <= self.steady_tol < math.inf:", "steady_tol check admits 0"),
    ("config.py", "if not 0 < self.steady_tol < math.inf:", "if not 0 < self.steady_tol:",
     "steady_tol check admits inf"),
    ("liouville.py", "RK4_MAX_WORK = 200_000_000", "RK4_MAX_WORK = 201_000_000",
     "RK4 work budget 2.00e8 -> 2.01e8 steps x D^2"),
    ("liouville.py", "ORACLE_MAX_DIM = 128", "ORACLE_MAX_DIM = 129",
     "sector expm oracle budget D <= 128 -> 129"),
    ("liouville.py", "DENSE_MAX_DIM = 64", "DENSE_MAX_DIM = 65",
     "dense superoperator budget D <= 64 -> 65"),
    ("verification.py", 'return SuiteResult("disentangling-2x2", len(pts), worst, 1e-12)',
     'return SuiteResult("disentangling-2x2", len(pts), worst, 1e-9)',
     "verify disentangling-2x2 tolerance 1e-12 -> 1e-9"),
    ("verification.py",
     'return SuiteResult("disentangling-superop", len(params) * n_states, worst, 1e-9)',
     'return SuiteResult("disentangling-superop", len(params) * n_states, worst, 1e-6)',
     "verify disentangling-superop tolerance 1e-9 -> 1e-6"),
    ("verification.py", "for other in (k_plus, k_minus, k3):", "for other in (k_plus, k_minus):",
     "verify k0-commutativity no longer checks K3"),
]

#: Changes that cannot alter any output, and why; not run.
EQUIVALENT = [
    ("propagator.py", "BAND_CHUNK_BYTES", "each time's series, and each CSV row's checks, "
     "run the same arithmetic whatever other times share their chunk"),
    ("liouville.py", "lru_cache maxsize of _sector_order, _cached_propagator, _rk4_powers",
     "the caches are keyed by every argument and hold read-only results, so a size "
     "changes only what is recomputed"),
    ("classical.py", "lru_cache maxsize of _rk4_power",
     "the cache is keyed by every argument and holds read-only results, so a size "
     "changes only what is recomputed"),
    ("fock.py", "validate_density's 'diagonal = _is_diagonal(stack)' forced false",
     "eigvalsh of a diagonal matrix returns its diagonal and the zeros off it change no "
     "maximum, so only the time moves: the three evolve_diagonal ops took 8.6 ms in process "
     "against 7.3 ms (best of 7, one BLAS thread)"),
    ("cli.py", "cmd_evolve's 'diagonal = _is_diagonal(states)' forced false",
     "the row checks of a diagonal grid then read whole states, chunk by chunk, and get the "
     "same numbers, as above; only the time and the chunks move: the three evolve_diagonal "
     "ops took 18.5 ms in process against 7.3 ms (best of 7, one BLAS thread)"),
    ("propagator.py", "_TERMS_PER_BLOCK",
     "a block carries each source's last term and each position's total into the next, so "
     "every term sees the same operations in the same order whatever the block size"),
    ("propagator.py", "_BLOCKED_ROW_MAX",
     "the diagonal series in blocks and term by term run the same operations in the same "
     "order, so the size that picks one changes only the time"),
]


def run_tier1(src: Path) -> tuple[bool, float]:
    """(suite passed, seconds) with ``src`` first on the import path."""
    # No bytecode cache: a mutant of the same size written within the
    # second of the last run would otherwise import that run's .pyc.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", str(TESTS)],
        cwd=TESTS.parent, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return proc.returncode == 0, time.perf_counter() - start


def main() -> int:
    sys.stdout.reconfigure(line_buffering=True)  # one line per mutant as it finishes
    with tempfile.TemporaryDirectory(prefix="qdho-mutants-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        probe = subprocess.run(
            [sys.executable, "-c", "import qdho; print(qdho.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        )
        if not probe.stdout.startswith(str(src)):
            print(f"error: qdho does not import from the copy: {probe.stdout or probe.stderr}")
            return 1
        passed, seconds = run_tier1(src)
        print(f"unmutated        {'pass' if passed else 'FAIL'}      {seconds:6.1f} s")
        if not passed:
            return 1
        survived = stale = 0
        for module, old, new, what in MUTANTS:
            path = src / "qdho" / module
            original = path.read_text(encoding="utf-8")
            if original.count(old) != 1:
                print(f"STALE            {module}: {old!r} found {original.count(old)} times")
                stale += 1
                continue
            path.write_text(original.replace(old, new), encoding="utf-8")
            try:
                passed, seconds = run_tier1(src)
            finally:
                path.write_text(original, encoding="utf-8")
            survived += passed
            print(f"{'SURVIVED' if passed else 'caught':<16} {seconds:6.1f} s  {module}: {what}")
        for module, name, why in EQUIVALENT:
            print(f"equivalent       {module}: {name}: {why}")
        print(f"{len(MUTANTS) - survived - stale} caught, {survived} survived, {stale} stale")
        return 1 if survived or stale else 0


if __name__ == "__main__":
    sys.exit(main())
