"""Acceptance suite.

One test per criterion, each printing a single pass/fail line with the
measured worst residual and its tolerance (run with -s to see the lines of
passing criteria).

Criterion 4 compares the closed form with both oracles on an oracle space
whose dimension D_o is certified by the closed form alone. The closed form
is block-exact (its dim-D output is the top D x D block of any larger run),
while the oracles solve the master equation truncated at D and so lose the
population that flows back down from the levels above. For each
(params, t) row, D_o is the smallest dimension >= 24 at which the
certified escape distance of ``evolve_analytic_grid`` passes
``TRUNCATION_DOUBLING_TOL`` for all three grid states, found by growing the guard one level at a time; rows
certified at 24 levels run there unchanged. The states are zero-padded to
D_o, the three methods must agree there, and the dim-24 closed form must
equal the top 24 x 24 block of both oracles.
"""

import math
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from qdho import classical, cli, config, fock, liouville, observables, propagator, su11
from qdho.verification import disentangled_product_2x2, scaled_max_residual
from reference import TIGHT_TOLERANCES, dense_pure_loss, parameter_grid, random_interior_density

GRID_STATES = ("coherent", "fock3", "thermal")
GRID_PARAMS = ((1.0, 0.0, 0.0), (1.0, 0.4, 2 * np.pi), (0.5, 0.5, 1.0), (0.2, 0.6, 3.0))
GRID_TIMES = (0.1, 0.5, 1.0, 3.0)
# Cap on the oracle dimension D_o that criterion 4 searches. The oracles run by
# sectors (no D^2 x D^2 matrix), so the cap only bounds the search; the largest
# certified row needs D_o = 52.
ORACLE_DIM_MAX = 64


def _line(name, worst, tol, elapsed, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    text = (
        f"ACCEPTANCE {name}: max_residual={worst:.3e} tol={tol:.1e} "
        f"runtime={elapsed:.2f}s {status}{extra}"
    )
    print(text)
    return text


def _grid_state(kind, trunc):
    if kind == "coherent":
        return fock.coherent_state(1.0, trunc)
    if kind == "fock3":
        return fock.fock_state(3, trunc)
    return fock.thermal_state(0.5, trunc)


@pytest.fixture(scope="module")
def dim24():
    return fock.TruncationConfig(support_max=9, guard=14)


def test_criterion_01_disentangling_2x2():
    start = time.time()
    worst = 0.0
    points = parameter_grid(200, seed=20240811)
    for mu, nu, t in points:
        lhs = su11.flow(mu, nu, t)
        rhs = disentangled_product_2x2([su11.disentangling_coefficients(mu, nu, t)])[0]
        worst = max(worst, scaled_max_residual(lhs, rhs))
    elapsed = time.time() - start
    text = _line("01 2x2-disentangling", worst, 1e-12, elapsed, worst <= 1e-12)
    assert worst <= 1e-12, text
    assert elapsed < 1.0, text


def test_criterion_02_vectorization_identity():
    start = time.time()
    rng = np.random.default_rng(92)
    worst = 0.0
    for dim in (2, 3, 5, 8):
        for _ in range(25):
            a, x, b = (
                rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                for _ in range(3)
            )
            worst = max(worst, liouville.sandwich_check(a, x, b))
    elapsed = time.time() - start
    text = _line("02 vectorization-identity", worst, 1e-12, elapsed, worst <= 1e-12)
    assert worst <= 1e-12, text
    assert elapsed < 1.0, text


def test_criterion_03_superoperator_disentangling():
    start = time.time()
    dim = 12
    k0, k_plus, k_minus, k3 = liouville.k_superoperators(dim)
    rng = np.random.default_rng(31415)
    states = [
        liouville.vectorize(random_interior_density(dim, dim - 4, rng)) for _ in range(20)
    ]
    # Ten points inside the dim-12 convergence envelope of the factored form
    # (the raising ladder needs ~nu*t*D levels of headroom), including exact
    # pure-loss rows and an exactly balanced pair on the limit branch.
    points = [
        (1.0, 0.0, 1.0),
        (2.0, 0.0, 0.5),
        (1.5, 0.0, 2.0),
        (0.8, 0.001, 1.0),
        (1.2, 0.002, 0.8),
        (0.5, 0.001, 2.0),
        (2.0, 0.003, 0.3),
        (0.003, 0.003, 1.0),
        (0.002, 0.002, 1.0),
        (0.4, 0.002, 1.5),
    ]
    worst = 0.0
    for mu, nu, t in points:
        generator = nu * k_plus + mu * k_minus - (mu + nu) * k3
        lhs = liouville.expm(t * generator)
        coeffs = su11.disentangling_coefficients(mu, nu, t)
        rhs = (
            liouville.expm(coeffs.g_coef * k_plus)
            @ liouville.expm(-2.0 * coeffs.log_f * k3)
            @ liouville.expm(coeffs.e_coef * k_minus)
        )
        for vec in states:
            worst = max(worst, float(np.linalg.norm(lhs @ vec - rhs @ vec)))
    elapsed = time.time() - start
    text = _line("03 superop-disentangling", worst, 1e-9, elapsed, worst <= 1e-9)
    assert worst <= 1e-9, text
    assert elapsed < 30.0, text


def _three_way_rows():
    # (params, t) rows of the main-theorem grid; the flagged gain row
    # (nu > mu) is evaluated at t <= 1 only.
    for mu, nu, omega in GRID_PARAMS:
        params = fock.ModelParams(omega=omega, mu=mu, nu=nu)
        times = tuple(t for t in GRID_TIMES if t <= 1.0) if nu > mu else GRID_TIMES
        for t in times:
            yield params, t


def _three_way_cells():
    # (state, params, t) cells: every grid state on every row.
    for params, t in _three_way_rows():
        for kind in GRID_STATES:
            yield kind, params, t


def _zero_padded(rho0, dim):
    # The same state on ``dim`` levels.
    mat = np.zeros((dim, dim), dtype=complex)
    mat[: len(rho0), : len(rho0)] = rho0
    return mat


def _certified_dim(states, params, t, dim_max):
    # (dimension, certificates) for the smallest dimension >= the states' own,
    # up to dim_max, at which the closed-form doubling certificate passes for
    # every state; None past dim_max. The oracle residual plays no part.
    for dim in range(len(states[0]), dim_max + 1):
        certs = [
            propagator.evolve_analytic_grid(
                _zero_padded(rho0, dim), params, [t], certify=True
            )[1][0]
            for rho0 in states
        ]
        if max(certs) <= propagator.TRUNCATION_DOUBLING_TOL:
            return dim, certs
    return None


def _oracle_dim(states, params, t):
    found = _certified_dim(states, params, t, ORACLE_DIM_MAX)
    if found is None:
        pytest.fail(f"no oracle dimension <= {ORACLE_DIM_MAX} certified for {params}, t={t}")
    return found


def test_criterion_04_main_theorem_three_way(dim24):
    start = time.time()
    tol = 1e-7
    worst = 0.0
    failing = []
    n_cells = 0
    oracle_dims = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fock.GainWarning)
        for params, t in _three_way_rows():
            states = [_grid_state(kind, dim24) for kind in GRID_STATES]
            d_o, certs = _oracle_dim(states, params, t)
            oracle_dims.append(d_o)
            for kind, rho0, cert in zip(GRID_STATES, states, certs):
                big0 = _zero_padded(rho0, d_o)
                ana = propagator.evolve_analytic_grid(big0, params, [t])[0][0]
                via_expm = liouville.evolve_numeric_expm_grid(big0, params, [t])[0]
                via_rk4 = liouville.evolve_numeric_rk4_grid(big0, params, [t])[0]
                ana24 = propagator.evolve_analytic_grid(rho0, params, [t])[0][0]
                d = len(rho0)
                cell_worst = max(
                    observables.frobenius_distance(ana, via_expm),
                    observables.frobenius_distance(ana, via_rk4),
                    observables.frobenius_distance(via_expm, via_rk4),
                    observables.frobenius_distance(ana24, via_expm[:d, :d]),
                    observables.frobenius_distance(ana24, via_rk4[:d, :d]),
                )
                worst = max(worst, cell_worst)
                n_cells += 1
                if cell_worst > tol:
                    failing.append(
                        f"(mu={params.mu}, nu={params.nu}, omega={params.omega:.3g}, "
                        f"t={t}, {kind}): {cell_worst:.2e} at D_o={d_o} "
                        f"(certificate {cert:.2e})"
                    )
    elapsed = time.time() - start
    n_grown = len(GRID_STATES) * sum(d_o > dim24.dim for d_o in oracle_dims)
    extra = f" [{n_grown}/{n_cells} cells at D_o>{dim24.dim}, max D_o={max(oracle_dims)}]"
    if failing:
        extra += f" [{len(failing)}/{n_cells} cells above tol]"
    text = _line("04 main-theorem-three-way", worst, tol, elapsed, not failing, extra)
    assert elapsed < 120.0, text
    assert not failing, (
        text
        + "\nthree-way agreement exceeds the tolerance on a truncation-certified "
        + "oracle space:\n"
        + "\n".join(failing)
    )


# Cap on D_o for the three-way property. At 2 x stability_steps the RK4 oracle
# at D_o = 48 needs at most 2 * 3 * 16 * 48 / 0.1 = 46,080 steps for the
# drawn rates and times, 1.1e8 steps x D^2, within RK4_MAX_WORK.
PROPERTY_DIM_MAX = 48


def _largest_fitting(make, size):
    # make(size), halving size until the state fits its truncation.
    while True:
        try:
            return make(size)
        except ValueError:
            size /= 2


def _drawn_state(kind, dim, seed):
    # A state on ``dim`` levels populating at most the lower half.
    support = (dim - 1) // 2
    trunc = fock.TruncationConfig(support_max=support, guard=dim - 1 - support)
    rng = np.random.default_rng(seed)
    if kind == "fock":
        return fock.fock_state(int(rng.integers(support + 1)), trunc)
    if kind == "coherent":
        alpha = math.sqrt(support) * rng.uniform() * np.exp(2j * math.pi * rng.uniform())
        return _largest_fitting(lambda a: fock.coherent_state(a, trunc), alpha)
    if kind == "thermal":
        return _largest_fitting(lambda n_bar: fock.thermal_state(n_bar, trunc), rng.uniform(0, 2))
    if kind == "mixture":
        levels = rng.choice(support + 1, size=min(3, support + 1), replace=False)
        weights = rng.dirichlet(np.ones(levels.size))
        weights[-1] = 1.0 - weights[:-1].sum()
        return fock.mixture_state([(int(n), float(w)) for n, w in zip(levels, weights)], trunc)
    return random_interior_density(dim, support, rng)


# A pinned seed is the one derandomize drew from this test's source, so
# editing the test keeps its draws.
@seed(5556603782075100318596701120603922086206894870045437279523239300996451819920813774069966696104613455516298622118593)
@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    omega=st.floats(0.0, 10.0),
    mu=st.floats(0.0, 3.0),
    nu=st.floats(0.0, 3.0),
    t=st.floats(0.0, 3.0),
    dim=st.integers(4, 32),
    kind=st.sampled_from(["fock", "coherent", "thermal", "mixture", "random"]),
    seed=st.integers(0, 2**16),
)
@example(omega=7.0, mu=1.2, nu=1.2, t=1.0, dim=8, kind="random", seed=1)
@example(omega=10.0, mu=0.0, nu=0.3, t=1.0, dim=12, kind="coherent", seed=2)
@example(omega=10.0, mu=2.0, nu=0.0, t=3.0, dim=32, kind="coherent", seed=3)
@example(omega=3.0, mu=0.5, nu=1.0, t=0.5, dim=12, kind="mixture", seed=4)
# Pumped top level: both oracles must use the truncated a a^dag there.
@example(omega=0.0, mu=3.0, nu=1.0, t=3.0, dim=9, kind="fock", seed=0)
# The pump carries the state past 2D; only the lost trace shows it.
@example(omega=0.0, mu=0.0, nu=2.0, t=3.0, dim=9, kind="fock", seed=0)
def test_three_way_agreement_property(omega, mu, nu, t, dim, kind, seed):
    # Criterion 4's rule over the whole input space: on the smallest
    # certified D_o the three methods agree pairwise, and the dim-D closed
    # form is the top block of both oracles. Off-diagonal states under every
    # omega pin the phase sign on the +k and -k diagonals. Draws that no
    # dimension up to PROPERTY_DIM_MAX certifies are discarded.
    params = fock.ModelParams(omega=omega, mu=mu, nu=nu)
    rho0 = _drawn_state(kind, dim, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fock.GainWarning)
        found = _certified_dim([rho0], params, t, PROPERTY_DIM_MAX)
        assume(found is not None)
        d_o = found[0]
        big0 = _zero_padded(rho0, d_o)
        ana = propagator.evolve_analytic_grid(big0, params, [t])[0][0]
        ana_d = propagator.evolve_analytic_grid(rho0, params, [t])[0][0]
    via_expm = liouville.evolve_numeric_expm_grid(big0, params, [t])[0]
    via_rk4 = liouville.evolve_numeric_rk4_grid(big0, params, [t])[0]
    distances = {
        "analytic_vs_expm": observables.frobenius_distance(ana, via_expm),
        "analytic_vs_rk4": observables.frobenius_distance(ana, via_rk4),
        "expm_vs_rk4": observables.frobenius_distance(via_expm, via_rk4),
        "block_vs_expm": observables.frobenius_distance(ana_d, via_expm[:dim, :dim]),
        "block_vs_rk4": observables.frobenius_distance(ana_d, via_rk4[:dim, :dim]),
    }
    assert max(distances.values()) <= 1e-7, f"D_o = {d_o}: {distances}"


def test_criterion_05_nu_zero_corollary():
    start = time.time()
    dim = 12
    rng = np.random.default_rng(55)
    worst_entry = 0.0
    worst_decay = 0.0
    for _ in range(50):
        rho0 = random_interior_density(dim, 8, rng)
        mu = float(rng.uniform(0.05, 2.0))
        omega = float(rng.uniform(0.0, 5.0))
        t = float(rng.uniform(0.0, 3.0))
        params = fock.ModelParams(omega=omega, mu=mu, nu=0.0)
        via_full = propagator.evolve_analytic_grid(rho0, params, [t])[0][0]
        dense = dense_pure_loss(rho0, params, t)
        worst_entry = max(worst_entry, float(np.abs(via_full - dense).max()))
        decay_dev = abs(
            observables.expect_n(via_full) - math.exp(-mu * t) * observables.expect_n(rho0)
        )
        worst_decay = max(worst_decay, decay_dev)
    elapsed = time.time() - start
    ok = worst_entry <= 1e-12 and worst_decay <= 1e-8
    text = _line(
        "05 nu-zero-corollary",
        worst_entry,
        1e-12,
        elapsed,
        ok,
        f" [expect_n decay dev {worst_decay:.2e} tol 1e-08]",
    )
    assert worst_entry <= 1e-12, text
    assert worst_decay <= 1e-8, text
    assert elapsed < 5.0, text


def test_criterion_06_conservation_suite(dim24):
    start = time.time()
    worst_herm = 0.0
    worst_eig = 0.0
    worst_certified_trace = 0.0
    uncertified = []
    n_cells = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fock.GainWarning)
        for kind, params, t in _three_way_cells():
            rho0 = _grid_state(kind, dim24)
            out = propagator.evolve_analytic_grid(rho0, params, [t])[0][0]
            scale = max(1.0, float(np.abs(out).max()))
            worst_herm = max(
                worst_herm, float(np.abs(out - out.conj().T).max()) / scale
            )
            report = fock.validate_density(out, TIGHT_TOLERANCES)
            worst_eig = min(worst_eig, report.min_eigenvalue)
            n_cells += 1
            # The trace bound applies where the doubling-dimension check
            # certifies truncation convergence.
            escape = propagator.evolve_analytic_grid(rho0, params, [t], certify=True)[1][0]
            if escape <= propagator.TRUNCATION_DOUBLING_TOL:
                worst_certified_trace = max(worst_certified_trace, report.trace_dev)
            else:
                uncertified.append(f"(mu={params.mu}, nu={params.nu}, t={t}, {kind})")
    elapsed = time.time() - start
    ok = worst_herm <= 1e-12 and worst_eig >= -1e-9 and worst_certified_trace <= 1e-8
    text = _line(
        "06 conservation-suite",
        worst_certified_trace,
        1e-8,
        elapsed,
        ok,
        f" [hermiticity {worst_herm:.2e}/1e-12, min_eig {worst_eig:.2e}/-1e-09, "
        f"{n_cells - len(uncertified)}/{n_cells} cells truncation-certified]",
    )
    assert worst_herm <= 1e-12, text
    assert worst_eig >= -1e-9, text
    assert worst_certified_trace <= 1e-8, text
    assert elapsed < 120.0, text


def test_criterion_07_steady_state():
    start = time.time()
    trunc = fock.TruncationConfig(support_max=17, guard=22)
    params = fock.ModelParams(omega=0.0, mu=1.0, nu=0.5)
    rho_ss = propagator.evolve_analytic_grid(fock.fock_state(0, trunc), params, [40.0])[0][0]
    n_dev = abs(observables.expect_n(rho_ss) - 1.0)
    dist = observables.frobenius_distance(rho_ss, fock.thermal_state(1.0, trunc))
    elapsed = time.time() - start
    worst = max(n_dev, dist)
    text = _line("07 steady-state", worst, 1e-4, elapsed, worst <= 1e-4)
    assert n_dev <= 1e-4, text
    assert dist <= 1e-4, text
    assert elapsed < 60.0, text


def test_criterion_08_classical_appendix():
    start = time.time()
    worst_traj = 0.0
    worst_det = 0.0
    for omega, gamma in ((2.0, 1.0), (1.0, 0.1), (5.0, 0.0)):
        params = classical.ClassicalParams(omega=omega, gamma=gamma)
        p0 = classical.PhasePoint(1.0, 0.0)
        for t in np.linspace(0.0, 10.0, 21):
            t = float(t)
            m = classical.evolution_matrix(params, t)
            worst_det = max(worst_det, abs(np.linalg.det(m) - math.exp(-2 * gamma * t)))
            if t == 0.0:
                continue
            steps = max(1, int(np.ceil(t * max(omega, 2 * gamma) / 0.003)))
            (x, y), = classical.evolve_classical_analytic_grid(p0, params, [t])
            approx = classical.evolve_classical_rk4(p0, params, t, steps)
            worst_traj = max(worst_traj, abs(x - approx.x), abs(y - approx.y))
    elapsed = time.time() - start
    ok = worst_traj <= 1e-8 and worst_det <= 1e-12
    text = _line(
        "08 classical-appendix",
        worst_traj,
        1e-8,
        elapsed,
        ok,
        f" [det dev {worst_det:.2e} tol 1e-12]",
    )
    assert worst_traj <= 1e-8, text
    assert worst_det <= 1e-12, text
    assert elapsed < 5.0, text


def test_criterion_09_k0_commutativity():
    start = time.time()
    worst = 0.0
    for dim in (4, 8, 16):
        k0, k_plus, k_minus, k3 = liouville.k_superoperators(dim)
        for other in (k_plus, k_minus, k3):
            worst = max(worst, float(np.abs(k0 @ other - other @ k0).max()))
    elapsed = time.time() - start
    text = _line("09 k0-commutativity", worst, 1e-14, elapsed, worst <= 1e-14)
    assert worst <= 1e-14, text
    assert elapsed < 5.0, text


def test_criterion_10_cli_determinism(tmp_path):
    start = time.time()
    cfg_text = """
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
t_end = 2.0
num_points = 5

[run]
method = analytic
"""
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(cfg_text, encoding="utf-8")
    # In-process reproducibility.
    cfg = config.load_run_config(str(cfg_path))
    assert cli.cmd_evolve(cfg) == cli.cmd_evolve(cfg)
    # Byte-identical CSV through the real command line.
    outputs = []
    for name in ("a.csv", "b.csv"):
        out_path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "qdho", "evolve", "--config", str(cfg_path), "--out", str(out_path)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(out_path.read_bytes())
    ok = outputs[0] == outputs[1]
    elapsed = time.time() - start
    text = _line("10 cli-determinism", 0.0 if ok else 1.0, 0.0, elapsed, ok)
    assert ok, text
