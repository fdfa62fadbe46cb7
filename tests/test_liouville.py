import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qdho import config, fock, liouville, su11, verification
from reference import (
    build_liouvillian,
    dense_disentangling_superop_residual,
    devectorize,
    kron_superoperators,
    ladder,
    literal_liouvillian,
    literal_rhs,
    random_interior_density,
)


def trunc_of(dim, support=None):
    support = dim - 1 if support is None else support
    return fock.TruncationConfig(support_max=support, guard=dim - 1 - support)


def rk4_step_loop(rhs, r, h, steps):
    # Classic fixed-step RK4, one step at a time.
    for _ in range(steps):
        k1 = rhs(r)
        k2 = rhs(r + 0.5 * h * k1)
        k3 = rhs(r + 0.5 * h * k2)
        k4 = rhs(r + h * k3)
        r = r + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return r


class TestVectorize:
    def test_row_major_layout(self):
        v = liouville.vectorize(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(v, [1, 2, 3, 4])

    def test_identity_layout(self):
        np.testing.assert_array_equal(liouville.vectorize(np.eye(2)), [1, 0, 0, 1])

    def test_round_trip(self):
        m = devectorize(np.array([1, 2, 3, 4], dtype=complex), 2)
        np.testing.assert_array_equal(m, [[1, 2], [3, 4]])
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        np.testing.assert_array_equal(devectorize(liouville.vectorize(x), 5), x)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            liouville.vectorize(np.ones((2, 3)))


class TestSandwichCheck:
    def test_identity_sandwich_is_exact(self):
        x = np.arange(9.0).reshape(3, 3)
        assert liouville.sandwich_check(np.eye(3), x, np.eye(3)) == 0.0

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_random_triples(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(25):
            a, x, b = (
                rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                for _ in range(3)
            )
            assert liouville.sandwich_check(a, x, b) <= 1e-12

    def test_ladder_sandwich(self):
        # The exact pattern the Liouvillian is built from: a rho a^dag.
        a, a_dagger, _ = ladder(4, theta=0.3)
        rho = fock.coherent_state(1.0, trunc_of(12))[:4, :4]
        assert liouville.sandwich_check(a, rho, a_dagger) <= 1e-12

    def test_rejects_mismatched_dims(self):
        with pytest.raises(ValueError):
            liouville.sandwich_check(np.eye(2), np.eye(3), np.eye(3))


class TestKSuperoperators:
    def test_k0_commutes_exactly(self):
        k0, k_plus, k_minus, k3 = liouville.k_superoperators(6)
        for other in (k_plus, k_minus, k3):
            assert np.abs(k0 @ other - other @ k0).max() <= 1e-14

    def test_ladder_commutators_truncation_exact(self):
        k0, k_plus, k_minus, k3 = liouville.k_superoperators(6)
        assert np.abs(k3 @ k_plus - k_plus @ k3 - k_plus).max() <= 1e-14
        assert np.abs(k3 @ k_minus - k_minus @ k3 + k_minus).max() <= 1e-14

    def test_su11_closure_fails_only_at_edge(self):
        dim = 6
        k0, k_plus, k_minus, k3 = liouville.k_superoperators(dim)
        defect = k_plus @ k_minus - k_minus @ k_plus + 2.0 * k3
        # The defect is diagonal and supported only on basis kets |i><j| that
        # touch the top level.
        assert np.abs(defect - np.diag(np.diag(defect))).max() == 0.0
        diag = np.real(np.diag(defect)).reshape(dim, dim)
        interior = diag[: dim - 1, : dim - 1]
        # Interior entries cancel up to sqrt(n) rounding; edge entries are O(D^2).
        assert np.abs(interior).max() <= 5e-14
        assert np.abs(diag[dim - 1, :]).max() > 1.0

    @pytest.mark.parametrize("dim", [2, 5, 16])
    def test_phase_of_a_cancels_from_every_k(self, dim):
        # Under vec(A X B) = kron(A, B^T) vec(X), K- is rho -> a rho a^dag
        # and K+ is rho -> a^dag rho a. The phase of a = e^{i theta} b
        # cancels from both, so the real-shift K are those of any phased
        # ladder, and bit for bit those of the theta = 0 one.
        eye = np.eye(dim)
        got = liouville.k_superoperators(dim)
        assert all(k.dtype == float for k in got)
        for theta in (0.0, 0.7, np.pi):
            a, a_dagger, n = ladder(dim, theta)
            want = (
                np.kron(n, eye) - np.kron(eye, n),
                np.kron(a_dagger, a.T),
                np.kron(a, a_dagger.T),
                0.5 * (np.kron(n, eye) + np.kron(eye, n) + np.kron(eye, eye)),
            )
            for k, expected in zip(got, want):
                if theta == 0.0:
                    np.testing.assert_array_equal(k, expected)
                else:
                    np.testing.assert_allclose(k, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("dim", range(1, 17))
    def test_equals_the_kron_construction(self, dim):
        # K0 and K3 are built as diagonals, K+ and K- by kron: the same
        # dtype, shape and bytes as the four sums of Kronecker products.
        pairs = zip(liouville.k_superoperators(dim), kron_superoperators(dim), strict=True)
        for got, want in pairs:
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

    def test_peak_memory_is_its_outputs(self):
        # The kron sums of K0 and K3 held two more D^2 x D^2 temporaries
        # (a peak of 1.5 x the outputs at D = 16); the diagonals hold none.
        liouville.k_superoperators(16)  # warm numpy's caches outside the trace
        tracemalloc.start()
        try:
            ops = liouville.k_superoperators(16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs = sum(op.nbytes for op in ops)
        assert outputs == 4 * 8 * 16**4
        assert peak <= 1.25 * outputs

    def test_size_budget_admits_every_criterion_4_dimension(self):
        # Criterion 4 may run the sector oracles at up to 64 levels. The
        # dense superoperators serve only the identity suites (D <= 16) and
        # keep the same bound.
        assert liouville.DENSE_MAX_DIM >= 64
        assert liouville.ORACLE_MAX_DIM >= 64

    def test_over_size_budget_raises_before_allocating(self, monkeypatch):
        # At D = 96 k_superoperators would return four real 9216 x 9216
        # superoperators of 8 D^4 bytes (679 MB) each. Both budgets must
        # refuse on the dimension alone: the dense one at D = 96, the sector
        # oracle's one level above its own cap. No operator, block or
        # exponential is built.
        dim = 96
        one_superoperator = 8 * dim**4
        assert dim > liouville.DENSE_MAX_DIM and one_superoperator > 6.7e8

        def no_operators(*args, **kwargs):
            raise AssertionError("an oracle built its operators despite the budget")

        for name in ("_sector_block", "expm"):
            monkeypatch.setattr(liouville, name, no_operators)
        oracle_dim = liouville.ORACLE_MAX_DIM + 1
        rho_sector = fock.fock_state(0, trunc_of(oracle_dim, support=1))
        params = fock.ModelParams(omega=1.0, mu=1.0, nu=0.4)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"budget is D <= {liouville.ORACLE_MAX_DIM}"):
                liouville.evolve_numeric_expm_grid(rho_sector, params, [1.0])
            with pytest.raises(ValueError, match="budget is D <= 64"):
                liouville.k_superoperators(dim)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < one_superoperator / 1000


class TestBuildLiouvillian:
    def test_vacuum_is_stationary_without_pump(self):
        trunc = trunc_of(5)
        lv = build_liouvillian(fock.ModelParams(omega=2.0, mu=1.3, nu=0.0), trunc.dim)
        vac = liouville.vectorize(fock.fock_state(0, trunc))
        assert np.abs(lv @ vac).max() <= 1e-14

    def test_single_excitation_rate_equation(self):
        # Applying the generator to |1><1| must yield |0><0| - |1><1|.
        trunc = trunc_of(5)
        lv = build_liouvillian(fock.ModelParams(omega=0.0, mu=1.0, nu=0.0), trunc.dim)
        image = lv @ liouville.vectorize(fock.fock_state(1, trunc))
        expected = liouville.vectorize(
            fock.fock_state(0, trunc) - fock.fock_state(1, trunc)
        )
        np.testing.assert_allclose(image, expected, atol=1e-14)

    def test_trace_annihilated_on_interior_states(self):
        dim = 7
        lv = build_liouvillian(fock.ModelParams(omega=3.0, mu=0.7, nu=0.4), dim)
        trace_form = liouville.vectorize(np.eye(dim))
        rng = np.random.default_rng(8)
        for _ in range(10):
            v = liouville.vectorize(random_interior_density(dim, dim - 2, rng))
            assert abs(trace_form @ (lv @ v)) <= 1e-13

    def test_matches_direct_master_equation_away_from_edge(self):
        # Compare L rho_vec against the literal right-hand side
        # -i w [N,r] - mu/2 (Nr+rN-2 a r a+) - nu/2 (aa+ r + r aa+ - 2 a+ r a).
        # The K3 form absorbs a a^dag = N + 1, so the two differ exactly by
        # -nu (D P r P + ...) at the top level; on the identity/D input the
        # difference is the single corner entry -nu.
        dim = 6
        params = fock.ModelParams(omega=1.2, mu=0.8, nu=0.5)
        direct_rhs = literal_rhs(params, dim)
        lv = build_liouvillian(params, dim)
        rho = np.eye(dim, dtype=complex) / dim
        via_l = devectorize(lv @ liouville.vectorize(rho), dim)
        direct = direct_rhs(rho)
        difference = via_l - direct
        expected = np.zeros((dim, dim), dtype=complex)
        expected[dim - 1, dim - 1] = -params.nu
        np.testing.assert_allclose(difference, expected, atol=1e-14)
        # Interior states see no difference at all.
        rng = np.random.default_rng(3)
        rho_int = random_interior_density(dim, dim - 2, rng)
        via_l = devectorize(lv @ liouville.vectorize(rho_int), dim)
        np.testing.assert_allclose(via_l, direct_rhs(rho_int), atol=1e-14)


class TestLiouvillianSectors:
    @pytest.mark.parametrize("dim", [2, 5, 16])
    @pytest.mark.parametrize(
        "omega, mu, nu", [(1.7, 0.8, 0.3), (2.0, 0.0, 0.6), (0.9, 1.1, 0.0), (0.0, 0.5, 0.5)]
    )
    def test_blocks_assemble_to_dense_liouvillian(self, dim, omega, mu, nu):
        # Sector k holds the entries (i, i + k), ordered by i; placed at their
        # row-major vector positions the blocks must rebuild the literal
        # truncated generator entry by entry, zeros between sectors included.
        # It differs from the K form only on the diagonal: by nu D / 2 for
        # each of i and j at the top level D - 1.
        params = fock.ModelParams(omega=omega, mu=mu, nu=nu)
        dense = literal_liouvillian(params, dim, theta=0.4)
        assembled = np.zeros_like(dense)
        table = liouville._literal_rhs(params, dim)
        for k in range(1 - dim, dim):
            idx = [i * dim + i + k for i in range(dim) if 0 <= i + k < dim]
            assembled[np.ix_(idx, idx)] = liouville._sector_block(table, k)
        scale = max(1.0, float(np.abs(dense).max()))
        assert np.abs(assembled - dense).max() <= 1e-15 * scale
        top = np.arange(dim) == dim - 1
        edge = 0.5 * nu * dim * (top[:, None].astype(float) + top[None, :]).reshape(-1)
        k_form = build_liouvillian(params, dim)
        assert np.abs(assembled - k_form - np.diag(edge)).max() <= 1e-15 * scale

    @pytest.mark.parametrize("dim", [1, 5, 16])
    def test_negative_sector_is_conjugate_of_positive(self, dim):
        # Both oracles exponentiate or power only k >= 0 and conjugate for -k.
        table = liouville._literal_rhs(fock.ModelParams(omega=1.7, mu=0.8, nu=0.3), dim)
        for k in range(dim):
            np.testing.assert_array_equal(
                liouville._sector_block(table, -k), np.conj(liouville._sector_block(table, k))
            )

    @pytest.mark.parametrize("dim", range(1, 10))
    def test_sector_order_lists_each_sector_in_turn(self, dim):
        # Both oracles and the superoperator suite gather sector k as one
        # slice of the flattened matrix taken through this permutation.
        order, spans = liouville._sector_order(dim)
        assert sorted(order.tolist()) == list(range(dim * dim))
        assert len(spans) == 2 * dim - 1
        for k, span in zip(range(1 - dim, dim), spans):
            rows, cols = liouville._sector_entries(dim, k)
            assert order[span].tolist() == (rows * dim + cols).tolist()


@st.composite
def expm_stacks(draw):
    """A (m, n, n) or (2, 3, n, n) stack: the zero matrix first, then members
    needing from no squaring to about ten.

    Dense members are skew-Hermitian (unitary exponentials, no overflow at
    any scale); nilpotent ones are a scaled superdiagonal shift, whose
    exponential has entries c^j / j! that the Taylor polynomial builds one
    degree at a time, so a member given another member's scaling or
    squarings shows.
    """
    n = draw(st.integers(1, 9))
    lead = draw(st.sampled_from([(draw(st.integers(1, 6)),), (2, 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    members = [np.zeros((n, n), dtype=complex)]
    for _ in range(math.prod(lead) - 1):
        scale = draw(st.sampled_from([1e-3, 0.3, 4.0, 300.0]))
        if draw(st.booleans()):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            members.append(scale * (g - g.conj().T) / (2 * n))
        else:
            members.append(scale * np.eye(n, k=1, dtype=complex))
    return np.array(members).reshape(*lead, n, n)


class TestExpm:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(liouville.expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = liouville.expm(np.diag([1.0, 2.0]).astype(complex))
        np.testing.assert_allclose(out, np.diag([np.e, np.e**2]), rtol=0, atol=1e-13)

    def test_cross_validates_closed_form_flow(self):
        m = liouville.expm(1.0 * su11.generator(2.0, 1.0))
        np.testing.assert_allclose(m, su11.flow(2.0, 1.0, 1.0), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [3, 8, 20])
    def test_against_scipy(self, dim):
        rng = np.random.default_rng(dim)
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        ours = liouville.expm(m)
        reference = scipy.linalg.expm(m)
        scale = max(1.0, np.abs(reference).max())
        assert np.abs(ours - reference).max() / scale <= 1e-12

    def test_rejects_nonfinite(self):
        bad = np.array([[0.0, np.nan], [0.0, 0.0]])
        with pytest.raises(ValueError):
            liouville.expm(bad)

    # A pinned seed is the one derandomize drew from this test's source, so
    # editing the test keeps its draws.
    @seed(1919933723341870616631211952982404918363271232063352631479916467602800511913858517151605755206377867864690221037242)
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(stack=expm_stacks())
    def test_stack_equals_member_loop(self, stack):
        # Each member keeps its own scaling and squarings around the same
        # fixed-degree Taylor polynomial, so a stack gives the bits of one
        # call per member.
        got = liouville.expm(stack)
        flat = stack.reshape(-1, *stack.shape[-2:])
        expected = np.array([liouville.expm(x) for x in flat]).reshape(stack.shape)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("c", [1e-3, 0.3, 7.5, 1e3, 2.0 - 3.0j])
    def test_nilpotent_generator_is_exact(self, c):
        # k+ squares to zero, so exp(c k+) = I + c k+; every Horner step and
        # squaring of I + X with X^2 = 0 is exact.
        k_plus = su11.k_generators()[0]
        np.testing.assert_array_equal(liouville.expm(c * k_plus), np.eye(2) + c * k_plus)

    def test_stack_with_one_nonfinite_member_raises(self):
        stack = np.zeros((3, 2, 2), dtype=complex)
        stack[1, 0, 1] = np.nan
        with pytest.raises(ValueError):
            liouville.expm(stack)

    def test_rejects_non_square_stack(self):
        with pytest.raises(ValueError):
            liouville.expm(np.zeros((3, 2, 4)))

    @pytest.mark.parametrize(
        "m",
        [
            [[-1e308]],
            [[5e307]],
            [[-(2.0**1022) * (1 + 2.0**-52)]],
            [[1e308, 1e308], [0.0, 0.0]],  # the row sum itself overflows
            [[1.7e308 + 1.7e308j]],  # so does |m|
        ],
    )
    def test_refuses_a_norm_it_cannot_scale(self, m):
        # Past norm 2^1022 the squaring count reaches 1024 and 2.0**s
        # overflows; the refusal comes before any numpy work warns.
        with pytest.raises(ValueError, match="over 2\\^1022"):
            liouville.expm(np.array(m))

    def test_scales_up_to_norm_2_pow_1022(self):
        # s = 1023 squarings of e^{-0.5}: the result underflows to 0, no warning.
        assert liouville.expm(np.array([[-(2.0**1022)]])) == 0.0
        stack = np.array([[[-1.0]], [[-(2.0**1022)]]])
        np.testing.assert_array_equal(liouville.expm(stack), [[[math.exp(-1.0)]], [[0.0]]])

    def test_stack_with_one_unscalable_member_raises(self):
        with pytest.raises(ValueError, match="over 2\\^1022"):
            liouville.expm(np.array([[[1.0]], [[1e308]]]))

    def test_refuses_an_exponential_past_the_double_range(self):
        # e^1000 overflows in the squarings; the suite's error::RuntimeWarning
        # would turn a leaked numpy warning into a different exception.
        with pytest.raises(ValueError, match="overflows double precision"):
            liouville.expm(np.array([[1000.0]]))

    def test_stack_with_one_overflowing_member_raises(self):
        with pytest.raises(ValueError, match="overflows double precision"):
            liouville.expm(np.array([[[1.0]], [[1000.0]]]))

    def test_largest_finite_exponential(self):
        got = liouville.expm(np.array([[709.0]]))[0, 0]
        assert abs(got - math.exp(709.0)) <= 1e-13 * math.exp(709.0)


_SECTOR_RATES = [(2.0 * math.pi, 1.0, 0.4), (0.0, 1.0, 0.0), (1.7, 0.8, 0.8), (3.0, 0.2, 1.5)]


@pytest.mark.parametrize("t", [0.1, 0.5, 1.3, 3.0])
@pytest.mark.parametrize(
    "dim, k", [(dim, k) for dim in (24, 64, 128) for k in (0, 1, dim // 2, dim - 1)]
)
@pytest.mark.parametrize("omega, mu, nu", _SECTOR_RATES)
def test_expm_of_sector_block_against_scipy(omega, mu, nu, dim, k, t):
    # The blocks the expm oracle exponentiates: loss, balanced rates and
    # gain, up to ORACLE_MAX_DIM. Worst seen: 8.1e-14 (D = 128, k = 0).
    params = fock.ModelParams(omega=omega, mu=mu, nu=nu)
    block = t * liouville._sector_block(liouville._literal_rhs(params, dim), k)
    reference = scipy.linalg.expm(block)
    scale = max(1.0, float(np.abs(reference).max()))
    assert np.abs(liouville.expm(block) - reference).max() / scale <= 5e-13


@pytest.mark.parametrize("t", [0.1, 0.5, 1.3, 3.0])
@pytest.mark.parametrize(
    "dim, k", [(dim, k) for dim in (24, 64, 128) for k in (0, 1, dim // 2, dim - 1)]
)
@pytest.mark.parametrize("omega, mu, nu", _SECTOR_RATES)
def test_rotation_factors_out_of_sector_exponential(omega, mu, nu, dim, k, t):
    # The expm oracle's factorization: on sector k the rotation is the scalar
    # i omega k, so exp(t L_k) = e^{i omega k t} exp(t R_k) with R_k real.
    params = fock.ModelParams(omega=omega, mu=mu, nu=nu)
    block = liouville._sector_block(liouville._literal_rhs(params, dim), k)
    real_part = liouville.expm(t * block.real)
    assert real_part.dtype == np.float64
    reference = scipy.linalg.expm(t * block)
    scale = max(1.0, float(np.abs(reference).max()))
    factored = np.exp(1j * omega * k * t) * real_part
    assert np.abs(factored - reference).max() / scale <= 5e-13


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("scale", [1e-3, 1.0, 40.0])
def test_expm_keeps_real_input_real(seed, scale):
    # A real matrix or stack takes float64 products throughout and agrees with
    # the real part of its complex-cast exponential.
    rng = np.random.default_rng(seed)
    m = scale * rng.standard_normal((3, 6, 6)) / 6
    ours = liouville.expm(m)
    assert ours.dtype == np.float64
    via_complex = liouville.expm(m.astype(complex))
    assert via_complex.dtype == np.complex128
    reference = max(1.0, float(np.abs(via_complex).max()))
    assert np.abs(ours - via_complex.real).max() / reference <= 1e-15
    from_int = liouville.expm(np.eye(4, dtype=int))
    assert from_int.dtype == np.float64
    np.testing.assert_allclose(from_int, np.e * np.eye(4), rtol=1e-15, atol=0)


class TestEvolveNumericExpm:
    def test_t_zero_is_identity_map(self):
        trunc = trunc_of(12, support=8)
        rho0 = fock.coherent_state(1.0, trunc)
        out = liouville.evolve_numeric_expm_grid(
            rho0, fock.ModelParams(omega=1, mu=1, nu=0), [0.0]
        )[0]
        np.testing.assert_allclose(out, rho0, atol=1e-15)

    def test_two_level_rate_equation(self):
        trunc = trunc_of(6)
        rho0 = fock.fock_state(1, trunc)
        out = liouville.evolve_numeric_expm_grid(
            rho0, fock.ModelParams(omega=0, mu=1, nu=0), [1.0]
        )[0]
        expected = np.zeros((6, 6))
        expected[0, 0] = 1 - np.exp(-1)
        expected[1, 1] = np.exp(-1)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_diagonal_states_stay_diagonal(self):
        trunc = trunc_of(14)
        rho0 = fock.thermal_state(0.3, trunc)
        out = liouville.evolve_numeric_expm_grid(
            rho0, fock.ModelParams(omega=5.0, mu=1.0, nu=0.2), [0.7]
        )[0]
        off = out - np.diag(np.diag(out))
        assert np.abs(off).max() <= 1e-10

    def test_rejects_invalid_state(self):
        bad = np.diag([2.0, -1.0, 0, 0]).astype(complex)
        with pytest.raises(fock.ValidationError):
            liouville.evolve_numeric_expm_grid(bad, fock.ModelParams(mu=1.0), [1.0])

    def test_both_oracles_warn_on_gain(self):
        rho0 = fock.fock_state(1, trunc_of(8))
        params = fock.ModelParams(mu=0.2, nu=1.5)
        with pytest.warns(fock.GainWarning, match="pump nu=1.5 exceeds loss mu=0.2"):
            liouville.evolve_numeric_expm_grid(rho0, params, [0.1])
        with pytest.warns(fock.GainWarning, match="pump nu=1.5 exceeds loss mu=0.2"):
            liouville.evolve_numeric_rk4_grid(rho0, params, [0.1])

    def test_states_at_one_point_share_block_exponentials(self):
        # Criterion 4 evolves three states at each (params, D, t): the blocks
        # are exponentiated once and read twice more from the cache.
        trunc = trunc_of(24, support=9)
        params = fock.ModelParams(omega=2.0, mu=1.0, nu=0.4)
        states = [
            fock.coherent_state(1.0, trunc),
            fock.fock_state(3, trunc),
            fock.thermal_state(0.5, trunc),
        ]
        liouville._cached_propagator.cache_clear()
        try:
            for rho0 in states:
                liouville.evolve_numeric_expm_grid(rho0, params, [0.7])
            info = liouville._cached_propagator.cache_info()
        finally:
            liouville._cached_propagator.cache_clear()
        assert (info.misses, info.hits) == (1, 2)


def sector_reference(rho0, params, t):
    # One exponential per sector, -k included, applied to its own diagonal:
    # the oracle without the grid stacking. exp(t L_k) is e^{i omega k t}
    # exp(t R_k), R_k the real part of L_k, and the real exponential takes
    # the diagonal's real and imaginary parts as two columns.
    dim = len(rho0)
    out = np.empty_like(rho0)
    for k in range(1 - dim, dim):
        rows, cols = liouville._sector_entries(dim, k)
        block = liouville._sector_block(liouville._literal_rhs(params, dim), k)
        block_exp = liouville.expm(t * block.real)
        parts = block_exp @ np.stack([rho0[rows, cols].real, rho0[rows, cols].imag], axis=1)
        phase = np.exp(1j * (params.omega * k * np.array([t])))
        out[rows, cols] = phase * (parts[:, 0] + 1j * parts[:, 1])
    return out


def skewed_state(dim, seed):
    # A valid state plus a traceless anti-Hermitian part of 1e-3: its -k
    # diagonal is not the conjugate of its +k diagonal.
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    skew = 1e-3 * (g - g.conj().T) / 2
    np.fill_diagonal(skew, 0.0)
    mat = random_interior_density(dim, dim - 1, rng) + skew
    return mat


#: Accepts skewed_state, whose Hermiticity deviation is ~1e-3.
SKEW_TOLERANCES = config.ToleranceConfig(hermiticity_tol=1e-2)


class TestEvolveNumericExpmGrid:
    def test_grid_equals_per_time_loop(self, monkeypatch):
        # With the size budget at 10, a chunk at D = 7 holds two times
        # (385 // 140 entries), so the seven times take four stacked
        # exponentials per sector, the last one a single time. Every state
        # has the bits of a one-time call and of the per-sector reference.
        dim = 7
        monkeypatch.setattr(liouville, "ORACLE_MAX_DIM", 10)
        params = fock.ModelParams(omega=2.0, mu=1.0, nu=0.4)
        rho0 = random_interior_density(dim, dim - 1, np.random.default_rng(3))
        times = [0.0, 0.35, 0.35, 1.2, 3.0, 0.05, 2.5]
        liouville._cached_propagator.cache_clear()
        try:
            grid = liouville.evolve_numeric_expm_grid(rho0, params, times)
            misses = liouville._cached_propagator.cache_info().misses
            singles = [liouville.evolve_numeric_expm_grid(rho0, params, [t])[0] for t in times]
        finally:
            liouville._cached_propagator.cache_clear()
        assert misses == 4
        for t, state, single in zip(times, grid, singles):
            assert state.tobytes() == single.tobytes()
            assert state.tobytes() == sector_reference(rho0, params, t).tobytes()
        np.testing.assert_array_equal(grid[0], rho0)

    def test_empty_grid_gives_no_states(self):
        rho0 = fock.fock_state(1, trunc_of(5))
        states = liouville.evolve_numeric_expm_grid(rho0, fock.ModelParams(mu=1.0), [])
        assert (states.shape, states.dtype) == ((0, 5, 5), complex)

    def test_rejects_negative_time(self):
        rho0 = fock.fock_state(1, trunc_of(5))
        with pytest.raises(ValueError, match="non-negative"):
            liouville.evolve_numeric_expm_grid(rho0, fock.ModelParams(mu=1.0), [0.0, 1.0, -0.5])

    def test_skewed_state_matches_dense_liouvillian(self):
        # The -k diagonal gets the conjugate block, not the conjugate of the
        # evolved +k diagonal: a state that is Hermitian only to a tolerance
        # must still follow exp(t L) of the literal generator on every entry.
        dim = 7
        params = fock.ModelParams(omega=1.3, mu=0.7, nu=0.4)
        rho0 = skewed_state(dim, 11)
        lv = literal_liouvillian(params, dim, theta=0.9)
        for t, state in zip(
            (0.4, 1.5),
            liouville.evolve_numeric_expm_grid(rho0, params, [0.4, 1.5], tolerances=SKEW_TOLERANCES),
        ):
            expected = devectorize(
                scipy.linalg.expm(t * lv) @ liouville.vectorize(rho0), dim
            )
            assert np.abs(state - expected).max() <= 1e-14 * np.abs(expected).max()

    @seed(36745837359261044607350406312374776135518854199617513953511881937182454222072439661474842713581256497153701590612915)
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        omega=st.floats(0.0, 3.0),
        mu=st.floats(0.0, 2.0),
        pump_fraction=st.floats(0.0, 0.5),
        s=st.floats(0.0, 1.0),
        t=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_semigroup(self, omega, mu, pump_fraction, s, t, seed):
        # exp((s + t) L) = exp(t L) exp(s L) for the truncated generator. Its
        # edge term leaks trace, so the intermediate state is accepted under
        # loose tolerances: the property is of the map, not of the physics.
        # The pump and the times keep the leak below those tolerances.
        dim = 16
        params = fock.ModelParams(omega=omega, mu=mu, nu=pump_fraction * mu)
        rho0 = random_interior_density(dim, 5, np.random.default_rng(seed))
        mid, whole = liouville.evolve_numeric_expm_grid(rho0, params, [s, s + t])
        loose = config.ToleranceConfig(hermiticity_tol=1e-2, trace_tol=1e-2, positivity_tol=1e-2)
        two_step = liouville.evolve_numeric_expm_grid(mid, params, [t], tolerances=loose)[0]
        assert np.abs(two_step - whole).max() <= 1e-12 * np.abs(whole).max()


class TestOracleCaches:
    def test_caches_hold_one_entry(self):
        assert liouville._cached_propagator.cache_info().maxsize == 1
        assert liouville._rk4_powers.cache_info().maxsize == 1

    def test_cached_exponentials_are_real(self):
        # The rotation is factored out as a phase, so the stacks are float64:
        # 8 bytes per entry.
        params = fock.ModelParams(omega=2.0, mu=1.0, nu=0.4)
        liouville._cached_propagator.cache_clear()
        try:
            stacks = liouville._cached_propagator(params, 6, (0.5, 1.0))
        finally:
            liouville._cached_propagator.cache_clear()
        assert [stack.shape for stack in stacks] == [(2, 6 - k, 6 - k) for k in range(6)]
        assert all(stack.dtype == np.float64 for stack in stacks)

    @pytest.mark.parametrize("dim, points", [(24, 101), (128, 3)])
    def test_cached_exponentials_within_chunk_bound(self, dim, points):
        # A chunk holds at most the entries of the k >= 0 blocks of one time
        # at the size budget: 16 sum(s^2, s <= 128) bytes, 11.3 MB.
        bound = 16 * sum(s * s for s in range(1, liouville.ORACLE_MAX_DIM + 1))
        assert bound == 11_316_224
        params = fock.ModelParams(omega=2.0, mu=1.0, nu=0.4)
        rho0 = fock.coherent_state(1.0, trunc_of(dim, support=9))
        times = np.linspace(0.0, 3.0, points)
        liouville._cached_propagator.cache_clear()
        try:
            liouville.evolve_numeric_expm_grid(rho0, params, times)
            chunk = int(bound // (16 * sum(s * s for s in range(1, dim + 1))))
            last = tuple(float(t) for t in times[(points - 1) // chunk * chunk :])
            cached = liouville._cached_propagator(params, dim, last)
            info = liouville._cached_propagator.cache_info()
        finally:
            liouville._cached_propagator.cache_clear()
        assert info.hits == 1
        assert sum(block.nbytes for block in cached) <= bound


class TestEvolveNumericRk4:
    def test_vacuum_fixed_point(self):
        trunc = trunc_of(6)
        rho0 = fock.fock_state(0, trunc)
        params = fock.ModelParams(omega=1.0, mu=1.0, nu=0.0)
        out = liouville._rk4_segment(rho0, params, 1.0, 200)
        np.testing.assert_allclose(out, rho0, atol=1e-12)

    def test_fourth_order_convergence(self):
        # Halving the step size must shrink the error against the expm
        # solution by roughly 2^4. With nu = 0 the two formulations coincide
        # exactly on the truncated space, so the residual is pure
        # integration error.
        trunc = trunc_of(8)
        rho0 = fock.fock_state(2, trunc)
        params = fock.ModelParams(omega=1.0, mu=0.5, nu=0.0)
        reference = liouville.evolve_numeric_expm_grid(rho0, params, [1.0])[0]
        errors = []
        for steps in (160, 320, 640):
            approx = liouville._rk4_segment(rho0, params, 1.0, steps)
            errors.append(np.abs(approx - reference).max())
        assert 12.0 <= errors[0] / errors[1] <= 20.0
        assert 12.0 <= errors[1] / errors[2] <= 20.0

    def test_agrees_with_expm_oracle(self):
        # Interior-supported state and a weak pump: the aa^dag = N + 1 edge
        # term (the one place where the two formulations differ on the
        # truncated space) then stays far below the comparison tolerance.
        rng = np.random.default_rng(42)
        rho0 = random_interior_density(12, 8, rng)
        params = fock.ModelParams(omega=0.4, mu=0.3, nu=0.001)
        via_rk4 = liouville._rk4_segment(rho0, params, 1.0, 1000)
        via_expm = liouville.evolve_numeric_expm_grid(rho0, params, [1.0])[0]
        assert np.linalg.norm(via_rk4 - via_expm) <= 1e-8

    @pytest.mark.parametrize("dim", [2, 7, 24])
    def test_matches_dense_operator_reference(self, dim):
        # The same classic RK4 with the right-hand side written as dense
        # products of the phased operators; every level is populated, so the
        # top-level corner of the truncated a a^dag is exercised.
        params = fock.ModelParams(omega=1.3, mu=0.7, nu=0.4)
        rhs = literal_rhs(params, dim, theta=0.9)
        t = 0.6
        steps = liouville.stability_steps(params, dim, t)
        rho0 = random_interior_density(dim, dim - 1, np.random.default_rng(dim))
        r = rk4_step_loop(rhs, rho0.copy(), t / steps, steps)
        got = liouville._rk4_segment(rho0, params, t, steps)
        assert np.abs(got - r).max() <= 1e-14 * np.abs(r).max()

    @pytest.mark.parametrize("dim", [2, 7, 24])
    @pytest.mark.parametrize("mu, nu", [(0.3, 0.9), (0.0, 0.6), (0.8, 0.0)])
    @pytest.mark.parametrize("steps", [1, 2, 7, "stability"])
    def test_matches_step_loop(self, dim, mu, nu, steps):
        # The oracle raises the one-step matrix to a power per sector; it must
        # equal the literal step loop to rounding for any step count,
        # including the odd ones binary powering splits unevenly, with
        # gain (nu > mu), damping only (nu = 0) and pumping only (mu = 0).
        params = fock.ModelParams(omega=1.3, mu=mu, nu=nu)
        rate = (params.omega + mu + nu) * dim
        if steps == "stability":
            t = 0.6
            steps = liouville.stability_steps(params, dim, t)
        else:
            t = 0.99 * steps * liouville.RK4_STABILITY_LIMIT / rate
        assert liouville.stability_steps(params, dim, t) == steps
        rho0 = random_interior_density(dim, dim - 1, np.random.default_rng(dim))
        r = rk4_step_loop(literal_rhs(params, dim, theta=0.9), rho0.copy(), t / steps, steps)
        got = liouville._rk4_segment(rho0, params, t, steps)
        assert np.abs(got - r).max() <= 1e-14 * np.abs(r).max()

    def test_call_at_work_budget_finishes_at_once(self):
        # The largest call the work budget admits at D = 24: 347,222 steps,
        # which a step loop would take about half a minute over. Powering the
        # one-step matrix costs O(log steps) products per sector. With nu = 0
        # the literal and N + 1 forms of a a^dag act alike, so the answer is
        # the expm oracle's to within RK4's error at this step size.
        dim = 24
        steps = liouville.RK4_MAX_WORK // dim**2
        params = fock.ModelParams(omega=2.0, mu=1.0, nu=0.0)
        assert liouville.stability_steps(params, dim, 3.0) <= steps
        rho0 = fock.coherent_state(1.5, trunc_of(dim, support=dim - 1))
        start = time.perf_counter()
        got = liouville._rk4_segment(rho0, params, 3.0, steps)
        elapsed = time.perf_counter() - start
        reference = liouville.evolve_numeric_expm_grid(rho0, params, [3.0])[0]
        assert np.abs(got - reference).max() <= 1e-12
        assert elapsed < 1.0

    def test_equal_segments_share_one_set_of_powers(self):
        # The six segments of a 7-point 0..3 grid are bit-equal (0.5 each), so
        # the per-sector powers are raised once and read five more times.
        dim = 16
        params = fock.ModelParams(omega=2.0, mu=1.0, nu=0.4)
        rho0 = fock.coherent_state(1.0, trunc_of(dim, support=9))
        liouville._rk4_powers.cache_clear()
        try:
            liouville.evolve_numeric_rk4_grid(rho0, params, np.linspace(0.0, 3.0, 7))
            info = liouville._rk4_powers.cache_info()
        finally:
            liouville._rk4_powers.cache_clear()
        assert (info.misses, info.hits) == (1, 5)

    def test_step_count_is_part_of_the_cache_key(self):
        dim = 12
        params = fock.ModelParams(omega=1.0, mu=0.5, nu=0.2)
        rho0 = fock.coherent_state(0.8, trunc_of(dim, support=7))
        steps = liouville.stability_steps(params, dim, 1.0)
        coarse = liouville._rk4_segment(rho0, params, 1.0, steps)
        fine = liouville._rk4_segment(rho0, params, 1.0, 2 * steps)
        assert not np.array_equal(coarse, fine)
        np.testing.assert_allclose(coarse, fine, atol=1e-6)

    def test_skewed_state_matches_dense_liouvillian(self):
        # As for the expm oracle: the -k diagonal gets the conjugate power.
        # With nu = 0 the literal a a^dag of the RK4 oracle and the N + 1 of
        # build_liouvillian act alike, so classic RK4 on the dense generator
        # is the reference.
        dim = 7
        params = fock.ModelParams(omega=1.3, mu=0.7, nu=0.0)
        rho0 = skewed_state(dim, 12)
        lv = build_liouvillian(params, dim)
        t = 0.6
        steps = 2 * liouville.stability_steps(params, dim, t)
        expected = devectorize(
            rk4_step_loop(lambda v: lv @ v, liouville.vectorize(rho0), t / steps, steps), dim
        )
        got = liouville.evolve_numeric_rk4_grid(rho0, params, [t], tolerances=SKEW_TOLERANCES)[0]
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_rejects_step_count_over_budget(self, monkeypatch):
        # omega = 1e8 at D = 24, t = 3 would need 7.2e10 steps. The call must
        # fail on the work budget alone, naming the count in four digits; the
        # oversized integration never starts.
        params = fock.ModelParams(omega=1e8, mu=1.0, nu=0.4)
        needed = liouville.stability_steps(params, 24, 3.0)
        assert needed == 72_000_001_008
        assert needed * 24**2 > liouville.RK4_MAX_WORK

        def no_stepping(*args, **kwargs):
            raise AssertionError("RK4 set up its right-hand side despite the work budget")

        monkeypatch.setattr(liouville, "_literal_rhs", no_stepping)
        rho0 = fock.fock_state(0, trunc_of(24))
        with pytest.raises(ValueError, match=r"^7\.200e\+10 RK4 steps at D = 24 exceed the work"):
            liouville._rk4_segment(rho0, params, 3.0, needed)

    def test_count_past_the_double_range_prints_compactly(self, monkeypatch):
        # A step count need not fit a float; the message rounds it exactly.
        monkeypatch.setattr(liouville, "_literal_rhs", None)  # set-up would fail
        rho0 = fock.fock_state(0, trunc_of(2))
        with pytest.raises(ValueError, match=r"^1\.235e\+400 RK4 steps at D = 2 exceed"):
            liouville._rk4_segment(rho0, fock.ModelParams(mu=1.0), 1.0, 12346 * 10**396)

    def test_rejects_work_over_budget(self, monkeypatch):
        # omega = 1e4 at D = 24, t = 1: 2.4e6 steps, but steps x D^2 = 1.4e9
        # is past the work budget. Nothing is set up.
        params = fock.ModelParams(omega=1e4, mu=1.0, nu=0.4)
        steps = liouville.stability_steps(params, 24, 1.0)
        assert steps * 24**2 > liouville.RK4_MAX_WORK

        def no_stepping(*args, **kwargs):
            raise AssertionError("RK4 set up its right-hand side despite the work budget")

        monkeypatch.setattr(liouville, "_literal_rhs", no_stepping)
        rho0 = fock.fock_state(0, trunc_of(24))
        with pytest.raises(ValueError, match="work budget"):
            liouville._rk4_segment(rho0, params, 1.0, steps)

    def test_stability_steps_edge_cases(self):
        assert liouville.stability_steps(fock.ModelParams(), 10, 5.0) == 1
        assert liouville.stability_steps(fock.ModelParams(mu=1.0), 10, 0.0) == 1


def rk4_segment_loop(rho0, params, times):
    # The grid walk the command line once ran itself: one call per
    # positive segment, at twice the stability step count.
    out, current, prev_t = [], rho0, 0.0
    for t in times:
        seg = float(t) - prev_t
        if seg > 0:
            steps = 2 * liouville.stability_steps(params, len(rho0), seg)
            current = liouville._rk4_segment(current, params, seg, steps)
        out.append(current)
        prev_t = float(t)
    return out


class TestEvolveNumericRk4Grid:
    @pytest.mark.parametrize(
        "mu, nu, t_start",
        [(1.0, 0.4, 0.0), (0.7, 0.7, 0.4), (0.2, 0.6, 0.0)],
        ids=["damped", "balanced", "gain"],
    )
    def test_grid_equals_segment_loop(self, mu, nu, t_start):
        # configs/damped_coherent.ini's state and D = 24 over 101 points.
        params = fock.ModelParams(omega=2 * math.pi, mu=mu, nu=nu)
        rho0 = fock.coherent_state(1.0, trunc_of(24, support=9))
        times = np.linspace(t_start, 3.0, 101)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fock.GainWarning)
            grid = liouville.evolve_numeric_rk4_grid(rho0, params, times)
            loop = rk4_segment_loop(rho0, params, times)
        assert len(grid) == len(loop) == 101
        for state, reference in zip(grid, loop):
            assert np.array_equal(state, reference)

    def test_validates_rho0_once_per_grid(self, monkeypatch):
        calls = []
        original = fock.validate_density

        def counting_validate(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(fock, "validate_density", counting_validate)
        params = fock.ModelParams(omega=2.0, mu=1.0, nu=0.4)
        rho0 = fock.coherent_state(1.0, trunc_of(12, support=7))
        states = liouville.evolve_numeric_rk4_grid(rho0, params, np.linspace(0.0, 3.0, 101))
        assert (len(states), len(calls)) == (101, 1)
        liouville.evolve_numeric_rk4_grid(rho0, params, [0.5])
        assert len(calls) == 2

    def test_gain_warns_once_per_grid(self):
        rho0 = fock.fock_state(1, trunc_of(8))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            liouville.evolve_numeric_rk4_grid(
                rho0, fock.ModelParams(mu=0.2, nu=1.5), np.linspace(0.0, 0.1, 6)
            )
        assert [w.category for w in caught] == [fock.GainWarning]

    def test_rate_bound_uses_the_largest_time(self):
        # 8 * 1e306 * D = 1.9e308 overflows at t = 1 already; the message
        # names the grid's last time, not the first segment's length.
        rho0 = fock.fock_state(0, trunc_of(24))
        with pytest.raises(ValueError, match=r"D = 24, t = 3 overflows"):
            liouville.evolve_numeric_rk4_grid(
                rho0, fock.ModelParams(mu=1e306), np.linspace(0.0, 3.0, 7)
            )

    def test_repeated_and_zero_times_repeat_the_state(self):
        rho0 = fock.coherent_state(0.8, trunc_of(10, support=5))
        params = fock.ModelParams(omega=1.0, mu=0.5, nu=0.2)
        states = liouville.evolve_numeric_rk4_grid(rho0, params, [0.0, 0.5, 0.5])
        assert states[0].tobytes() == rho0.tobytes()
        assert states[2].tobytes() == states[1].tobytes()
        empty = liouville.evolve_numeric_rk4_grid(rho0, params, [])
        assert (empty.shape, empty.dtype) == ((0, 10, 10), complex)

    def test_rejects_negative_time(self):
        rho0 = fock.fock_state(1, trunc_of(5))
        with pytest.raises(ValueError, match="non-negative"):
            liouville.evolve_numeric_rk4_grid(rho0, fock.ModelParams(mu=1.0), [0.0, -0.5])


class TestSuperoperatorDisentangling:
    def test_identity_within_convergence_envelope(self):
        # At fixed dim the factored form converges below 1e-9 only while the
        # pump ladder nu*t*D stays well inside the guard band; these points
        # are within the measured envelope at dim 12.
        dim = 12
        k0, k_plus, k_minus, k3 = liouville.k_superoperators(dim)
        rng = np.random.default_rng(12)
        states = [
            liouville.vectorize(random_interior_density(dim, 8, rng)) for _ in range(10)
        ]
        for mu, nu, t in [(1.0, 0.0, 1.0), (2.0, 0.0, 0.5), (0.8, 0.001, 1.0), (0.002, 0.002, 1.0)]:
            gen = nu * k_plus + mu * k_minus - (mu + nu) * k3
            lhs = liouville.expm(t * gen)
            c = su11.disentangling_coefficients(mu, nu, t)
            rhs = (
                liouville.expm(c.g_coef * k_plus)
                @ liouville.expm(-2.0 * c.log_f * k3)
                @ liouville.expm(c.e_coef * k_minus)
            )
            for v in states:
                assert np.linalg.norm(lhs @ v - rhs @ v) <= 1e-9

    def test_residual_converges_with_dimension(self):
        # Strong pumping (nu t = 0.5) breaks the identity at small dim purely
        # through truncation; the residual must fall geometrically as the
        # guard band grows and reach 1e-9 by dim 32. K+, K- and K3 conserve
        # the entry offset k = j - i, so both sides are exponentiated on the
        # (D - |k|)-square sector blocks of the dense superoperators.
        mu, nu, t = 1.0, 0.5, 1.0
        support = 8
        rng = np.random.default_rng(77)
        c = su11.disentangling_coefficients(mu, nu, t)
        residuals = []
        for dim in (12, 20, 28, 32):
            k0, k_plus, k_minus, k3 = liouville.k_superoperators(dim)
            states = [
                liouville.vectorize(random_interior_density(dim, support, rng))
                for _ in range(5)
            ]
            full = nu * k_plus + mu * k_minus - (mu + nu) * k3
            squared = np.zeros(len(states))
            in_blocks = 0.0
            for k in range(1 - dim, dim):
                rows, cols = liouville._sector_entries(dim, k)
                idx = rows * dim + cols
                block = np.ix_(idx, idx)
                gen = nu * k_plus[block] + mu * k_minus[block] - (mu + nu) * k3[block]
                in_blocks += np.linalg.norm(gen) ** 2
                lhs = liouville.expm(t * gen)
                rhs = (
                    liouville.expm(c.g_coef * k_plus[block])
                    @ liouville.expm(-2.0 * c.log_f * k3[block])
                    @ liouville.expm(c.e_coef * k_minus[block])
                )
                squared += [np.linalg.norm(lhs @ v[idx] - rhs @ v[idx]) ** 2 for v in states]
            # Nothing of the generator lies outside the sector blocks.
            assert abs(in_blocks - np.linalg.norm(full) ** 2) <= 1e-12 * in_blocks
            residuals.append(float(np.sqrt(squared.max())))
        assert residuals[0] > 1e-4  # genuinely broken at dim 12
        assert all(r1 / r2 > 50 for r1, r2 in zip(residuals, residuals[1:]))
        assert residuals[-1] <= 1e-9

    @pytest.mark.parametrize("dim, n_states, seed", [(10, 5, 99), (12, 10, 12), (16, 5, 3)])
    def test_sectored_suite_matches_dense_reference(self, monkeypatch, dim, n_states, seed):
        # The suite exponentiates zero-padded D x D sector blocks; the
        # reference exponentiates the D^2 x D^2 superoperators themselves.
        shapes = []
        expm = liouville.expm

        def recording_expm(m):
            shapes.append(np.shape(m))
            return expm(m)

        monkeypatch.setattr(liouville, "expm", recording_expm)
        sectored = verification.suite_disentangling_superop(dim, n_states, seed).max_residual
        monkeypatch.undo()
        assert shapes and all(shape[-2:] == (dim, dim) for shape in shapes)
        dense = dense_disentangling_superop_residual(dim, n_states, seed)
        assert abs(sectored - dense) <= 1e-6 * dense

    def test_hamiltonian_factor_commutes_out(self):
        # exp(tL) = exp(-i w t K0) exp(t(nu K+ + mu K- - (mu+nu)K3)) e^{(mu-nu)t/2}
        # holds to rounding at any dim because K0 commutes exactly.
        dim = 10
        params = fock.ModelParams(omega=2.0, mu=1.0, nu=0.4)
        t = 0.9
        k0, k_plus, k_minus, k3 = liouville.k_superoperators(dim)
        lhs = liouville.expm(t * build_liouvillian(params, dim))
        gen = params.nu * k_plus + params.mu * k_minus - (params.mu + params.nu) * k3
        rhs = (
            np.exp(0.5 * (params.mu - params.nu) * t)
            * liouville.expm(-1j * params.omega * t * k0)
            @ liouville.expm(t * gen)
        )
        rng = np.random.default_rng(5)
        for _ in range(5):
            v = liouville.vectorize(random_interior_density(dim, 6, rng))
            assert np.linalg.norm(lhs @ v - rhs @ v) <= 1e-9
