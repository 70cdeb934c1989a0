import mpmath
import numpy as np
import pytest

from etcsim.errors import DimensionError, DomainError, NotHurwitzError, NumericalError
from etcsim.linalg import (
    ExpKernel,
    inf_norm,
    is_hurwitz,
    solve_lyapunov,
    spec_norm,
    sym_eig_extremes,
)

A_REF = np.array([[1.0, -2.0], [1.0, 4.0]])
JORDAN = np.array([[1.0, 1.0], [0.0, 1.0]])  # defective: no eigenvector basis
# exp(M t) of the benchmark's Jordan plant (A = JORDAN, B = [0, 1]^T,
# K = [-9, -6]) and its estimate error, as the simulator propagates them.
_BK = np.array([[0.0], [1.0]]) @ np.array([[-9.0, -6.0]])
JORDAN_BLOCK = np.block([[JORDAN, _BK], [np.zeros((2, 2)), JORDAN + _BK]])
DEFECTIVE = {
    "jordan3": np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]]),
    "near_defective": np.array([[1.0, 1.0], [0.0, 1.0 + 1e-9]]),
    "nilpotent": np.array([[0.0, 2.0, -1.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]]),
    "jordan_block": JORDAN_BLOCK,
}
ORACLE_TIMES = (1e-6, 0.01, 0.3, 1.0, 4.0, 20.0, 50.0)
# The reference plant's 4x4 block of plant and estimate dynamics (K = [2, -8]).
_REF_BK = np.array([[0.0], [1.0]]) @ np.array([[2.0, -8.0]])
NORM_CASES = {
    "reference": A_REF,
    "complex_pair": np.array([[-0.3, -2.0], [1.5, 0.1]]),
    "reference_block": np.block([[A_REF, _REF_BK], [np.zeros((2, 2)), A_REF + _REF_BK]]),
    "jordan": JORDAN,
}


def taylor_expm(M, t, terms=40):
    """Independent oracle: scaled 40-term Taylor series, squared back."""
    X = np.asarray(M, dtype=float) * t
    s = 0
    while inf_norm(X) > 0.5:
        X = X / 2.0
        s += 1
    E = np.eye(X.shape[0])
    term = np.eye(X.shape[0])
    for k in range(1, terms + 1):
        term = term @ X / k
        E = E + term
    for _ in range(s):
        E = E @ E
    return E


def mpmath_expm(M, t):
    """Independent oracle: ``exp(M t)`` at 50 significant digits, rounded to floats."""
    with mpmath.workdps(50):
        E = mpmath.expm(mpmath.matrix(M.tolist()) * mpmath.mpf(t))
        return np.array(E.tolist(), dtype=float)


def relative_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def random_stable(rng, n):
    M = rng.normal(size=(n, n))
    shift = max(np.linalg.eigvals(M).real.max(), 0.0) + 0.5
    return M - shift * np.eye(n)


class TestMatExp:
    """``ExpKernel``: the closed form on A_REF, the batched Pade-13 on JORDAN."""

    def test_zero_matrix_is_identity(self):
        assert np.array_equal(ExpKernel(np.zeros((3, 3)))(5.0), np.eye(3))

    def test_diagonal_case(self):
        E = ExpKernel(np.diag([1.0, 2.0]))(1.0)
        assert np.allclose(E, np.diag([np.e, np.e ** 2]), rtol=1e-12)

    def test_reference_plant_against_taylor_oracle(self):
        got = ExpKernel(A_REF)(0.1)
        want = taylor_expm(A_REF, 0.1)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_jordan_block_closed_form(self):
        kernel = ExpKernel(JORDAN)
        for t in (0.0, 0.3, 1.0, 4.0):
            want = np.exp(t) * np.array([[1.0, t], [0.0, 1.0]])
            assert np.allclose(kernel(t), want, rtol=1e-13, atol=0)

    def test_branch_follows_the_eigenvector_basis(self):
        assert ExpKernel(A_REF)._eig is not None
        assert ExpKernel(JORDAN)._eig is None

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            ExpKernel(np.ones((2, 3)))

    def test_rejects_negative_time(self):
        for M in (np.eye(2), JORDAN):
            with pytest.raises(DomainError):
                ExpKernel(M)(-1.0)
            with pytest.raises(DomainError):
                ExpKernel(M).apply(np.array([0.5, -1e-3]), np.ones(2))

    @pytest.mark.parametrize("M", [A_REF, JORDAN], ids=["eigen", "expm"])
    def test_rejects_non_finite_time(self, M):
        kernel = ExpKernel(M)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError):
                kernel(bad)
            with pytest.raises(DomainError):
                kernel(np.array([0.5, bad]))
            with pytest.raises(DomainError):
                kernel.apply(bad, np.ones(2))
            with pytest.raises(DomainError):
                kernel.apply(np.array([bad, 0.5]), np.ones(2))

    def test_semigroup_property(self, rng):
        for _ in range(10):
            kernel = ExpKernel(random_stable(rng, 3))
            s, t = rng.uniform(0.0, 1.0, size=2)
            assert np.max(np.abs(kernel(s + t) - kernel(s) @ kernel(t))) <= 1e-8

    def test_norm_bound_both_norms(self, rng):
        for _ in range(10):
            M = random_stable(rng, 3)
            tau = rng.uniform(0.0, 1.0)
            E = ExpKernel(M)(tau)
            assert inf_norm(E) <= np.exp(inf_norm(M) * tau) * (1 + 1e-12)
            assert spec_norm(E) <= np.exp(spec_norm(M) * tau) * (1 + 1e-12)

    @pytest.mark.parametrize("M", [A_REF, JORDAN], ids=["eigen", "expm"])
    def test_array_call_matches_scalar_calls(self, M):
        kernel = ExpKernel(M)
        ts = np.linspace(0.0, 2.0, 9)
        stack = kernel(ts)
        assert stack.shape == (9, 2, 2)
        for t, E in zip(ts, stack):
            assert inf_norm(E - kernel(t)) <= 1e-12 * inf_norm(kernel(t))
        assert np.allclose(inf_norm(stack), [inf_norm(kernel(t)) for t in ts],
                           rtol=1e-12, atol=0)

    @pytest.mark.parametrize("M", [A_REF, JORDAN], ids=["eigen", "expm"])
    def test_apply_matches_matrix_times_vector(self, M):
        kernel = ExpKernel(M)
        x = np.array([0.7, -1.3])
        ts = np.linspace(0.0, 2.0, 9)
        rows = kernel.apply(ts, x)
        assert rows.shape == (9, 2)
        for t, row in zip(ts, rows):
            want = kernel(t) @ x
            assert inf_norm(row - want) <= 1e-12 * inf_norm(want)
            assert inf_norm(kernel.apply(t, x) - want) <= 1e-12 * inf_norm(want)
        assert np.array_equal(kernel.apply(0.0, x), x)

    @pytest.mark.parametrize("name", sorted(DEFECTIVE))
    def test_defective_branch_against_mpmath_oracle(self, name):
        M = DEFECTIVE[name]
        kernel = ExpKernel(M)
        assert kernel._eig is None
        if name == "near_defective":
            assert np.linalg.cond(np.linalg.eig(M)[1]) >= 1e8
        for t in ORACLE_TIMES:
            assert relative_error(kernel(t), mpmath_expm(M, t)) <= 1e-13, t

    def test_defective_stack_of_mixed_scales_matches_scalar_calls(self):
        kernel = ExpKernel(JORDAN_BLOCK)
        ts = np.array([20.0, 1e-6, 4.0, 0.0, 50.0, 0.01, 1.0, 0.3])
        # The squaring count s = ceil(log2(t ||M||_1 / theta_13)) differs along the stack.
        scaled = ts[ts > 0] * np.abs(JORDAN_BLOCK).sum(axis=0).max() / 5.371920351148152
        assert len(set(np.maximum(np.ceil(np.log2(scaled)), 0))) >= 4
        stack = kernel(ts)
        for t, E in zip(ts, stack):
            assert relative_error(E, kernel(t)) <= 1e-13, t

    def test_defective_semigroup_property(self, rng):
        for M in (JORDAN, JORDAN_BLOCK, DEFECTIVE["jordan3"]):
            kernel = ExpKernel(M)
            for s, t in rng.uniform(0.0, 2.0, size=(5, 2)):
                assert relative_error(kernel(s) @ kernel(t), kernel(s + t)) <= 1e-12

    def test_defective_zero_times_give_exact_identity(self):
        kernel = ExpKernel(JORDAN_BLOCK)
        stack = kernel(np.array([0.0, 0.5, 0.0, 3.0]))
        assert np.array_equal(stack[0], np.eye(4))
        assert np.array_equal(stack[2], np.eye(4))
        x = np.array([0.7, -1.3, 2.0, 0.1])
        rows = kernel.apply(np.array([0.0, 1.0]), x)
        assert np.array_equal(rows[0], x)

    def test_defective_branch_solves_once_per_call(self, monkeypatch):
        # One batched solve per call, whatever the number of times: a
        # per-time loop would make one solve per time.
        calls = []
        solve = np.linalg.solve

        def counting_solve(a, b):
            calls.append(np.shape(a))
            return solve(a, b)

        kernel = ExpKernel(JORDAN_BLOCK)
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        for ts in (0.7, np.linspace(0.0, 4.0, 4096)):
            calls.clear()
            assert kernel(ts).shape == np.shape(ts) + (4, 4)
            assert len(calls) == 1

    @pytest.mark.parametrize("M, t", [(A_REF, 400.0), (JORDAN, 1e4)], ids=["eigen", "expm"])
    def test_overflow_raises_typed_error(self, M, t):
        # Without the growth bound these return all NaN (inf - inf in the
        # closed form; inf times a structural zero in a squaring).
        kernel = ExpKernel(M)
        with pytest.raises(NumericalError):
            kernel(t)
        with pytest.raises(NumericalError):
            kernel(np.array([0.0, 1.0, t]))
        with pytest.raises(NumericalError):
            kernel.apply(t, np.ones(2))
        with pytest.raises(NumericalError):
            kernel.apply(np.array([t, 0.5]), np.ones(2))

    @pytest.mark.parametrize("M", [A_REF, JORDAN], ids=["eigen", "expm"])
    def test_overflow_bound_is_safe_and_tight(self, M):
        # Finite at the bound itself; 3% further out the result overflows,
        # so the bound rejects no time far short of a real overflow.
        kernel = ExpKernel(M)
        t_max = kernel._t_max
        assert np.all(np.isfinite(kernel(t_max)))
        with np.errstate(over="ignore", invalid="ignore"):
            beyond = ExpKernel(M)
            beyond._t_max = np.inf
            assert not np.all(np.isfinite(beyond(1.03 * t_max)))

    def test_complex_eigenvalues_give_real_results(self):
        rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
        E = ExpKernel(rotation)(np.pi / 2)
        assert E.dtype == float
        assert np.allclose(E, rotation, atol=1e-15)


class TestKernelInfNorm:
    """``ExpKernel.inf_norm`` against ``inf_norm`` of the kernel's own matrices."""

    @pytest.mark.parametrize("name", sorted(NORM_CASES))
    def test_matches_norm_of_the_stack(self, name):
        kernel = ExpKernel(NORM_CASES[name])
        assert (kernel._eig is None) == (name == "jordan")
        if name == "complex_pair":
            assert np.all(np.linalg.eigvals(NORM_CASES[name]).imag != 0.0)
        ts = np.concatenate([[0.0, 1e-6], np.linspace(0.01, 4.0, 55)])
        want = inf_norm(kernel(ts))
        got = kernel.inf_norm(ts)
        assert got.shape == ts.shape
        assert np.max(np.abs(got - want) / want) <= 1e-13
        assert kernel.inf_norm(ts.reshape(3, 19)).shape == (3, 19)
        for t in (1e-6, 0.3, 4.0):
            assert abs(kernel.inf_norm(t) - inf_norm(kernel(t))) <= 1e-13 * inf_norm(kernel(t))

    @pytest.mark.parametrize("M", [A_REF, JORDAN], ids=["eigen", "expm"])
    def test_scalar_zero_is_exactly_one_and_0d_gives_float(self, M):
        kernel = ExpKernel(M)
        for zero in (0.0, np.float64(0.0), np.array(0.0)):
            assert kernel.inf_norm(zero) == 1.0
        for t in (0.3, np.float64(0.3), np.array(0.3)):
            assert type(kernel.inf_norm(t)) is float

    @pytest.mark.parametrize("M, t_far", [(A_REF, 400.0), (JORDAN, 1e4)], ids=["eigen", "expm"])
    def test_raises_as_the_kernel_does(self, M, t_far):
        kernel = ExpKernel(M)
        for bad in (-1e-3, np.array([0.5, -1.0]), np.nan, np.array([np.inf])):
            with pytest.raises(DomainError):
                kernel.inf_norm(bad)
        for far in (t_far, np.array([0.0, 1.0, t_far])):
            with pytest.raises(NumericalError):
                kernel.inf_norm(far)


class TestNorms:
    def test_inf_norm_max_row_sum(self):
        assert inf_norm(A_REF) == 5.0

    def test_inf_norm_vector(self):
        assert inf_norm([1.0, -3.0, 2.0]) == 3.0

    @pytest.mark.parametrize("k", [1, 2, 4, 6])
    def test_inf_norm_of_stacks_matches_the_reduction(self, rng, k):
        stack = rng.normal(size=(3, 5, k, k))
        assert np.array_equal(inf_norm(stack), np.abs(stack).sum(axis=-1).max(axis=-1))
        assert type(inf_norm(stack[0, 0])) is float
        assert inf_norm(np.zeros((k, 0))) == 0.0

    def test_spec_norm_identity(self):
        assert spec_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_sym_eig_extremes_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            sym_eig_extremes(A_REF)

    def test_sym_eig_extremes_quadratic_oracle(self):
        # 2x2 symmetric eigenvalues from trace and determinant.
        S = np.array([[2.25, -0.9167], [-0.9167, 0.5833]])
        tr, det = np.trace(S), np.linalg.det(S)
        disc = np.sqrt(tr ** 2 - 4 * det)
        lo, hi = sym_eig_extremes(S)
        assert lo == pytest.approx((tr - disc) / 2, abs=1e-10)
        assert hi == pytest.approx((tr + disc) / 2, abs=1e-10)


class TestLyapunov:
    def test_scalar_balance(self):
        P = solve_lyapunov(-np.eye(2), np.eye(2))
        assert np.allclose(P, 0.5 * np.eye(2), atol=1e-12)

    def test_reference_closed_loop_certificate(self):
        Abar = A_REF + np.array([[0.0], [1.0]]) @ np.array([[2.0, -8.0]])
        P = solve_lyapunov(Abar, np.eye(2))
        want = np.array([[2.2500, -0.9167], [-0.9167, 0.5833]])
        assert np.max(np.abs(P - want)) <= 1e-3

    def test_random_stable_residual_and_shape(self, rng):
        for _ in range(10):
            Abar = random_stable(rng, 3)
            Q = np.eye(3)
            P = solve_lyapunov(Abar, Q)
            assert inf_norm(P @ Abar + Abar.T @ P + Q) <= 1e-9
            assert inf_norm(P - P.T) <= 1e-12
            lo, hi = sym_eig_extremes(P)
            assert lo > 0.0 and hi > 0.0

    def test_rejects_unstable(self):
        with pytest.raises(NotHurwitzError):
            solve_lyapunov(np.eye(2), np.eye(2))

    def test_rejects_indefinite_q(self):
        with pytest.raises(DomainError):
            solve_lyapunov(-np.eye(2), np.diag([1.0, -1.0]))

    def test_is_hurwitz(self):
        assert is_hurwitz(-np.eye(2))
        assert not is_hurwitz(A_REF)
