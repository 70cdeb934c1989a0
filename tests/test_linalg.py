import mpmath
import numpy as np
import pytest
import scipy.linalg
from conftest import pade13_expression_form

from etcsim.errors import DimensionError, DomainError, NotHurwitzError, NumericalError
from etcsim.linalg import (
    _TAYLOR_THETA,
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
# A Hurwitz 4x4 plant with a pole 4.5e-3 from the axis and entries spread over
# six decades: ||P|| ~ 9e7, so an absolute residual of 1e-9 is out of reach
# (6e-8 here) although the backward error is at roundoff level.
WIDE_P = np.array([
    [-1.414664, 4.044807, 1.585063, 0.0006],
    [0.116387, -2.386799, -0.348628, 0.000631],
    [0.059654, -6.970617, -2.558416, -0.00248],
    [414.062116, 1055.914963, -559.154942, -1.814027],
])
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
    """``ExpKernel``: the closed form on A_REF, the scaled Taylor series on JORDAN."""

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
                ExpKernel(M).flow(np.ones(2))(np.array([0.5, -1e-3]))

    @pytest.mark.parametrize("M", [A_REF, JORDAN], ids=["eigen", "expm"])
    def test_rejects_non_finite_time(self, M):
        kernel = ExpKernel(M)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError):
                kernel(bad)
            with pytest.raises(DomainError):
                kernel(np.array([0.5, bad]))
            with pytest.raises(DomainError):
                kernel.flow(np.ones(2))(bad)
            with pytest.raises(DomainError):
                kernel.flow(np.ones(2))(np.array([bad, 0.5]))

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
        rows = kernel.flow(x)(ts)
        assert rows.shape == (9, 2)
        for t, row in zip(ts, rows):
            want = kernel(t) @ x
            assert inf_norm(row - want) <= 1e-12 * inf_norm(want)
            assert inf_norm(kernel.flow(x)(t) - want) <= 1e-12 * inf_norm(want)
        assert np.array_equal(kernel.flow(x)(0.0), x)

    @pytest.mark.parametrize("name", sorted(DEFECTIVE))
    def test_defective_branch_against_mpmath_oracle(self, name):
        M = DEFECTIVE[name]
        kernel = ExpKernel(M)
        assert kernel._eig is None
        if name == "near_defective":
            assert np.linalg.cond(np.linalg.eig(M)[1]) >= 1e8
        for t in ORACLE_TIMES:
            assert relative_error(kernel(t), mpmath_expm(M, t)) <= 1e-13, t

    @pytest.mark.parametrize("name", sorted(DEFECTIVE))
    def test_defective_branch_matches_the_expression_form(self, name):
        # The Pade-13 expression form is an independent formula for the same matrices;
        # they agree to 4.3e-14 at worst here (jordan_block at t = 20).
        M = DEFECTIVE[name]
        ts = np.array([0.0, 1e-6, 0.01, 0.3, 1.0, 4.0, 20.0])
        for t, got, want in zip(ts, ExpKernel(M)(ts), pade13_expression_form(M, ts)):
            assert relative_error(got, want) <= 1e-13, t

    def test_defective_stack_gives_the_floats_of_one_time_calls(self, rng):
        # Each time's matrix, flow row and norm are bit for bit those of a call with that
        # time alone, whatever the other times in the stack.
        kernel = ExpKernel(JORDAN_BLOCK)
        x = np.array([6.0, -4.0, 0.0, 0.0])
        flow = kernel.flow(x)
        ts = rng.permutation(np.concatenate([ORACLE_TIMES, [0.0], rng.uniform(0.0, 4.0, 4088)]))
        alone = [(kernel(t), flow(t), kernel.inf_norm(t)) for t in ts]
        for size in (1, 2, 31, 1024, 4096):
            stacks = kernel(ts[:size]), flow(ts[:size]), kernel.inf_norm(ts[:size])
            for i, (E, row, norm) in enumerate(alone[:size]):
                assert np.array_equal(stacks[0][i], E), ts[i]
                assert np.array_equal(stacks[1][i], row), ts[i]
                assert stacks[2][i] == norm, ts[i]

    def test_defective_branch_calls_no_solve(self, monkeypatch):
        def no_solve(a, b):
            raise AssertionError("np.linalg.solve called")

        kernel = ExpKernel(JORDAN_BLOCK)
        monkeypatch.setattr(np.linalg, "solve", no_solve)
        for ts in (0.7, np.linspace(0.0, 4.0, 4096)):
            assert kernel(ts).shape == np.shape(ts) + (4, 4)
            assert kernel.flow(np.ones(4))(ts).shape == np.shape(ts) + (4,)
            assert np.shape(kernel.inf_norm(ts)) == np.shape(ts)

    def test_jordan_block_flow_against_mpmath(self):
        # The benchmark's jordan propagator from its x0.  The docstring bounds a time's
        # relative error by about max(1, 2 t ||M||_1) e^2 u (theta = 1), so each entry of
        # exp(M t) x is within that times ||exp(M t)||_inf ||x||_inf of the exact flow,
        # here taken at 60 digits.
        x = np.array([6.0, -4.0, 0.0, 0.0])
        ts = np.linspace(0.0, 4.0, 41)
        kernel = ExpKernel(JORDAN_BLOCK)
        rows = kernel.flow(x)(ts)
        nu = np.abs(JORDAN_BLOCK).sum(axis=0).max()
        with mpmath.workdps(60):
            M, x_mp = mpmath.matrix(JORDAN_BLOCK.tolist()), mpmath.matrix(x.tolist())
            for t, row in zip(ts, rows):
                want = np.array((mpmath.expm(M * mpmath.mpf(t)) * x_mp).tolist(),
                                dtype=float).ravel()
                bound = max(2.0 * t * nu, 1.0) * np.e ** 2 * 2.0 ** -53
                assert inf_norm(row - want) <= bound * kernel.inf_norm(t) * inf_norm(x), t

    def test_defective_stack_of_mixed_scales_matches_scalar_calls(self):
        kernel = ExpKernel(JORDAN_BLOCK)
        ts = np.array([20.0, 1e-6, 4.0, 0.0, 50.0, 0.01, 1.0, 0.3])
        # The squaring count s = ceil(log2(t ||M||_1 / theta)) differs along the stack.
        scaled = ts[ts > 0] * np.abs(JORDAN_BLOCK).sum(axis=0).max() / _TAYLOR_THETA
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
        rows = kernel.flow(x)(np.array([0.0, 1.0]))
        assert np.array_equal(rows[0], x)

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
            kernel.flow(np.ones(2))(t)
        with pytest.raises(NumericalError):
            kernel.flow(np.ones(2))(np.array([t, 0.5]))

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

    def test_reference_certificate_pinned(self):
        Abar = A_REF + np.array([[0.0], [1.0]]) @ np.array([[2.0, -8.0]])
        np.testing.assert_allclose(
            solve_lyapunov(Abar, np.eye(2)),
            [[2.25, -0.9166666666666666], [-0.9166666666666666, 0.5833333333333333]],
            rtol=1e-14, atol=0)

    def test_large_certificate_accepted(self):
        P = solve_lyapunov(WIDE_P, np.eye(4))
        want = scipy.linalg.solve_continuous_lyapunov(WIDE_P.T, -np.eye(4))
        assert inf_norm(P - want) <= 1e-10 * inf_norm(want)
        assert inf_norm(P @ WIDE_P + WIDE_P.T @ P + np.eye(4)) > 1e-9  # the old absolute check

    @pytest.mark.parametrize("Abar", [A_REF + np.array([[0.0], [1.0]]) @ np.array([[2.0, -8.0]]),
                                      WIDE_P], ids=["reference", "wide_p"])
    def test_perturbed_solution_rejected(self, monkeypatch, Abar):
        # A solve whose P is off by 1e-8 relative fails the backward-error check.
        solve = np.linalg.solve

        def perturbed(lhs, rhs):
            x = solve(lhs, rhs)
            bump = np.zeros_like(x)
            bump[1] = bump[Abar.shape[0]] = 1e-8 * np.max(np.abs(x))
            return x + bump

        monkeypatch.setattr(np.linalg, "solve", perturbed)
        with pytest.raises(NumericalError, match="backward error"):
            solve_lyapunov(Abar, np.eye(Abar.shape[0]))

    def test_rejects_unstable(self):
        with pytest.raises(NotHurwitzError):
            solve_lyapunov(np.eye(2), np.eye(2))

    def test_rejects_indefinite_q(self):
        with pytest.raises(DomainError):
            solve_lyapunov(-np.eye(2), np.diag([1.0, -1.0]))

    def test_is_hurwitz(self):
        assert is_hurwitz(-np.eye(2))
        assert not is_hurwitz(A_REF)
