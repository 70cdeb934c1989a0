"""Small dense linear-algebra kernel.

Everything here works on matrices of dimension ~2..6.  ``ExpKernel`` is
the one matrix exponential: built once per matrix, it evaluates
``exp(M t)`` at one time or a whole array of times, in closed form
through an eigendecomposition when the eigenvector basis is well
conditioned and otherwise by scaling and squaring around a truncated
Taylor series whose matrix powers are tabulated once per kernel.  The
Lyapunov equation is solved by Kronecker vectorisation to an ``n^2 x n^2``
linear system with partially pivoted elimination.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionError, DomainError, NotHurwitzError, NumericalError

# Largest eigenvector-basis condition number for which the closed form is used.
_EIG_COND_MAX = 1e8
# Relative asymmetry accepted as symmetric, and the largest accepted backward error
# ||Abar^T P + P Abar + Q|| / (2 ||Abar|| ||P|| + ||Q||) of a Lyapunov solution.
_SYM_TOL = 1e-10
_LYAP_BACKWARD_TOL = 1e-12

# Degree and scaled-norm limit of the Taylor branch; ExpKernel's docstring derives them.
_TAYLOR_DEGREE = 18
_TAYLOR_THETA = 1.0
_LOG_MAX = float(np.log(np.finfo(float).max))


def _as_square(M) -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise DomainError("matrix entries must be finite")
    return A


def inf_norm(M):
    """Infinity norm: max absolute row sum (max |entry| for vectors).

    A stack of matrices (ndim > 2) gives the array of their norms.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim == 1:
        return float(np.max(np.abs(A))) if A.size else 0.0
    # Folds over the k columns, then the k rows: a numpy reduction over a short axis is slow.
    rows = sum((np.abs(A[..., j]) for j in range(A.shape[-1])), np.zeros(A.shape[:-1]))
    norms = functools.reduce(np.maximum, [rows[..., i] for i in range(rows.shape[-1])])
    return float(norms) if A.ndim == 2 else norms


def spec_norm(M) -> float:
    """Spectral norm of a matrix: its largest singular value.

    Computed as ``sqrt(lambda_max(M^T M))`` to avoid a general SVD.
    Raises DomainError when ``M^T M`` is not finite.
    """
    A = np.asarray(M, dtype=float)
    with np.errstate(over="ignore"):  # reported below, as a DomainError
        gram = A.T @ A
    if not np.all(np.isfinite(gram)):
        raise DomainError(f"spectral norm out of float range: M^T M overflows for entries "
                          f"up to {np.abs(A).max():.3g}")
    _, lam_max = sym_eig_extremes(gram)
    return float(np.sqrt(max(lam_max, 0.0)))


def sym_eig_extremes(S) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric matrix.

    Raises DomainError when the input is not symmetric to within
    ``_SYM_TOL`` relative to its magnitude.
    """
    A = _as_square(S)
    scale = max(inf_norm(A), 1.0)
    if inf_norm(A - A.T) > _SYM_TOL * scale:
        raise DomainError("matrix is not symmetric")
    w = np.linalg.eigvalsh(0.5 * (A + A.T))
    return float(w[0]), float(w[-1])


class ExpKernel:
    """``exp(M t)`` for one square matrix M, at a time t >= 0 or an array of times.

    When the eigenvector basis V of M is well conditioned every query is
    the closed form ``V diag(e^{w t}) V^{-1}``, with no step-to-step
    drift.  Otherwise (a defective or nearly defective M) the kernel keeps
    the powers ``A^j``, j = 0..m, of ``A = M / nu``, ``nu = ||M||_1``, and
    ``_series`` gives each time its own scale ``s = max(0, ceil(log2(t nu / theta)))``,
    sums ``exp(z A) = sum_j z^j / j! A^j`` at ``z = t nu / 2^s <= theta`` and
    squares the sum s times (Moler & Van Loan, SIAM Review 2003).

    The degree m and the limit theta (``_TAYLOR_DEGREE``, ``_TAYLOR_THETA``):
    with ``||z A||_1 <= theta`` the dropped tail is at most
    ``theta^{m+1} / (m+1)! e^theta``, and at theta = 1 the least m that puts
    it below the unit roundoff u = 2^-53 is 18 (2.2e-17; m = 17 gives
    4.2e-16).  Rounding in a sum of terms of norm up to e^theta whose result
    has norm down to e^-theta grows to about ``e^{2 theta} u``: 8.2e-16 at
    theta = 1, against 6.1e-15 at theta = 2 and 3.3e-13 at theta = 4, while
    theta = 1/2 would save four terms at the cost of a squaring per time.
    Each squaring can double the relative error, so a time's result is good
    to about ``2^s e^{2 theta} u <= max(1, 2 t nu / theta) e^{2 theta} u``.

    At a scalar ``t = 0`` both branches return the identity exactly; t must
    be finite and nonnegative, and a t past the time at which the result
    could overflow raises NumericalError.
    """

    def __init__(self, M):
        self.M = _as_square(M)
        w, V = np.linalg.eig(self.M)
        self._eig = (w, V, np.linalg.inv(V)) if np.linalg.cond(V) < _EIG_COND_MAX else None
        if self._eig is None:  # row j: the entries of A^j
            self._nu = float(np.abs(self.M).sum(axis=0).max())
            A, powers = self.M / self._nu, [np.eye(len(w))]
            for _ in range(_TAYLOR_DEGREE):
                powers.append(powers[-1] @ A)
            self._powers = np.reshape(powers, (_TAYLOR_DEGREE + 1, -1))
            spread = 1.0
        else:  # row l: V[i, l] Vi[l, j], the rank-one term of e^{w_l t}
            self._terms = (V.T[:, :, None] * self._eig[2][:, None, :]).reshape(len(w), -1)
            spread = max(1.0, float(np.abs(self._eig[2]).max()))
        self._t_max = _overflow_time(self.M, w, spread)

    def _times(self, t) -> np.ndarray:
        ts = np.asarray(t, dtype=float)
        if ts.ndim:  # two reductions and no temporary array
            lo, hi = ts.min(initial=np.inf), ts.max(initial=0.0)
        else:
            lo = hi = float(ts)
        if not (0.0 <= lo and hi < np.inf):  # a NaN fails the first test
            raise DomainError("exp(M t) requires a finite t >= 0")
        if hi > self._t_max:
            raise NumericalError(f"exp(M t) may overflow past t = {self._t_max:.6g}, got {hi:.6g}")
        return ts

    def __call__(self, t) -> np.ndarray:
        """``exp(M t)``; an array of times gives the stack, shape ``t.shape + (k, k)``."""
        ts = self._times(t)
        if ts.ndim == 0 and ts == 0.0:
            return np.eye(self.M.shape[0])
        if self._eig is None:
            return self._series(ts)
        w, V, Vi = self._eig
        return ((V * np.exp(ts[..., None, None] * w)) @ Vi).real

    def inf_norm(self, t):
        """``||exp(M t)||_inf``; an array of times gives one norm per time.

        The closed form gets every entry from one ``(N, k) @ (k, k^2)`` product of
        ``e^{w t}`` with the rank-one terms of ``V diag(e^{w t}) V^{-1}``, no matrix stack.
        """
        ts = self._times(t)
        if ts.ndim == 0 and ts == 0.0:
            return 1.0
        if self._eig is None:
            return inf_norm(self._series(ts))
        entries = (np.exp(ts[..., None] * self._eig[0]) @ self._terms).real
        return inf_norm(entries.reshape(ts.shape + self.M.shape))

    def flow(self, x):
        """The map ``t -> exp(M t) x`` of one x, for a time or an array of times.

        The closed form evaluates ``V (e^{w t} * V^{-1} x)`` in O(N k) work
        and memory for N times, with no ``(N, k, k)`` stack; ``V^{-1} x`` is
        taken once, when the map is made.
        """
        x = np.asarray(x, dtype=float)
        if self._eig is not None:
            w, V, Vi = self._eig
            modes, VT = Vi @ x, V.T

        def at(t) -> np.ndarray:
            ts = self._times(t)
            if ts.ndim == 0 and ts == 0.0:
                return x.copy()
            if self._eig is None:
                return self._series(ts) @ x
            return ((np.exp(ts[..., None] * w) * modes) @ VT).real

        return at

    def _series(self, ts: np.ndarray) -> np.ndarray:
        """``exp(M t)`` for every t in ts by the scaled Taylor series, shape ``ts.shape + (k, k)``.

        The rows ``z^j / j!`` come from one cumulative product, and one stacked
        product ``(N, 1, m+1) @ (m+1, k^2)`` gives every ``exp(t M / 2^s)``: unlike
        one ``(N, m+1) @ (m+1, k^2)`` GEMM, it gives each time the floats of a
        one-time call.  The squarings run masked, so each time stops after its own s.
        """
        k = self.M.shape[0]
        flat = ts.reshape(-1) * self._nu
        # frexp gives y = f 2^e with f in [0.5, 1), so ceil(log2 y) = e - (f == 0.5).
        frac, expo = np.frexp(flat / _TAYLOR_THETA)
        s = np.maximum(expo - (frac == 0.5), 0)
        coef = np.ones((flat.size, _TAYLOR_DEGREE + 1))
        np.divide(np.ldexp(flat, -s)[:, None], np.arange(1.0, _TAYLOR_DEGREE + 1),
                  out=coef[:, 1:])
        R = np.matmul(np.cumprod(coef, axis=1)[:, None, :], self._powers).reshape(-1, k, k)
        for i in range(int(s.max(initial=0))):
            rows = np.flatnonzero(s > i)
            R[rows] = R[rows] @ R[rows]
        return R.reshape(ts.shape + (k, k))


def _overflow_time(M: np.ndarray, w: np.ndarray, spread: float) -> float:
    """A time up to which neither exp(M t) nor its intermediates can overflow.

    Van Loan (SIAM J. Numer. Anal. 1977): ``||exp(M t)||_2 <= e^{a t} (1 + d t)^{k-1}``
    for a k x k M with spectral abscissa a and departure from normality
    ``d = sqrt(||M||_F^2 - sum |w|^2)``.  A squaring of that factor, or a
    closed-form term ``V_ik e^{w_k t} Vi_kj`` (``spread`` bounds ``|Vi|``),
    summed k times, stays finite while ``g(t) = a t + 2 (k-1) log(1 + d t)
    + log(k spread)`` is below the log of the largest double.  g is concave
    and increasing (a clipped at 0), so Newton's method started left of the
    crossing stays left of it: every iterate is a safe time.
    """
    k = M.shape[0]
    a = max(float(w.real.max()), 0.0)
    d = float(np.sqrt(max(np.sum(M * M) - np.sum(np.abs(w) ** 2), 0.0)))
    b = 2.0 * (k - 1)
    budget = _LOG_MAX - float(np.log(k * spread))
    if a + b * d == 0.0:
        return np.inf
    t = budget / (a + b * d)
    for _ in range(20):
        t += (budget - a * t - b * np.log1p(d * t)) / (a + b * d / (1.0 + d * t))
    return float(t)


def is_hurwitz(M) -> bool:
    """True when every eigenvalue of M has strictly negative real part."""
    A = _as_square(M)
    return bool(np.all(np.linalg.eigvals(A).real < 0.0))


def solve_lyapunov(Abar, Q) -> np.ndarray:
    """Solve ``P Abar + Abar^T P = -Q`` for symmetric positive-definite P.

    Vectorises to ``(Abar^T (x) I + I (x) Abar^T) vec(P) = -vec(Q)`` and
    solves with partially pivoted elimination.  The residual, scaled by
    ``2 ||Abar|| ||P|| + ||Q||`` to a backward error, is checked against
    ``_LYAP_BACKWARD_TOL`` before returning: an absolute bound would
    reject well-solved plants whose P is large.

    Raises
    ------
    NotHurwitzError : Abar has an eigenvalue with nonnegative real part.
    DomainError     : Q is not symmetric positive definite.
    NumericalError  : the backward-error check fails.
    """
    A = _as_square(Abar)
    Qm = _as_square(Q)
    n = A.shape[0]
    if Qm.shape[0] != n:
        raise DimensionError("Abar and Q must have matching dimensions")
    if not is_hurwitz(A):
        raise NotHurwitzError("closed-loop matrix is not Hurwitz")
    qmin, _ = sym_eig_extremes(Qm)
    if qmin <= 0.0:
        raise DomainError("Q must be symmetric positive definite")

    eye = np.eye(n)
    lhs = np.kron(A.T, eye) + np.kron(eye, A.T)
    vec_p = np.linalg.solve(lhs, -Qm.flatten(order="F"))
    P = vec_p.reshape((n, n), order="F")
    P = 0.5 * (P + P.T)

    backward = inf_norm(P @ A + A.T @ P + Qm) / (2.0 * inf_norm(A) * inf_norm(P) + inf_norm(Qm))
    if not backward <= _LYAP_BACKWARD_TOL:
        raise NumericalError(
            f"Lyapunov backward error {backward:.3e} exceeds {_LYAP_BACKWARD_TOL:.1e}")
    return P
