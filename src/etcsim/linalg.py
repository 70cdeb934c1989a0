"""Small dense linear-algebra kernel.

Everything here works on matrices of dimension ~2..6.  ``ExpKernel`` is
the one matrix exponential: built once per matrix, it evaluates
``exp(M t)`` at one time or a whole array of times, in closed form
through an eigendecomposition when the eigenvector basis is well
conditioned and otherwise by scaling and squaring around the degree-13
Pade approximant, evaluated over the whole stack of times at once.  The
Lyapunov equation is solved by Kronecker vectorisation to an ``n^2 x n^2``
linear system with partially pivoted elimination.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionError, DomainError, NotHurwitzError, NumericalError

# Largest eigenvector-basis condition number for which the closed form is used.
_EIG_COND_MAX = 1e8

# Coefficients b_0..b_13 of the degree-13 Pade approximant to exp, and the
# largest 1-norm of X for which it meets unit roundoff (Higham, SIMAX 2005).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152
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
    """Spectral norm: largest singular value (Euclidean norm for vectors).

    Computed as ``sqrt(lambda_max(M^T M))`` to avoid a general SVD.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim == 1:
        return float(np.linalg.norm(A))
    _, lam_max = sym_eig_extremes(A.T @ A)
    return float(np.sqrt(max(lam_max, 0.0)))


def sym_eig_extremes(S, sym_tol: float = 1e-10) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric matrix.

    Raises DomainError when the input is not symmetric to within
    ``sym_tol`` relative to its magnitude.
    """
    A = _as_square(S)
    scale = max(inf_norm(A), 1.0)
    if inf_norm(A - A.T) > sym_tol * scale:
        raise DomainError("matrix is not symmetric")
    w = np.linalg.eigvalsh(0.5 * (A + A.T))
    return float(w[0]), float(w[-1])


class ExpKernel:
    """``exp(M t)`` for one square matrix M, at a time t >= 0 or an array of times.

    When the eigenvector basis V of M is well conditioned every query is
    the closed form ``V diag(e^{w t}) V^{-1}``, with no step-to-step
    drift.  Otherwise (a defective or nearly defective M) the whole stack
    of times goes through one scaling-and-squaring Pade-13 evaluation
    (``_pade13_expm``).  At a scalar ``t = 0`` both return the identity
    exactly; t must be finite and nonnegative, and a t past the time at
    which the result could overflow raises NumericalError.
    """

    def __init__(self, M):
        self.M = _as_square(M)
        w, V = np.linalg.eig(self.M)
        self._eig = (w, V, np.linalg.inv(V)) if np.linalg.cond(V) < _EIG_COND_MAX else None
        if self._eig is not None:  # row l: V[i, l] Vi[l, j], the rank-one term of e^{w_l t}
            self._terms = (V.T[:, :, None] * self._eig[2][:, None, :]).reshape(len(w), -1)
        spread = 1.0 if self._eig is None else max(1.0, float(np.abs(self._eig[2]).max()))
        self._t_max = _overflow_time(self.M, w, spread)

    def _times(self, t) -> np.ndarray:
        ts = np.asarray(t, dtype=float)
        hi = ts.max(initial=0.0)
        # Two reductions and no temporary array; a NaN fails the first test.
        if not (0.0 <= ts.min(initial=np.inf) and hi < np.inf):
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
            return _pade13_expm(self.M, ts)
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
            return inf_norm(_pade13_expm(self.M, ts))
        entries = (np.exp(ts[..., None] * self._eig[0]) @ self._terms).real
        return inf_norm(entries.reshape(ts.shape + self.M.shape))

    def apply(self, t, x) -> np.ndarray:
        """``exp(M t) x``; an array of times gives one row per time.

        The closed form evaluates ``V (e^{w t} * V^{-1} x)`` in O(N k) work
        and memory for N times, with no ``(N, k, k)`` stack.
        """
        ts = self._times(t)
        x = np.asarray(x, dtype=float)
        if ts.ndim == 0 and ts == 0.0:
            return x.copy()
        if self._eig is None:
            return self(ts) @ x
        w, V, Vi = self._eig
        return ((np.exp(ts[..., None] * w) * (Vi @ x)) @ V.T).real


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


def _pade13_expm(M: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """``exp(M t)`` for every finite ``t >= 0`` in ts, stack shape ``ts.shape + (k, k)``.

    Scaling and squaring around the degree-13 Pade approximant (Higham,
    SIMAX 2005; Al-Mohy & Higham, SIMAX 2009), vectorised over times:
    each time gets its own scale ``s = max(0, ceil(log2(t ||M||_1 / theta_13)))``,
    one batched solve gives every ``r_13(t M / 2^s)``, and the squarings
    run masked so each time stops after its own s.  ``r_13`` is taken as
    ``I + 2 (V - U)^{-1} U``, equal to ``(V - U)^{-1} (V + U)``, so that
    ``t = 0`` gives the identity exactly.
    """
    k = M.shape[0]
    flat = ts.reshape(-1)
    # frexp gives y = f 2^e with f in [0.5, 1), so ceil(log2 y) = e - (f == 0.5).
    frac, expo = np.frexp(flat * np.abs(M).sum(axis=0).max() / _THETA13)
    s = np.maximum(expo - (frac == 0.5), 0)
    X = np.ldexp(flat, -s)[:, None, None] * M
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    b = _PADE13
    eye = np.eye(k)
    U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
             + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * eye)
    V = (X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
         + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * eye)
    del X, X2, X4, X6  # with V - U and 2 U formed in place, the solve holds fewer stacks
    R = eye + np.linalg.solve(np.subtract(V, U, out=V), np.multiply(U, 2.0, out=U))
    for i in range(int(s.max(initial=0))):
        rows = np.flatnonzero(s > i)
        R[rows] = R[rows] @ R[rows]
    return R.reshape(ts.shape + (k, k))


def is_hurwitz(M) -> bool:
    """True when every eigenvalue of M has strictly negative real part."""
    A = _as_square(M)
    return bool(np.all(np.linalg.eigvals(A).real < 0.0))


def solve_lyapunov(Abar, Q, residual_tol: float = 1e-9) -> np.ndarray:
    """Solve ``P Abar + Abar^T P = -Q`` for symmetric positive-definite P.

    Vectorises to ``(Abar^T (x) I + I (x) Abar^T) vec(P) = -vec(Q)`` and
    solves with partially pivoted elimination; the residual is checked
    against ``residual_tol`` before returning.

    Raises
    ------
    NotHurwitzError : Abar has an eigenvalue with nonnegative real part.
    DomainError     : Q is not symmetric positive definite.
    NumericalError  : the residual check fails.
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

    residual = inf_norm(P @ A + A.T @ P + Qm)
    if residual > residual_tol:
        raise NumericalError(f"Lyapunov residual {residual:.3e} exceeds {residual_tol:.1e}")
    return P
