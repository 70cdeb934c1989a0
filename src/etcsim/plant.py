"""Control problem definition and the scalar constants derived from it."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DecayMarginError, DimensionError, DomainError
from .linalg import ExpKernel, inf_norm, solve_lyapunov, spec_norm, sym_eig_extremes


@dataclass(frozen=True)
class RateConstants:
    """Scalar rates used by every trigger bound.

    decay_gap          gap between the certified closed-loop decay rate and
                       the target rate (``lam_min(Q)/lam_max(P) - beta``)
    guarded_decay_gap  same gap measured against the inflated target
                       ``a*beta``; must be positive for the design to exist
    growth_rate        open-loop error growth rate in the spectral norm
                       (``||A||_2 + beta/2``)
    growth_rate_inf    open-loop error growth rate in the infinity norm
                       (``||A||_inf + beta/2``)
    error_scale        normalisation turning the codec bound d_e into the
                       dimensionless error ratio
    decay_plus_growth  w + mu, the rate of the bounds' exponentials: a property,
                       so it cannot disagree with the two fields it adds
    """

    decay_gap: float
    guarded_decay_gap: float
    growth_rate: float
    growth_rate_inf: float
    error_scale: float

    @property
    def decay_plus_growth(self) -> float:
        return self.decay_gap + self.growth_rate


@dataclass(frozen=True)
class PlantModel:
    """Immutable plant + certificate bundle.

    Holds the system matrices, the feedback gain, the Lyapunov
    certificate P for ``Abar = A + B K``, the derived rate constants and
    the exponential kernels of the open-loop (``exp_A``) and closed-loop
    (``exp_Abar``) flows.  ``gamma1``, the unit violation time, is
    root-found once per plant.
    """

    A: np.ndarray
    B: np.ndarray
    K: np.ndarray
    Q: np.ndarray
    P: np.ndarray
    Abar: np.ndarray
    a: float
    beta: float
    vd0: float
    constants: RateConstants
    exp_A: ExpKernel = field(repr=False, compare=False)
    exp_Abar: ExpKernel = field(repr=False, compare=False)

    def __post_init__(self):  # also checks the vd0 of with_vd0, through dataclasses.replace
        if not 0.0 < self.vd0 < np.inf:
            raise ConfigurationError("initial performance level must be positive and finite")

    @cached_property
    def gamma1(self) -> float:
        """Time the performance bound takes to return to 1 from ``h = eps = 1``."""
        from .triggers import time_to_perf_violation  # triggers builds on this module
        return time_to_perf_violation(self, 1.0, 1.0)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def lyapunov_value(self, x):
        """V(x) = x^T P x over the last axis: one state or an array of states."""
        v = np.asarray(x, dtype=float)
        return np.einsum("...i,...i->...", v @ self.P, v)

    def desired_performance(self, t):
        """Target performance level ``vd0 * exp(-beta t)`` (t0 = 0), scalar or array t."""
        ts = np.asarray(t, dtype=float)
        if np.minimum.reduce(ts, axis=None, initial=0.0) < 0:  # one reduction, no temporary
            raise DomainError("desired_performance requires t >= t0 = 0")
        return self.vd0 * np.exp(-self.beta * ts)

    def with_vd0(self, vd0: float) -> "PlantModel":
        return dataclasses.replace(self, vd0=vd0)


def build_plant(A, B, K, Q, a: float, beta: float | None = None,
                beta_fraction: float | None = None, vd0: float = 1.0) -> PlantModel:
    """Assemble a PlantModel and all derived constants.

    The target decay rate may be given directly (``beta``) or as a
    fraction of the certified rate ``lam_min(Q)/lam_max(P)``
    (``beta_fraction``); exactly one of the two must be provided.

    Raises NotHurwitzError when A + B K is unstable, DecayMarginError
    when the guarded margin ``lam_min(Q)/lam_max(P) - a*beta`` is not
    positive, and ConfigurationError when ``B K = 0``.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    K = np.asarray(K, dtype=float)
    Q = np.asarray(Q, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise DimensionError("A must be square")
    if B.ndim != 2 or B.shape[0] != n:
        raise DimensionError("B must be n x m")
    m = B.shape[1]
    if K.shape != (m, n):
        raise DimensionError("K must be m x n")
    if Q.shape != (n, n):
        raise DimensionError("Q must be n x n")
    if a <= 1.0:
        raise ConfigurationError("margin factor a must exceed 1")
    if (beta is None) == (beta_fraction is None):
        raise ConfigurationError("provide exactly one of beta or beta_fraction")

    Abar = A + B @ K
    P = solve_lyapunov(Abar, Q)

    q_min, _ = sym_eig_extremes(Q)
    p_min, p_max = sym_eig_extremes(P)
    certified_rate = q_min / p_max

    if beta is None:
        if not 0.0 < beta_fraction:
            raise ConfigurationError("beta_fraction must be positive")
        beta = beta_fraction * certified_rate
    if beta <= 0.0:
        raise ConfigurationError("beta must be positive")

    guarded = certified_rate - a * beta
    if guarded <= 0.0:
        raise DecayMarginError(
            f"lam_min(Q)/lam_max(P) - a*beta = {guarded:.6g} must be positive")
    feedback_gain = spec_norm(P @ B @ K)
    if feedback_gain == 0.0:
        raise ConfigurationError("B K = 0: the feedback never acts, so no error scale exists")

    constants = RateConstants(
        decay_gap=certified_rate - beta,
        guarded_decay_gap=guarded,
        growth_rate=spec_norm(A) + beta / 2.0,
        growth_rate_inf=inf_norm(A) + beta / 2.0,
        error_scale=guarded * np.sqrt(p_min) / (2.0 * np.sqrt(n) * feedback_gain),
    )
    return PlantModel(A=_readonly(A), B=_readonly(B), K=_readonly(K), Q=_readonly(Q),
                      P=_readonly(P), Abar=_readonly(Abar), a=float(a),
                      beta=float(beta), vd0=float(vd0), constants=constants,
                      exp_A=ExpKernel(A), exp_Abar=ExpKernel(Abar))


def _readonly(M: np.ndarray) -> np.ndarray:
    out = np.array(M, dtype=float)
    out.setflags(write=False)
    return out
