"""Piecewise-constant channel model over left-open, right-closed time slots.

A schedule is a strictly increasing breakpoint sequence ``theta_0 < ... <
theta_N`` with a per-slot rate ``R_j`` (bits per state dimension per unit
time) and packet cap ``pi_j`` (per-dimension bits) on slot
``I_j = (theta_j, theta_{j+1}]``.  A blackout is a slot with ``pi_j = 0``;
its rate is retained for bookkeeping but transmission is forbidden.
``TransmissionRecord.validate`` checks a send against its slot: causality,
the cap and the delay bound ``p_k / R_j`` (a slot that admits a bit has
``R_j > 0``); ``validate_sequence`` adds the rules between records.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, FeasibilityError, HorizonError

_REL_SLACK = 1e-12
# Largest bit budget R_j (theta_{j+1} - theta_j) + pi_j of a usable slot: capacity plans
# hold per-slot bits in int64 arrays, and a plan's floats may round a few ulps past the budget.
_MAX_SLOT_BITS = 2.0 ** 63 * (1.0 - 1e-12)


class ChannelSchedule:
    """Immutable rate/packet-cap schedule with slot and blackout queries."""

    def __init__(self, theta, rates, caps, n: int):
        # Copies: the schedule freezes its arrays, and the caller's stay writable.
        theta = np.array(theta, dtype=float)
        rates = np.array(rates, dtype=float)
        caps = np.array(caps)
        if theta.ndim != 1 or theta.size < 2:
            raise ConfigurationError("need at least two breakpoints")
        if np.any(np.diff(theta) <= 0):
            raise ConfigurationError("breakpoints must be strictly increasing")
        if rates.shape != (theta.size - 1,) or caps.shape != (theta.size - 1,):
            raise ConfigurationError("need one rate and one cap per slot")
        if np.any(rates < 0):
            raise ConfigurationError("rates must be nonnegative")
        if np.any(caps != np.floor(caps)) or np.any(caps < 0):
            raise ConfigurationError("packet caps must be nonnegative integers")
        caps = caps.astype(int)
        if np.any((caps > 0) & (rates <= 0)):
            raise ConfigurationError("a usable slot must carry bits (R > 0)")
        if n < 1:
            raise ConfigurationError("state dimension must be positive")
        with np.errstate(over="ignore"):  # an inf budget is reported below
            budgets = rates * np.diff(theta) + caps
        big = np.flatnonzero((caps > 0) & ~(budgets < _MAX_SLOT_BITS))
        if big.size:
            raise ConfigurationError(
                f"slot {big[0]}: bit budget R (theta_end - theta_start) + pi_bar = "
                f"{budgets[big[0]]:.3g} exceeds the {_MAX_SLOT_BITS:.3g} bits a plan can hold")
        self.theta = theta
        self._breaks = theta.tolist()
        self.rates = rates
        self.caps = caps
        self.n = int(n)
        for arr in (self.theta, self.rates, self.caps):
            arr.setflags(write=False)

    # -- slot lookup ------------------------------------------------------

    @property
    def start(self) -> float:
        return float(self.theta[0])

    @property
    def end(self) -> float:
        return float(self.theta[-1])

    @property
    def num_slots(self) -> int:
        return self.caps.size

    @property
    def durations(self) -> np.ndarray:
        return np.diff(self.theta)

    def slot_at(self, t):
        """Slot whose values a send at t uses: j with t in (theta_j, theta_{j+1}], 0 at theta_0.

        An array of times gives the array of their slots.  One float is looked
        up by ``bisect`` in the breakpoints' Python floats: the comparisons of
        ``np.searchsorted``, without its per-call cost.
        """
        if isinstance(t, float):
            if self.start <= t <= self.end:
                return max(bisect.bisect_left(self._breaks, t) - 1, 0)
        else:
            ts = np.asarray(t, dtype=float)
            if np.all((self.start <= ts) & (ts <= self.end)):
                js = np.maximum(np.searchsorted(self.theta, ts, side="left") - 1, 0)
                return int(js) if js.ndim == 0 else js
        raise HorizonError(f"t={t} outside schedule horizon [{self.start}, {self.end}]")

    def right_slot_index(self, t: float) -> int:
        """Index of the slot that applies just after t (valid on [theta_0, theta_N))."""
        if not self.start <= t < self.end:
            raise HorizonError(f"t={t} outside [{self.start}, {self.end}) for right limits")
        return bisect.bisect_right(self._breaks, t) - 1

    # -- blackouts ----------------------------------------------------------

    def blackout_slots(self) -> list[int]:
        return [int(j) for j in np.flatnonzero(self.caps == 0)]


def chained_spillover(schedule: ChannelSchedule, j0: int, jf: int) -> bool:
    """Whether a usable slot j in [j0, jf), other than the last, spills past the slot after it.

    True when some ``pi_j / R_j >= theta_{j+2} - theta_{j+1}``: a packet launched at
    the end of slot j may still be on the channel when slot j+1 ends, and the LP
    route's one-slot spillover bound does not hold.
    """
    stop = min(jf, schedule.num_slots - 1)
    caps = schedule.caps[j0:stop]
    spill = caps / np.where(caps > 0, schedule.rates[j0:stop], 1.0)
    return bool(np.any(spill >= schedule.durations[j0 + 1:stop + 1]))


@dataclass(frozen=True)
class TransmissionRecord:
    """One transmission: send time, per-dimension bits, reception and update times."""

    t_k: float
    p_k: int
    r_k: float
    r_tilde_k: float

    def validate(self, schedule: ChannelSchedule) -> None:
        """Check causality, the packet cap and the delay bound p_k / R of the send's slot."""
        delta, delta_tilde = self.r_k - self.t_k, self.r_tilde_k - self.t_k
        if not delta_tilde >= delta >= 0.0:
            raise FeasibilityError(
                f"causal communication violated: delta_tilde={delta_tilde}, delta={delta}")
        if self.p_k < 0:
            raise DomainError("packet size must be nonnegative")
        j = schedule.slot_at(self.t_k)
        cap = int(schedule.caps[j])
        if self.p_k > cap:
            raise FeasibilityError(f"packet of {self.p_k} bits exceeds cap {cap} at t={self.t_k}")
        bound = self.p_k / float(schedule.rates[j]) if self.p_k else 0.0
        if delta > bound + _REL_SLACK * max(1.0, abs(self.t_k)):
            raise FeasibilityError(
                f"communication time {delta} exceeds bound {bound} at t={self.t_k}")


def validate_sequence(records, schedule: ChannelSchedule) -> None:
    """Validate each record, that none is in flight when a blackout starts, and the
    one-packet-in-flight rule between them.

    A packet sent at or before a blackout start ``tau_l`` must be received by
    ``tau_l``: ``t_k <= tau_l < r_k`` is refused, with no slack.
    """
    starts = schedule.theta[:-1][schedule.caps == 0]
    for rec in records:
        rec.validate(schedule)
        crossed = starts[(rec.t_k <= starts) & (starts < rec.r_k)]
        if crossed.size:
            raise FeasibilityError(
                f"packet sent at {rec.t_k} is received at {rec.r_k}, after the blackout "
                f"start {crossed[0]}")
    for prev, nxt in zip(records, records[1:]):
        if nxt.t_k < prev.r_tilde_k - _REL_SLACK * max(1.0, abs(prev.r_tilde_k)):
            raise FeasibilityError(
                f"transmission at {nxt.t_k} precedes previous update at {prev.r_tilde_k}")
