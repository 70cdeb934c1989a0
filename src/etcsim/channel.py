"""Piecewise-constant channel model over left-open, right-closed time slots.

A schedule is a strictly increasing breakpoint sequence ``theta_0 < ... <
theta_N`` with a per-slot rate ``R_j`` (bits per state dimension per unit
time) and packet cap ``pi_j`` (per-dimension bits) on slot
``I_j = (theta_j, theta_{j+1}]``.  A blackout is a slot with ``pi_j = 0``;
its rate is retained for bookkeeping but transmission is forbidden.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    FeasibilityError,
    HorizonError,
    InfeasibleTransmissionError,
)

_REL_SLACK = 1e-12


class ChannelSchedule:
    """Immutable rate/packet-cap schedule with slot and blackout queries."""

    def __init__(self, theta, rates, caps, n: int):
        theta = np.asarray(theta, dtype=float)
        rates = np.asarray(rates, dtype=float)
        caps = np.asarray(caps)
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
        if np.any((caps[:-1] == 0) & (caps[1:] == 0)):
            raise ConfigurationError("blackout slots must not be consecutive")
        if np.any((caps > 0) & (rates <= 0)):
            raise ConfigurationError("a usable slot must carry bits (R > 0)")
        if n < 1:
            raise ConfigurationError("state dimension must be positive")
        self.theta = theta
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

    def durations(self) -> np.ndarray:
        return np.diff(self.theta)

    def slot_index(self, t):
        """Index j with t in (theta_j, theta_{j+1}]; an array of times gives an array."""
        ts = np.asarray(t, dtype=float)
        if not np.all((self.start < ts) & (ts <= self.end)):
            raise HorizonError(f"t={t} outside schedule horizon ({self.start}, {self.end}]")
        js = np.searchsorted(self.theta, ts, side="left") - 1
        return int(js) if js.ndim == 0 else js

    def right_slot_index(self, t: float) -> int:
        """Index of the slot that applies just after t (valid on [theta_0, theta_N))."""
        if not self.start <= t < self.end:
            raise HorizonError(f"t={t} outside [{self.start}, {self.end}) for right limits")
        return int(np.searchsorted(self.theta, t, side="right")) - 1

    def slot_at(self, t):
        """Slot whose values a send at t uses: slot_index, or the right limit at theta_0.

        An array of times gives the array of their slots.
        """
        ts = np.asarray(t, dtype=float)
        return self.slot_index(np.where(ts == self.start, self.theta[1], ts))

    # -- channel functions --------------------------------------------------

    def max_delay(self, t: float, p: int) -> float:
        """Upper bound p / R(t) on the communication time of an n*p-bit packet."""
        if p < 0:
            raise DomainError("packet size must be nonnegative")
        if p == 0:
            return 0.0
        rate = float(self.rates[self.slot_at(t)])
        if rate <= 0.0:
            raise InfeasibleTransmissionError(f"channel rate is zero at t={t}")
        return p / rate

    # -- blackouts ----------------------------------------------------------

    def blackout_slots(self) -> list[int]:
        return [int(j) for j in np.flatnonzero(self.caps == 0)]

    def next_blackout_slot(self, j: int) -> int | None:
        """First blackout slot with index strictly greater than j."""
        for b in self.blackout_slots():
            if b > j:
                return b
        return None


def compute_J(schedule: ChannelSchedule, j0: int, jf: int) -> int | None:
    """Smallest J bounding how many later slots one slot's spillover can occupy.

    Checks, for every slot j in [j0, jf) whose look-ahead window is nonempty,
    that ``pi_j / R_j < sum of the next J+1 slot lengths``.  Slots whose
    window is empty (nothing scheduled after them) are excluded.  Returns
    None when the schedule ends too soon to certify any J.
    """
    if not 0 <= j0 < jf <= schedule.num_slots:
        raise DomainError(f"invalid slot range [{j0}, {jf})")
    durations = schedule.durations()
    last = schedule.num_slots - 1
    spill = np.zeros(schedule.num_slots)
    usable = schedule.caps > 0
    spill[usable] = schedule.caps[usable] / schedule.rates[usable]
    for J in range(schedule.num_slots + 1):
        ok = True
        for j in range(j0, jf):
            hi = j + 1 + J
            if j + 1 > last:
                continue  # empty look-ahead window: excluded
            window = durations[j + 1:min(hi, last) + 1].sum()
            if spill[j] < window:
                continue
            if hi > last:
                return None  # window truncated by the horizon and still failing
            ok = False
            break
        if ok:
            return J
    return None


@dataclass(frozen=True)
class TransmissionRecord:
    """One transmission: send time, per-dimension bits, reception and update times."""

    t_k: float
    p_k: int
    r_k: float
    r_tilde_k: float

    @property
    def delta(self) -> float:
        return self.r_k - self.t_k

    @property
    def delta_tilde(self) -> float:
        return self.r_tilde_k - self.t_k

    def validate(self, schedule: ChannelSchedule) -> None:
        """Check the causality, delay-bound and packet-cap rules."""
        if not self.delta_tilde >= self.delta >= 0.0:
            raise FeasibilityError(
                f"causal communication violated: delta_tilde={self.delta_tilde}, delta={self.delta}")
        cap = int(schedule.caps[schedule.slot_at(self.t_k)])
        if self.p_k > cap:
            raise FeasibilityError(f"packet of {self.p_k} bits exceeds cap {cap} at t={self.t_k}")
        bound = schedule.max_delay(self.t_k, self.p_k)
        slack = _REL_SLACK * max(1.0, abs(self.t_k))
        if self.delta > bound + slack:
            raise FeasibilityError(
                f"communication time {self.delta} exceeds bound {bound} at t={self.t_k}")


def validate_sequence(records, schedule: ChannelSchedule) -> None:
    """Validate each record plus the one-packet-in-flight rule between them."""
    for rec in records:
        rec.validate(schedule)
    for prev, nxt in zip(records, records[1:]):
        if nxt.t_k < prev.r_tilde_k - _REL_SLACK * max(1.0, abs(prev.r_tilde_k)):
            raise FeasibilityError(
                f"transmission at {nxt.t_k} precedes previous update at {prev.r_tilde_k}")
