"""Data-capacity computation: exact oracle, LP relaxation, fallback, and
the real-time quantities built from stored per-slot allocations.

An allocation assigns ``phi_j`` per-dimension bits to be launched inside
each slot of a window; transmissions start as early as possible and run
back to back, so feasibility of an allocation reduces to a single
forward replay of busy times.  The exact capacity maximises the total
over integer allocations (exponential, guarded by size limits); the LP
route solves the relaxation valid when no slot's spillover can outlast
its successor slot, then floors; the fallback keeps every slot's bits
inside the slot itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSchedule, compute_J
from .errors import DomainError, ScaleGuardError

_FLOOR_NUDGE = 1e-9
_SCALE_SLOTS = 8
_SCALE_BITS = 20


def floor_nudged(x: float) -> int:
    """Floor with a small upward nudge so exact integers survive roundoff."""
    return int(np.floor(x + _FLOOR_NUDGE))


@dataclass(frozen=True)
class AllocationProblem:
    """A window of consecutive slots over which bits are allocated."""

    theta: np.ndarray       # breakpoints, length m+1
    rates: np.ndarray       # per-slot rate, length m
    caps: np.ndarray        # per-slot packet cap, length m
    n: int                  # state dimension

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.size < 2 or np.any(np.diff(theta) <= 0):
            raise DomainError("allocation window needs strictly increasing breakpoints")
        rates = np.asarray(self.rates, dtype=float)
        caps = np.asarray(self.caps, dtype=int)
        if rates.shape != (theta.size - 1,) or caps.shape != (theta.size - 1,):
            raise DomainError("need one rate and one cap per slot")
        if np.any((caps > 0) & (rates <= 0)):
            raise DomainError("a slot with a positive cap needs a positive rate")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "caps", caps)

    @classmethod
    def from_schedule(cls, schedule: ChannelSchedule, j0: int, jf: int) -> "AllocationProblem":
        if not 0 <= j0 < jf <= schedule.num_slots:
            raise DomainError(f"invalid slot range [{j0}, {jf})")
        return cls(theta=schedule.theta[j0:jf + 1].copy(),
                   rates=schedule.rates[j0:jf].copy(),
                   caps=schedule.caps[j0:jf].copy(),
                   n=schedule.n)

    @property
    def num_slots(self) -> int:
        return int(self.caps.size)

    @property
    def durations(self) -> np.ndarray:
        return np.diff(self.theta)

    @property
    def horizon_end(self) -> float:
        return float(self.theta[-1])


@dataclass
class CapacityPlan:
    """Per-slot integer allocation plus the capacity value it certifies."""

    phi: np.ndarray
    value_bits: int
    kind: str                       # "exact" | "lp_floor" | "fallback"
    lp_phi: np.ndarray | None = None
    problem: AllocationProblem | None = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# replay feasibility


def replay_allocation(problem: AllocationProblem, phi) -> float | None:
    """Busy-until time after replaying an allocation earliest-first.

    Returns the time the last bit is received, or None when the
    allocation is infeasible (cap exceeded, slot fully occupied, or a
    bit not received by the window end).
    """
    phi = np.asarray(phi)
    busy = float(problem.theta[0])
    slack = _FLOOR_NUDGE / max(float(problem.rates.max(initial=0.0)), 1.0)
    for j in range(problem.num_slots):
        bits = int(phi[j])
        if bits < 0:
            return None
        if bits == 0:
            continue
        if problem.caps[j] == 0:
            return None
        start = max(busy, float(problem.theta[j]))
        avail = float(problem.theta[j + 1]) - start
        if avail <= 0.0:
            return None
        if bits > problem.rates[j] * avail + problem.caps[j] + _FLOOR_NUDGE:
            return None
        busy = start + bits / problem.rates[j]
    if busy > problem.horizon_end + slack:
        return None
    return busy


# ---------------------------------------------------------------------------
# exact capacity (exhaustive oracle)


def _slot_static_caps(problem: AllocationProblem) -> np.ndarray:
    caps = np.zeros(problem.num_slots, dtype=int)
    for j in range(problem.num_slots):
        if problem.caps[j] > 0:
            caps[j] = floor_nudged(problem.rates[j] * problem.durations[j] + problem.caps[j])
    return caps


def capacity_exact(problem: AllocationProblem) -> CapacityPlan:
    """Globally optimal integer allocation by guarded exhaustive search.

    Refuses windows larger than 8 slots or with more than 20 allocatable
    bits in any slot; this path exists to certify the cheaper routes.
    """
    m = problem.num_slots
    static = _slot_static_caps(problem)
    if m > _SCALE_SLOTS or np.any(static > _SCALE_BITS):
        raise ScaleGuardError(
            f"exact capacity limited to {_SCALE_SLOTS} slots and {_SCALE_BITS} bits per slot")

    end = problem.horizon_end
    theta = problem.theta
    rates = problem.rates
    caps = problem.caps
    tail_static = np.concatenate([np.cumsum(static[::-1])[::-1], [0]])
    rate_from = np.zeros(m)
    rmax = 0.0
    for j in range(m - 1, -1, -1):
        if caps[j] > 0:
            rmax = max(rmax, rates[j])
        rate_from[j] = rmax

    best_val = 0
    best_vec = np.zeros(m, dtype=int)

    def dfs(j: int, busy: float, total: int, phi: list[int]):
        nonlocal best_val, best_vec
        if j == m:
            if total > best_val:
                best_val = total
                best_vec = np.array(phi, dtype=int)
            return
        start = max(busy, float(theta[j]))
        optimistic = total + int(tail_static[j])
        if rate_from[j] > 0.0 and start < end:
            optimistic = min(optimistic, total + floor_nudged((end - start) * rate_from[j]))
        elif rate_from[j] == 0.0:
            optimistic = total
        if optimistic <= best_val:
            return
        if caps[j] == 0 or start >= float(theta[j + 1]) - 1e-15:
            dfs(j + 1, busy, total, phi + [0])
            return
        avail = float(theta[j + 1]) - start
        ub = floor_nudged(rates[j] * avail + caps[j])
        ub = min(ub, floor_nudged(rates[j] * (end - start)))
        for bits in range(ub, -1, -1):
            nxt = busy if bits == 0 else start + bits / rates[j]
            dfs(j + 1, nxt, total + bits, phi + [bits])

    dfs(0, float(theta[0]), 0, [])
    return CapacityPlan(phi=best_vec, value_bits=problem.n * int(best_vec.sum()),
                        kind="exact", problem=problem)


# ---------------------------------------------------------------------------
# LP relaxation with floor rounding (valid when spillover is one-slot bounded)


def capacity_lp_floor(problem: AllocationProblem) -> CapacityPlan:
    """Floor of the relaxed optimal allocation.

    Requires the no-chained-spillover condition on the window, that each
    non-final slot's spillover ``c_j / R_j`` dies inside its successor slot
    (the relaxed constraint set is only equivalent there).  In time units
    ``tau_j = phi_j / R_j`` each relaxed constraint bounds an interval sum,
    ``tau_a + ... + tau_b <= theta_{b+1} - theta_a + c_b / R_b`` (no
    ``c_b`` term for the last slot; zero-cap slots keep ``tau = 0``).  The
    bound is modular on intersecting intervals, so the feasible set is a
    polymatroid and Edmonds' greedy is exact: by decreasing rate, latest
    slot first among equal rates, raise each ``tau_j`` to the least slack
    of the intervals holding it.  That tie order gives the lexicographically
    smallest relaxed optimum, so stored plans are reproducible.
    """
    m = problem.num_slots
    usable = problem.caps > 0
    spill = np.divide(problem.caps, problem.rates, out=np.zeros(m), where=usable)
    if np.any(spill[:-1] >= problem.durations[1:]):
        raise DomainError("window has chained spillover; use capacity_fallback")
    spill[-1] = 0.0
    # bound[a, b] for the interval of slots a..b; empty intervals (a > b) never bind.
    bound = problem.theta[1:] - problem.theta[:-1, None] + spill
    bound[np.tril_indices(m, -1)] = np.inf
    tau = np.zeros(m)
    for j in np.lexsort((-np.arange(m), -problem.rates)):
        if usable[j]:
            sums = np.concatenate([[0.0], np.cumsum(tau)])
            slack = bound[:j + 1, j:] - (sums[j + 1:] - sums[:j + 1, None])
            tau[j] = max(0.0, float(slack.min()))
    x = problem.rates * tau
    phi = np.array([floor_nudged(v) for v in x], dtype=int)
    return CapacityPlan(phi=phi, value_bits=problem.n * int(phi.sum()),
                        kind="lp_floor", lp_phi=x, problem=problem)


def capacity_fallback(problem: AllocationProblem) -> CapacityPlan:
    """In-slot-only allocation: ``floor(R_j T_j)`` bits per usable slot."""
    phi = np.array([floor_nudged(problem.rates[j] * problem.durations[j])
                    if problem.caps[j] > 0 else 0
                    for j in range(problem.num_slots)], dtype=int)
    return CapacityPlan(phi=phi, value_bits=problem.n * int(phi.sum()),
                        kind="fallback", problem=problem)


def plan_window(problem: AllocationProblem, chained_spillover: bool) -> CapacityPlan:
    """LP route when the window qualifies, in-slot fallback otherwise."""
    if chained_spillover:
        return capacity_fallback(problem)
    return capacity_lp_floor(problem)


def _unlaunched(plan: CapacityPlan, t):
    """First-slot bits still to launch at t (zero-cap: 0), and bound n (bits + sum(phi[1:]))."""
    problem = plan.problem
    decayed = plan.phi[0] - problem.rates[0] * (t - problem.theta[0])
    bits = np.maximum(0.0, np.floor(decayed + _FLOOR_NUDGE))
    return bits, problem.n * (bits + int(np.sum(plan.phi[1:])))


def realtime_bound(plan: CapacityPlan, t):
    """Capacity lower bound from time t in the plan's first slot, reusing the stored plan.

    ``n * max(0, floor(phi_0 - R_0 (t - theta_0))) + n * sum(phi_1..)``;
    within n bits of re-solving from t.  t may be one time or an array of
    times in the closed first slot (its end gives the left limit there).
    """
    problem = plan.problem
    if problem is None:
        raise DomainError("plan carries no window; cannot re-anchor")
    ts = np.asarray(t, dtype=float)
    start, end = problem.theta[0], problem.theta[1]
    if not (start <= ts.min(initial=start) and ts.max(initial=start) <= end):
        raise DomainError("realtime bound only valid inside the plan's first slot")
    return _unlaunched(plan, ts)[1]


# ---------------------------------------------------------------------------
# online planner


@dataclass(frozen=True)
class SlotPlanView:
    """Plan anchored at one slot, targeting the next blackout start."""

    slot: int
    plan: CapacityPlan | None       # None when no blackout lies ahead
    tau_l: float | None             # next blackout start (window end)
    blackout_len: float | None      # its full length


class CapacityPlanner:
    """Per-slot allocation plans for the window [slot start, next blackout).

    Plans are a pure function of the schedule and the slot index, so they
    are computed once per slot and cached; recomputation at receptions is
    a no-op by construction.
    """

    def __init__(self, schedule: ChannelSchedule):
        self.schedule = schedule
        self._plans: dict[int, SlotPlanView] = {}

    def plan_for_slot(self, j: int) -> SlotPlanView:
        if j not in self._plans:
            self._plans[j] = self._build(j)
        return self._plans[j]

    def _build(self, j: int) -> SlotPlanView:
        sched = self.schedule
        jb = sched.next_blackout_slot(j)
        if jb is None:
            return SlotPlanView(slot=j, plan=None, tau_l=None, blackout_len=None)
        problem = AllocationProblem.from_schedule(sched, j, jb)
        chained = compute_J(sched, j, jb) != 0
        plan = plan_window(problem, chained)
        return SlotPlanView(slot=j, plan=plan,
                            tau_l=float(sched.theta[jb]),
                            blackout_len=float(sched.theta[jb + 1] - sched.theta[jb]))

    # -- real-time quantities (slot passed explicitly so breakpoint
    #    right-limits can be evaluated before time advances past them;
    #    t may be a scalar or an array of times in slot j) --

    def budget(self, j: int, t):
        """Slot j's plan view, its bits still to launch and its capacity floor at t.

        bits and floor share one ``_unlaunched``, inf with no blackout ahead; t is unchecked.
        """
        view = self.plan_for_slot(j)
        if view.plan is None:
            return view, np.inf, np.inf
        return (view, *_unlaunched(view.plan, t))
