"""Data-capacity plans: the real-time lower bound on the data capacity from
stored per-slot allocations.

An allocation assigns ``phi_j`` per-dimension bits to be launched inside
each slot of a window, a ``ChannelSchedule`` (``slot_plans``'s windows are
stretches of the run's schedule up to a blackout); transmissions start
as early as possible and run back to back, and every bit is received by
the window end.  The LP route solves the relaxation valid when no slot's
spillover can outlast its successor slot (``channel.chained_spillover``),
then floors; the fallback keeps every slot's bits inside the slot itself.
``launch_budget`` reads a stored plan from any time in its first slot.  A
plan's bits are summed in Python integers: ``ChannelSchedule`` keeps each
slot's bits within int64, but not their sum over a window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSchedule, chained_spillover
from .errors import DomainError

_FLOOR_NUDGE = 1e-9


def floor_nudged(x: float) -> int:
    """Floor with a small upward nudge so exact integers survive roundoff."""
    return int(np.floor(x + _FLOOR_NUDGE))


@dataclass
class CapacityPlan:
    """Per-slot integer allocation plus the capacity value it certifies."""

    phi: np.ndarray
    value_bits: int
    kind: str                       # "lp_floor" | "fallback"
    problem: ChannelSchedule = field(repr=False)
    lp_phi: np.ndarray | None = None


# ---------------------------------------------------------------------------
# LP relaxation with floor rounding (valid when spillover is one-slot bounded)


def capacity_lp_floor(problem: ChannelSchedule) -> CapacityPlan:
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
    if chained_spillover(problem, 0, m):
        raise DomainError("window has chained spillover; use capacity_fallback")
    usable = problem.caps > 0
    spill = np.divide(problem.caps, problem.rates, out=np.zeros(m), where=usable)
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
    return CapacityPlan(phi=phi, value_bits=problem.n * sum(phi.tolist()),
                        kind="lp_floor", lp_phi=x, problem=problem)


def capacity_fallback(problem: ChannelSchedule) -> CapacityPlan:
    """In-slot-only allocation: ``floor(R_j T_j)`` bits per usable slot."""
    phi = np.array([floor_nudged(problem.rates[j] * problem.durations[j])
                    if problem.caps[j] > 0 else 0
                    for j in range(problem.num_slots)], dtype=int)
    return CapacityPlan(phi=phi, value_bits=problem.n * sum(phi.tolist()),
                        kind="fallback", problem=problem)


def plan_window(problem: ChannelSchedule, chained: bool) -> CapacityPlan:
    """LP route when the window's spillover does not chain, in-slot fallback otherwise."""
    if chained:
        return capacity_fallback(problem)
    return capacity_lp_floor(problem)


def launch_budget(plan: CapacityPlan, t):
    """Bits still to launch in the plan's first slot at t, and the capacity floor.

    bits is ``max(0, floor(phi_0 - R_0 (t - theta_0)))`` (0 in a zero-cap
    slot) and the floor ``n (bits + sum(phi_1..))``, the real-time lower
    bound on the data capacity from t, reusing the stored plan: within n
    bits of re-solving the window from t.  t may be one time or an array
    of times; it is unchecked, and the bound holds in the closed first
    slot (its end gives the left limit there).
    """
    problem = plan.problem
    decayed = plan.phi[0] - problem.rates[0] * (t - problem.theta[0])
    bits = np.maximum(0.0, np.floor(decayed + _FLOOR_NUDGE))
    return bits, problem.n * (bits + sum(plan.phi[1:].tolist()))


# ---------------------------------------------------------------------------
# per-slot plans


def slot_plans(schedule: ChannelSchedule, horizon: float = np.inf) -> list[CapacityPlan | None]:
    """Each slot's plan for the window [slot start, next blackout start).

    None for a slot with no blackout ahead, and for a slot that starts at
    or after the horizon, where a run reads no plan.  Plans are a pure
    function of the schedule, so a run builds them once.
    """
    blackouts = schedule.blackout_slots()
    plans = []
    for j in range(schedule.num_slots):
        jb = next((b for b in blackouts if b > j), None)
        if jb is None or schedule.theta[j] >= horizon:
            plans.append(None)
            continue
        window = ChannelSchedule(schedule.theta[j:jb + 1], schedule.rates[j:jb],
                                 schedule.caps[j:jb], schedule.n)
        plans.append(plan_window(window, chained_spillover(schedule, j, jb)))
    return plans
