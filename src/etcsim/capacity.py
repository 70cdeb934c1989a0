"""Data-capacity computation: exact oracle, LP relaxation, fallback, and
the real-time quantities built from stored per-slot allocations.

An allocation assigns ``phi_j`` per-dimension bits to be launched inside
each slot of a window, a ``ChannelSchedule`` (``slot_plans``'s windows are
stretches of the run's schedule up to a blackout); transmissions start
as early as possible and run back to back, so feasibility of an
allocation reduces to a single forward replay of busy times.  The exact
capacity maximises the total over integer allocations (exponential,
guarded by size limits); the LP route solves the relaxation valid when
no slot's spillover can outlast its successor slot, then floors; the
fallback keeps every slot's bits inside the slot itself.  A plan's bits
are summed in Python integers: ``ChannelSchedule`` keeps each slot's
bits within int64, but not their sum over a window.
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


@dataclass
class CapacityPlan:
    """Per-slot integer allocation plus the capacity value it certifies."""

    phi: np.ndarray
    value_bits: int
    kind: str                       # "exact" | "lp_floor" | "fallback"
    problem: ChannelSchedule = field(repr=False)
    lp_phi: np.ndarray | None = None


# ---------------------------------------------------------------------------
# replay feasibility


def replay_allocation(problem: ChannelSchedule, phi) -> float | None:
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
    if busy > problem.end + slack:
        return None
    return busy


# ---------------------------------------------------------------------------
# exact capacity (exhaustive oracle)


def _slot_static_caps(problem: ChannelSchedule) -> np.ndarray:
    caps = np.zeros(problem.num_slots, dtype=int)
    for j in range(problem.num_slots):
        if problem.caps[j] > 0:
            caps[j] = floor_nudged(problem.rates[j] * problem.durations[j] + problem.caps[j])
    return caps


def capacity_exact(problem: ChannelSchedule) -> CapacityPlan:
    """Globally optimal integer allocation by guarded exhaustive search.

    Refuses windows larger than 8 slots or with more than 20 allocatable
    bits in any slot; this path exists to certify the cheaper routes.
    """
    m = problem.num_slots
    static = _slot_static_caps(problem)
    if m > _SCALE_SLOTS or np.any(static > _SCALE_BITS):
        raise ScaleGuardError(
            f"exact capacity limited to {_SCALE_SLOTS} slots and {_SCALE_BITS} bits per slot")

    end = problem.end
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
    return CapacityPlan(phi=best_vec, value_bits=problem.n * sum(best_vec.tolist()),
                        kind="exact", problem=problem)


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
    return CapacityPlan(phi=phi, value_bits=problem.n * sum(phi.tolist()),
                        kind="lp_floor", lp_phi=x, problem=problem)


def capacity_fallback(problem: ChannelSchedule) -> CapacityPlan:
    """In-slot-only allocation: ``floor(R_j T_j)`` bits per usable slot."""
    phi = np.array([floor_nudged(problem.rates[j] * problem.durations[j])
                    if problem.caps[j] > 0 else 0
                    for j in range(problem.num_slots)], dtype=int)
    return CapacityPlan(phi=phi, value_bits=problem.n * sum(phi.tolist()),
                        kind="fallback", problem=problem)


def plan_window(problem: ChannelSchedule, chained_spillover: bool) -> CapacityPlan:
    """LP route when the window qualifies, in-slot fallback otherwise."""
    if chained_spillover:
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
        plans.append(plan_window(window, compute_J(schedule, j, jb) != 0))
    return plans
