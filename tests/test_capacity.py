import math

import numpy as np
import pytest

from etcsim.capacity import (
    AllocationProblem,
    CapacityPlanner,
    capacity_exact,
    capacity_fallback,
    capacity_lp_floor,
    floor_nudged,
    realtime_bound,
    replay_allocation,
)
from etcsim.errors import DomainError, ScaleGuardError
from etcsim.presets import sec6_scenario


def random_problem(rng, max_slots=4, allow_blackouts=True):
    m = int(rng.integers(1, max_slots + 1))
    durations = rng.integers(2, 7, size=m) * 0.25
    theta = np.concatenate([[0.0], np.cumsum(durations)])
    rates = rng.integers(1, 5, size=m).astype(float)
    caps = rng.integers(0 if allow_blackouts else 1, 4, size=m)
    for j in range(1, m):
        if caps[j] == 0 and caps[j - 1] == 0:
            caps[j] = 1
    if m == 1 and caps[0] == 0 and not allow_blackouts:
        caps[0] = 1
    return AllocationProblem(theta=theta, rates=rates, caps=caps, n=int(rng.integers(1, 4)))


def random_no_chain_window(rng, i):
    """No-chain window of 1..10 slots: tied rates, zero-cap slots, every fourth starts with one."""
    m = int(rng.integers(1, 11))
    durations = rng.integers(2, 9, size=m) * 0.25 if i % 3 else rng.uniform(0.3, 2.0, size=m)
    theta = np.concatenate([[0.0], np.cumsum(durations)])
    rates = (rng.choice([1.5, 2.0, 3.25, 4.0], size=m) if i % 2
             else rng.integers(1, 5, size=m).astype(float))
    caps = rng.integers(0, 4, size=m)
    if i % 4 == 0:
        caps[0] = 0
    for j in range(m - 1):
        while caps[j] and caps[j] / rates[j] >= durations[j + 1]:
            caps[j] -= 1
    return AllocationProblem(theta=theta, rates=rates, caps=caps, n=int(rng.integers(1, 4)))


def is_no_chain(problem):
    for j in range(problem.num_slots - 1):
        if problem.caps[j] and problem.caps[j] / problem.rates[j] >= problem.durations[j + 1]:
            return False
    return True


class TestCapacityExact:
    def test_constant_rate_formula(self, rng):
        # Constant rate with positive caps: value is n*floor(R * window).
        for _ in range(20):
            m = int(rng.integers(1, 4))
            durations = rng.integers(1, 6, size=m) * 0.5
            theta = np.concatenate([[0.0], np.cumsum(durations)])
            rate = float(rng.integers(1, 4))
            caps = rng.integers(1, 4, size=m)
            n = int(rng.integers(1, 3))
            prob = AllocationProblem(theta=theta, rates=[rate] * m, caps=caps, n=n)
            want = n * int(np.floor(rate * float(theta[-1]) + 1e-9))
            assert capacity_exact(prob).value_bits == want

    def test_all_blackout_is_zero(self):
        prob = AllocationProblem(theta=[0.0, 1.0], rates=[2.0], caps=[0], n=2)
        assert capacity_exact(prob).value_bits == 0

    def test_spillover_bit_counts(self):
        # 2 in-slot bits plus one cap bit received at 1.5, before the end.
        prob = AllocationProblem(theta=[0.0, 1.0, 2.0], rates=[2.0, 1.0],
                                 caps=[1, 0], n=1)
        plan = capacity_exact(prob)
        assert plan.value_bits == 3
        assert plan.phi.tolist() == [3, 0]

    def test_single_slot_capped_by_reception(self):
        # floor(R*T) = 3; the cap's extra bits cannot land inside the window.
        prob = AllocationProblem(theta=[0.0, 1.0], rates=[3.0], caps=[2], n=1)
        assert capacity_exact(prob).value_bits == 3

    def test_plans_replay_feasibly(self, rng):
        for _ in range(30):
            prob = random_problem(rng)
            plan = capacity_exact(prob)
            assert replay_allocation(prob, plan.phi) is not None

    def test_superadditive_across_a_split(self, rng):
        for _ in range(20):
            prob = random_problem(rng, max_slots=4)
            if prob.num_slots < 2:
                continue
            k = prob.num_slots // 2
            whole = capacity_exact(prob).value_bits
            left = capacity_exact(AllocationProblem(
                theta=prob.theta[:k + 1], rates=prob.rates[:k],
                caps=prob.caps[:k], n=prob.n)).value_bits
            right = capacity_exact(AllocationProblem(
                theta=prob.theta[k:], rates=prob.rates[k:],
                caps=prob.caps[k:], n=prob.n)).value_bits
            assert whole >= left + right

    def test_scale_guard(self):
        prob = AllocationProblem(theta=np.arange(10.0), rates=[1.0] * 9,
                                 caps=[1] * 9, n=1)
        with pytest.raises(ScaleGuardError):
            capacity_exact(prob)


class TestLpFloor:
    def test_single_slot_value(self):
        # Reception before the window end caps the single slot at floor(R*T).
        prob = AllocationProblem(theta=[0.0, 1.0], rates=[3.0], caps=[2], n=1)
        plan = capacity_lp_floor(prob)
        assert plan.value_bits == 3
        assert plan.phi.tolist() == [3]
        assert capacity_exact(prob).value_bits == plan.value_bits

    def test_all_blackout_slice(self):
        prob = AllocationProblem(theta=[0.0, 2.0], rates=[2.0], caps=[0], n=3)
        assert capacity_lp_floor(prob).value_bits == 0

    def test_rejects_chained_spillover(self):
        prob = AllocationProblem(theta=[0.0, 1.0, 1.5], rates=[2.0, 1.0],
                                 caps=[3, 1], n=1)
        with pytest.raises(DomainError):
            capacity_lp_floor(prob)

    def test_suboptimality_certificate(self, rng):
        checked = 0
        while checked < 25:
            prob = random_problem(rng)
            if not is_no_chain(prob):
                continue
            checked += 1
            exact = capacity_exact(prob).value_bits
            sub = capacity_lp_floor(prob).value_bits
            usable = int(np.sum(prob.caps > 0))
            assert 0 <= exact - sub <= prob.n * usable

    def test_lexicographic_tie_break(self):
        # Total is pinned at 4 by the reception constraints; among the
        # optimal splits the earliest slot keeps the fewest bits.
        prob = AllocationProblem(theta=[0.0, 2.0, 4.0], rates=[1.0, 1.0],
                                 caps=[1, 10], n=1)
        plan = capacity_lp_floor(prob)
        assert plan.value_bits == 4
        assert plan.phi.tolist() == [2, 2]

    def test_plans_replay_feasibly(self, rng):
        checked = 0
        while checked < 25:
            prob = random_problem(rng)
            if not is_no_chain(prob):
                continue
            checked += 1
            plan = capacity_lp_floor(prob)
            assert replay_allocation(prob, plan.phi) is not None

    def test_matches_lexicographic_lp_oracle(self, rng, lexicographic_lp):
        kinds = {"tied_rates": 0, "zero_cap": 0, "zero_cap_first": 0}
        for i in range(500):
            prob = random_no_chain_window(rng, i)
            assert is_no_chain(prob)
            kinds["tied_rates"] += np.unique(prob.rates).size < prob.num_slots
            kinds["zero_cap"] += bool(np.any(prob.caps == 0))
            kinds["zero_cap_first"] += bool(prob.caps[0] == 0)
            plan = capacity_lp_floor(prob)
            want = lexicographic_lp(prob)
            scale = max(1.0, float(np.abs(want).max()))
            assert np.abs(plan.lp_phi - want).max() <= 1e-9 * scale, prob
            assert plan.phi.tolist() == [floor_nudged(v) for v in want], prob
        assert min(kinds.values()) >= 100, kinds


class TestFallback:
    def test_floor_of_in_slot_bits(self):
        prob = AllocationProblem(theta=[0.0, 1.0], rates=[2.7], caps=[5], n=1)
        assert capacity_fallback(prob).phi.tolist() == [2]

    def test_blackout_contributes_nothing(self):
        prob = AllocationProblem(theta=[0.0, 1.0, 2.0], rates=[5.0, 5.0],
                                 caps=[0, 2], n=1)
        assert capacity_fallback(prob).phi.tolist() == [0, 5]

    def test_never_exceeds_exact(self, rng):
        for _ in range(25):
            prob = random_problem(rng)
            assert capacity_fallback(prob).value_bits <= capacity_exact(prob).value_bits

    def test_plans_replay_feasibly(self, rng):
        for _ in range(25):
            prob = random_problem(rng)
            plan = capacity_fallback(prob)
            assert replay_allocation(prob, plan.phi) is not None


class TestRealtimeBound:
    def test_full_value_at_window_start(self):
        prob = AllocationProblem(theta=[0.0, 1.0, 2.0], rates=[2.0, 2.0],
                                 caps=[1, 1], n=2)
        plan = capacity_lp_floor(prob)
        assert realtime_bound(plan, 0.0) == plan.value_bits

    def test_first_slot_exhaustion(self):
        # A fractional in-slot budget exhausts strictly before the slot ends.
        prob = AllocationProblem(theta=[0.0, 1.0, 2.0], rates=[2.5, 2.0],
                                 caps=[1, 1], n=1)
        plan = capacity_fallback(prob)
        t_done = float(plan.phi[0]) / 2.5
        assert t_done < 1.0
        assert realtime_bound(plan, t_done) == int(np.sum(plan.phi[1:]))

    def test_within_n_of_resolve(self, rng, sliced_at):
        checked = 0
        while checked < 25:
            prob = random_problem(rng)
            if not is_no_chain(prob) or prob.caps[0] == 0:
                continue
            checked += 1
            plan = capacity_lp_floor(prob)
            for frac in (0.1, 0.5, 0.9):
                t = float(prob.theta[0] + frac * prob.durations[0])
                resolved = capacity_lp_floor(sliced_at(prob, t)).value_bits
                bound = realtime_bound(plan, t)
                assert 0 <= resolved - bound <= prob.n

    def test_nonincreasing_within_slot(self, rng):
        prob = AllocationProblem(theta=[0.0, 2.0, 3.0], rates=[3.0, 3.0],
                                 caps=[2, 2], n=1)
        plan = capacity_lp_floor(prob)
        ts = np.linspace(0.0, 2.0 - 1e-9, 40)
        vals = [realtime_bound(plan, t) for t in ts]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_arrays_of_times_match_scalar_calls(self):
        prob = AllocationProblem(theta=[0.0, 2.0, 3.0], rates=[3.0, 3.0],
                                 caps=[2, 2], n=2)
        plan = capacity_lp_floor(prob)
        ts = np.linspace(0.0, 2.0, 9)  # the slot end is accepted, as the engine's left limit
        assert realtime_bound(plan, ts).tolist() == [realtime_bound(plan, t) for t in ts]
        assert realtime_bound(plan, np.array([])).shape == (0,)
        with pytest.raises(DomainError):
            realtime_bound(plan, np.array([1.0, 2.5]))

    def test_outside_first_slot_rejected(self):
        prob = AllocationProblem(theta=[0.0, 1.0, 2.0], rates=[2.0, 2.0],
                                 caps=[1, 1], n=1)
        plan = capacity_lp_floor(prob)
        with pytest.raises(DomainError):
            realtime_bound(plan, 1.5)


class TestPlanner:
    def test_full_plan_at_slot_entry(self):
        planner = CapacityPlanner(sec6_scenario().schedule)
        view = planner.plan_for_slot(0)
        _, bits, floor = planner.budget(0, 0.0)
        assert bits == int(view.plan.phi[0])
        assert floor == realtime_bound(view.plan, 0.0) == view.plan.value_bits

    def test_packet_bound_within_cap(self, blackout_rule):
        sched = blackout_rule.sched
        for t in np.linspace(0.01, 19.99, 200):
            j = sched.slot_index(t)
            assert blackout_rule.psi(t, j) <= int(sched.caps[j])

    def test_no_blackout_ahead_is_unbounded(self):
        sched = sec6_scenario().schedule
        planner = CapacityPlanner(sched)
        last = sched.num_slots - 1
        assert planner.plan_for_slot(last).plan is None
        assert planner.budget(last, 19.5)[1:] == (math.inf, math.inf)

    def test_plans_leave_no_long_artificial_blackout(self):
        # Optimality of each slot's first allocation keeps the dead zone at
        # the slot end below two bit times.
        sched = sec6_scenario().schedule
        planner = CapacityPlanner(sched)
        for j in range(sched.num_slots):
            if sched.caps[j] == 0:
                continue
            view = planner.plan_for_slot(j)
            if view.plan is None:
                continue
            duration = float(sched.theta[j + 1] - sched.theta[j])
            assert sched.rates[j] * duration - float(view.plan.phi[0]) < 1.0

    def test_blackout_slot_has_zero_bits(self):
        sched = sec6_scenario().schedule
        planner = CapacityPlanner(sched)
        b = sched.blackout_slots()[0]
        assert planner.budget(b, float(sched.theta[b]) + 0.5)[1] == 0
