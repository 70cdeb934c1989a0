import json
import math

import numpy as np
import pytest
from conftest import SCENARIOS, capacity_exact, replay_allocation

from etcsim import capacity, channel
from etcsim.capacity import (
    capacity_fallback,
    capacity_lp_floor,
    floor_nudged,
    launch_budget,
    plan_window,
    slot_plans,
)
from etcsim.channel import ChannelSchedule, chained_spillover
from etcsim.errors import ConfigurationError, DomainError
from etcsim.scenario import build_scenario


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
    return ChannelSchedule(theta=theta, rates=rates, caps=caps, n=int(rng.integers(1, 4)))


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
    return ChannelSchedule(theta=theta, rates=rates, caps=caps, n=int(rng.integers(1, 4)))


def is_no_chain(problem):
    for j in range(problem.num_slots - 1):
        if problem.caps[j] and problem.caps[j] / problem.rates[j] >= problem.durations[j + 1]:
            return False
    return True


class TestCapacityExact:
    """The exhaustive oracle of ``conftest`` that certifies the LP floor and the fallback."""

    def test_constant_rate_formula(self, rng):
        # Constant rate with positive caps: value is n*floor(R * window).
        for _ in range(20):
            m = int(rng.integers(1, 4))
            durations = rng.integers(1, 6, size=m) * 0.5
            theta = np.concatenate([[0.0], np.cumsum(durations)])
            rate = float(rng.integers(1, 4))
            caps = rng.integers(1, 4, size=m)
            n = int(rng.integers(1, 3))
            prob = ChannelSchedule(theta=theta, rates=[rate] * m, caps=caps, n=n)
            want = n * int(np.floor(rate * float(theta[-1]) + 1e-9))
            assert capacity_exact(prob).value_bits == want

    def test_all_blackout_is_zero(self):
        prob = ChannelSchedule(theta=[0.0, 1.0], rates=[2.0], caps=[0], n=2)
        assert capacity_exact(prob).value_bits == 0

    def test_spillover_bit_counts(self):
        # 2 in-slot bits plus one cap bit received at 1.5, before the end.
        prob = ChannelSchedule(theta=[0.0, 1.0, 2.0], rates=[2.0, 1.0],
                               caps=[1, 0], n=1)
        plan = capacity_exact(prob)
        assert plan.value_bits == 3
        assert plan.phi.tolist() == [3, 0]

    def test_single_slot_capped_by_reception(self):
        # floor(R*T) = 3; the cap's extra bits cannot land inside the window.
        prob = ChannelSchedule(theta=[0.0, 1.0], rates=[3.0], caps=[2], n=1)
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
            left = capacity_exact(ChannelSchedule(
                theta=prob.theta[:k + 1], rates=prob.rates[:k],
                caps=prob.caps[:k], n=prob.n)).value_bits
            right = capacity_exact(ChannelSchedule(
                theta=prob.theta[k:], rates=prob.rates[k:],
                caps=prob.caps[k:], n=prob.n)).value_bits
            assert whole >= left + right


class TestLpFloor:
    def test_single_slot_value(self):
        # Reception before the window end caps the single slot at floor(R*T).
        prob = ChannelSchedule(theta=[0.0, 1.0], rates=[3.0], caps=[2], n=1)
        plan = capacity_lp_floor(prob)
        assert plan.value_bits == 3
        assert plan.phi.tolist() == [3]
        assert capacity_exact(prob).value_bits == plan.value_bits

    def test_all_blackout_slice(self):
        prob = ChannelSchedule(theta=[0.0, 2.0], rates=[2.0], caps=[0], n=3)
        assert capacity_lp_floor(prob).value_bits == 0

    def test_rejects_chained_spillover(self):
        prob = ChannelSchedule(theta=[0.0, 1.0, 1.5], rates=[2.0, 1.0],
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
        prob = ChannelSchedule(theta=[0.0, 2.0, 4.0], rates=[1.0, 1.0],
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
        prob = ChannelSchedule(theta=[0.0, 1.0], rates=[2.7], caps=[5], n=1)
        assert capacity_fallback(prob).phi.tolist() == [2]

    def test_blackout_contributes_nothing(self):
        prob = ChannelSchedule(theta=[0.0, 1.0, 2.0], rates=[5.0, 5.0],
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
        prob = ChannelSchedule(theta=[0.0, 1.0, 2.0], rates=[2.0, 2.0],
                               caps=[1, 1], n=2)
        plan = capacity_lp_floor(prob)
        assert launch_budget(plan, 0.0)[1] == plan.value_bits

    def test_first_slot_exhaustion(self):
        # A fractional in-slot budget exhausts strictly before the slot ends.
        prob = ChannelSchedule(theta=[0.0, 1.0, 2.0], rates=[2.5, 2.0],
                               caps=[1, 1], n=1)
        plan = capacity_fallback(prob)
        t_done = float(plan.phi[0]) / 2.5
        assert t_done < 1.0
        assert launch_budget(plan, t_done)[1] == int(np.sum(plan.phi[1:]))

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
                bound = launch_budget(plan, t)[1]
                assert 0 <= resolved - bound <= prob.n

    def test_nonincreasing_within_slot(self, rng):
        prob = ChannelSchedule(theta=[0.0, 2.0, 3.0], rates=[3.0, 3.0],
                               caps=[2, 2], n=1)
        plan = capacity_lp_floor(prob)
        ts = np.linspace(0.0, 2.0 - 1e-9, 40)
        vals = [launch_budget(plan, t)[1] for t in ts]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_arrays_of_times_match_scalar_calls(self):
        prob = ChannelSchedule(theta=[0.0, 2.0, 3.0], rates=[3.0, 3.0],
                               caps=[2, 2], n=2)
        plan = capacity_lp_floor(prob)
        ts = np.linspace(0.0, 2.0, 9)  # the slot end gives the engine's left limit
        assert launch_budget(plan, ts)[1].tolist() == [launch_budget(plan, t)[1] for t in ts]
        assert launch_budget(plan, np.array([]))[1].shape == (0,)


class TestPlanner:
    def test_full_plan_at_slot_entry(self, blackout_scn):
        plan = slot_plans(blackout_scn.schedule)[0]
        bits, floor = launch_budget(plan, 0.0)
        assert bits == int(plan.phi[0])
        assert floor == plan.value_bits

    @pytest.mark.parametrize("name", ["blackout", "clear_channel"])
    def test_stored_plans_match_hand_built_windows(self, request, name):
        # Slot j's plan covers [theta_j, next blackout start); the rule keeps one
        # per slot with a blackout ahead, so none on a clear channel.
        rule = request.getfixturevalue(f"{name}_rule")
        sched = rule.sched
        assert len(rule.plans) == sched.num_slots
        built = 0
        for j, plan in enumerate(rule.plans):
            ahead = [b for b in range(j + 1, sched.num_slots) if sched.caps[b] == 0]
            if name == "clear_channel" or not ahead:
                assert plan is None
                continue
            jb = ahead[0]
            window = ChannelSchedule(theta=sched.theta[j:jb + 1], rates=sched.rates[j:jb],
                                     caps=sched.caps[j:jb], n=sched.n)
            want = plan_window(window, chained_spillover(sched, j, jb))
            assert (plan.kind, plan.value_bits) == (want.kind, want.value_bits), j
            np.testing.assert_array_equal(plan.phi, want.phi)
            built += 1
        assert built == (8 if name == "blackout" else 0)  # sec6: a blackout lies ahead of 0-7

    def test_no_plans_for_slots_past_the_horizon(self, monkeypatch):
        # sec6 cut at 3 s: only slots 0 and 1 start before the horizon.
        calls = []
        plan = capacity.plan_window
        monkeypatch.setattr(capacity, "plan_window",
                            lambda *args: calls.append(args) or plan(*args))
        doc = json.loads((SCENARIOS / "sec6.json").read_text())
        doc["sim"]["horizon"] = 3.0
        rule = build_scenario(doc).rule
        assert len(calls) == 2
        assert [plan is not None for plan in rule.plans] == [True, True] + [False] * 8

    def test_packet_bound_within_cap(self, blackout_rule):
        sched = blackout_rule.sched
        for t in np.linspace(0.01, 19.99, 200):
            j = sched.slot_at(t)
            assert blackout_rule.psi(t, j) <= int(sched.caps[j])

    def test_no_blackout_ahead_is_unbounded(self, blackout_rule):
        sched = blackout_rule.sched
        last = sched.num_slots - 1
        assert slot_plans(sched)[last] is None
        assert blackout_rule.budget(19.5, last) == (math.inf, int(sched.caps[last]), math.inf)

    def test_plans_leave_no_long_artificial_blackout(self, blackout_scn):
        # Optimality of each slot's first allocation keeps the dead zone at
        # the slot end below two bit times.
        sched = blackout_scn.schedule
        for j, plan in enumerate(slot_plans(sched)):
            if sched.caps[j] == 0 or plan is None:
                continue
            duration = float(sched.theta[j + 1] - sched.theta[j])
            assert sched.rates[j] * duration - float(plan.phi[0]) < 1.0

    def test_blackout_slot_has_zero_bits(self, blackout_rule):
        sched = blackout_rule.sched
        b = sched.blackout_slots()[0]
        assert blackout_rule.budget(float(sched.theta[b]) + 0.5, b)[0] == 0


class TestSlotBitBudget:
    """Plans hold a slot's bits in int64: the schedule bounds each usable slot's budget."""

    def test_budget_at_the_bound_rejected_and_just_inside_planned(self):
        limit = channel._MAX_SLOT_BITS
        with pytest.raises(ConfigurationError, match="slot 1: bit budget"):
            ChannelSchedule(theta=[0.0, 1.0, 2.0], rates=[1.0, limit], caps=[1, 1], n=1)
        # A blackout's rate is bookkeeping: its budget is never planned.
        ChannelSchedule(theta=[0.0, 1.0, 2.0], rates=[1.0, limit], caps=[1, 0], n=1)
        rate = float(np.nextafter(limit, 0.0))
        sched = ChannelSchedule(theta=[0.0, 1.0, 2.0], rates=[rate, rate], caps=[1, 1], n=2)
        for plan in (capacity_lp_floor(sched), capacity_fallback(sched)):
            assert plan.phi.tolist() == [int(rate)] * 2
            assert plan.value_bits == 2 * 2 * int(rate)  # past int64, without wrapping
            assert launch_budget(plan, 0.0)[1] == float(plan.value_bits)

    def test_sec6_just_inside_the_bound_builds(self):
        # Every R just below 2^63 / 2.44, sec6's longest slot: the plans' sums of per-slot
        # bits pass int64, and read negative when int64 sums wrapped (from R = 2e18).
        doc = json.loads((SCENARIOS / "sec6.json").read_text())
        rate = 0.999 * channel._MAX_SLOT_BITS / 2.44
        for slot in doc["channel"]["slots"]:
            slot["R"] = rate
        rule = build_scenario(doc).rule
        for plan in filter(None, rule.plans):
            assert plan.value_bits == 2 * sum(int(v) for v in plan.phi) > 0
