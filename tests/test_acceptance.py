"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single pass/fail line (visible with ``pytest -s``).
Criteria marked as bands check ranges, not point values, because the
reference schedule between blackouts is reconstructed rather than
published.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from conftest import run_refined

from etcsim.capacity import (
    capacity_exact,
    capacity_lp_floor,
    launch_budget,
    slot_plans,
)
from etcsim.channel import ChannelSchedule
from etcsim.linalg import solve_lyapunov
from etcsim.scenario import load_scenario
from etcsim.sim import run
from etcsim.triggers import blackout_entry_margin, channel_bound, perf_bound, time_to_perf_violation

SEC6 = Path(__file__).resolve().parents[1] / "scenarios" / "sec6.json"


@contextmanager
def criterion(num: int, name: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} [{name}]: FAIL ({time.monotonic() - start:.2f}s)")
        raise
    print(f"criterion {num:02d} [{name}]: PASS ({time.monotonic() - start:.2f}s)")


def random_no_chain_problem(rng):
    """Random allocation window whose spillover dies within one slot."""
    while True:
        m = int(rng.integers(1, 5))
        durations = rng.integers(2, 8, size=m) * 0.25
        theta = np.concatenate([[0.0], np.cumsum(durations)])
        rates = rng.integers(1, 5, size=m).astype(float)
        caps = rng.integers(0, 4, size=m)
        for j in range(1, m):
            if caps[j] == 0 and caps[j - 1] == 0:
                caps[j] = 1
        ok = all(caps[j] == 0 or caps[j] / rates[j] < durations[j + 1]
                 for j in range(m - 1))
        if not ok or not caps.any():
            continue
        return ChannelSchedule(theta=theta, rates=rates, caps=caps,
                               n=int(rng.integers(1, 4)))


def test_criterion_1_lyapunov_certificate():
    with criterion(1, "lyapunov certificate"):
        start = time.monotonic()
        plant = load_scenario(SEC6)[0].plant
        P = solve_lyapunov(plant.Abar, np.eye(2))
        want = np.array([[2.2500, -0.9167], [-0.9167, 0.5833]])
        assert np.max(np.abs(P - want)) <= 1e-3
        eig = np.sort(np.linalg.eigvals(plant.Abar).real)
        assert np.max(np.abs(eig - np.array([-2.0, -1.0]))) <= 1e-9
        assert time.monotonic() - start < 1.0


def test_criterion_2_threshold_constant():
    with criterion(2, "unit violation time"):
        start = time.monotonic()
        plant = load_scenario(SEC6)[0].plant
        assert time_to_perf_violation(plant, 1.0, 1.0) == pytest.approx(0.5699, abs=1e-3)
        assert time.monotonic() - start < 1.0


def test_criterion_3_constant_channel_capacity():
    with criterion(3, "constant-rate capacity"):
        start = time.monotonic()
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = int(rng.integers(1, 5))
            durations = rng.integers(1, 7, size=m) * 0.25
            theta = np.concatenate([[0.0], np.cumsum(durations)])
            rate = float(rng.integers(1, 9)) / 2.0
            caps = rng.integers(1, 4, size=m)
            n = int(rng.integers(1, 4))
            prob = ChannelSchedule(theta=theta, rates=[rate] * m, caps=caps, n=n)
            want = n * int(math.floor(rate * float(theta[-1]) + 1e-9))
            assert capacity_exact(prob).value_bits == want
        assert time.monotonic() - start < 10.0


def test_criterion_4_lp_suboptimality_certificate():
    with criterion(4, "LP sub-optimality certificate"):
        start = time.monotonic()
        rng = np.random.default_rng(4)
        for _ in range(100):
            prob = random_no_chain_problem(rng)
            exact = capacity_exact(prob).value_bits
            sub = capacity_lp_floor(prob).value_bits
            usable = int(np.sum(prob.caps > 0))
            assert 0 <= exact - sub <= prob.n * usable
        assert time.monotonic() - start < 60.0


def test_criterion_5_realtime_capacity_bound(sliced_at):
    with criterion(5, "real-time capacity bound"):
        start = time.monotonic()
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 100:
            prob = random_no_chain_problem(rng)
            if prob.caps[0] == 0:
                continue
            checked += 1
            plan = capacity_lp_floor(prob)
            for frac in np.linspace(0.0, 0.95, 10):
                t = float(prob.theta[0] + frac * prob.durations[0])
                resolved = capacity_lp_floor(sliced_at(prob, t)).value_bits
                bound = launch_budget(plan, t)[1]
                assert 0 <= resolved - bound <= prob.n
        assert time.monotonic() - start < 60.0


def test_criterion_6_artificial_blackout_bound(blackout_scn, blackout_trace):
    with criterion(6, "artificial blackout length"):
        sched = blackout_scn.schedule
        found_any = False
        for j, plan in enumerate(slot_plans(sched)):
            if sched.caps[j] == 0 or plan is None:
                continue
            # The packet bound hits zero on a terminal sliver of the slot;
            # its exact length follows from the plan's linear decay.
            stored = float(plan.phi[0])
            rate = float(sched.rates[j])
            duration = float(sched.theta[j + 1] - sched.theta[j])
            dead_start = (stored - 1.0) / rate + 1e-9 / rate
            length = duration - dead_start
            if length > 0:
                found_any = True
                assert length < 2.0 / rate
        assert found_any
        # Trace consistency: whenever the logged packet bound is zero on a
        # usable slot, the enclosing sliver is shorter than two bit times.
        usable = np.array([blackout_scn.schedule.caps[blackout_scn.schedule.slot_at(t)]
                           for t in blackout_trace.t])
        artificial = (blackout_trace.psi == 0) & (usable >= 1)
        for idx in np.flatnonzero(artificial):
            t = blackout_trace.t[idx]
            j = blackout_scn.schedule.slot_at(t)
            slot_end = float(blackout_scn.schedule.theta[j + 1])
            assert slot_end - t < 2.0 / float(blackout_scn.schedule.rates[j])


def test_criterion_7_closed_loop_safety():
    with criterion(7, "closed-loop safety"):
        start = time.monotonic()
        scn = load_scenario(SEC6)[0]
        trace = run(scn)
        assert np.all(trace.h_pf <= 1.0)
        err = np.max(np.abs(trace.x - trace.x_hat), axis=1)
        assert np.all(err <= trace.d_e)
        for b in scn.schedule.blackout_slots():
            tau_l = float(scn.schedule.theta[b])
            tau_u = float(scn.schedule.theta[b + 1])
            if tau_l >= trace.horizon:
                continue
            margin = blackout_entry_margin(scn.plant, tau_u - tau_l)
            at_start = np.flatnonzero(trace.t == tau_l)
            assert at_start.size > 0
            assert trace.eps[at_start[-1]] <= margin
        assert time.monotonic() - start < 30.0


def test_criterion_8_statistics_bands(blackout_trace):
    with criterion(8, "reference statistics bands"):
        stats = blackout_trace.stats
        assert 8 <= stats["transmission_count"] <= 32
        assert 0.6 <= stats["mean_intertransmission"] <= 2.5
        assert 5.0 <= stats["bits_per_unit_time"] <= 25.0


def test_criterion_9_non_zeno_scan_stability(blackout_scn, blackout_trace):
    with criterion(9, "non-Zeno scan stability"):
        base_step = blackout_trace.scan_step
        base_min = blackout_trace.stats["min_intertransmission"]
        prev_min, prev_step = base_min, base_step
        for k in (2, 4):
            stats = run_refined(blackout_scn, k).stats
            assert abs(stats["min_intertransmission"] - prev_min) < 2.0 * prev_step
            prev_min, prev_step = stats["min_intertransmission"], base_step / k


def test_criterion_10_trigger_bound_soundness(blackout_scn, blackout_trace,
                                              clear_channel_scn, clear_channel_trace):
    with criterion(10, "trigger-bound soundness"):
        for scn, trace in ((blackout_scn, blackout_trace),
                           (clear_channel_scn, clear_channel_trace)):
            plant, T = scn.plant, scn.trigger.lookahead
            edges = [0.0] + [tx.r_tilde_k for tx in trace.transmissions] + [np.inf]
            for lo, hi in zip(edges, edges[1:]):
                inside = np.flatnonzero((trace.t >= lo) & (trace.t < hi))
                if inside.size < 2:
                    continue
                # The window starts from the post-update state: the last row at its start
                # time (an update records the pre-update row first).
                a = inside[trace.t[inside] == trace.t[inside[0]]][-1]
                later = inside[inside > a]
                bound = perf_bound(plant, trace.t[later] - trace.t[a], trace.h_pf[a], trace.eps[a])
                assert np.all(trace.h_pf[later] <= bound)
            for tx in trace.transmissions:
                bound = float(channel_bound(plant, T, tx.r_tilde_k - tx.t_k,
                                            tx.h_pf_tx, tx.eps_tx, tx.p_k,
                                            check_domain=False))
                assert tx.h_ch_update <= bound
