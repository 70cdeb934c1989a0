import copy
import dataclasses
import math

import numpy as np
import pytest
from conftest import scalar_bisect

from etcsim import sim
from etcsim.capacity import CapacityPlanner, realtime_bound
from etcsim.channel import ChannelSchedule
from etcsim.codec import initial_state
from etcsim.errors import (
    AdmissibilityError,
    ConfigurationError,
    InvariantBreachError,
    ObjectiveViolationError,
)
from etcsim.presets import no_blackout_scenario
from etcsim.sim import _NUDGE, _TIME_TOL, Scenario, _Engine, check_admissibility, run
from etcsim.triggers import (
    _SCAN_CHUNK,
    TriggerConfig,
    blackout_entry_margin,
    error_threshold,
    resolve_lookahead,
)


def whole_slot_locate_fire(eng, t_start):
    """Reference for ``_Engine._locate_fire``: each slot's grid scanned in one array."""
    anchor_x = eng.x_aug.copy()

    def fires(ts, j):
        xs = eng.exp_block.apply(np.subtract(ts, t_start), anchor_x)
        h, eps = eng.rule.ratios(ts, xs, eng.enc.d_e(eng.plant, ts))
        return eng.rule.fires(ts, h, eps, j)

    cursor = t_start
    while cursor < eng.horizon - _TIME_TOL:
        if cursor >= eng.sched.end:
            return None
        j, j_left = eng.sched.right_slot_index(cursor), eng.sched.slot_at(cursor)
        if cursor == t_start and fires(cursor, j_left):
            return cursor, j_left
        if j != j_left and fires(cursor, j):
            if eng.rule.psi(cursor, j_left) >= 1:
                return cursor, j_left
            return min(cursor + _NUDGE, eng.horizon), j
        seg_end = min(float(eng.sched.theta[j + 1]), eng.horizon)
        count = max(1, int(math.ceil((seg_end - cursor) / eng.scan_step)))
        grid = np.linspace(cursor, seg_end, count + 1)[1:]
        hits = np.flatnonzero(fires(grid, j)) if eng.sched.caps[j] > 0 else []
        if len(hits):
            hit = hits[0]
            lo = cursor if hit == 0 else float(grid[hit - 1])
            lo, _ = scalar_bisect(lambda t: bool(fires(t, j)), lo, float(grid[hit]), _TIME_TOL)
            return lo, j
        cursor = seg_end
    return None


class TestLocateCrossing:
    """``_Engine._locate_fire`` on sec6 from chosen states at chosen times."""

    @staticmethod
    def engine_with_error(engine, step):
        eng = copy.copy(engine)
        eng.enc = initial_state(np.zeros(2), step)
        return eng

    def test_within_first_step(self, blackout_engine):
        # sec6 first fires near 2.1 ms; a 10 ms scan step brackets it in step one.
        coarse = copy.copy(blackout_engine)
        coarse.scan_step = 0.01
        t, j = coarse._locate_fire(0.0)
        assert j == 0
        assert 0.0 < t < 0.01
        assert t == pytest.approx(blackout_engine._locate_fire(0.0)[0], abs=2e-9)

    def test_true_at_start(self, blackout_engine):
        assert self.engine_with_error(blackout_engine, 50.0)._locate_fire(0.0) == (0.0, 0)

    def test_right_limit_fires_at_breakpoint(self, blackout_engine):
        # Slot 0's planned bits are gone just before 2.44, so the rule is off
        # there and at 2.44 itself; under slot 1's values it fires, and the
        # send is nudged just inside slot 1.
        eng = self.engine_with_error(blackout_engine, 50.0)
        t, j = eng._locate_fire(2.44 - 1e-4)
        assert j == 1
        assert t == pytest.approx(2.44 + 1e-9, abs=1e-15)

    def test_none_when_no_crossing(self, blackout_engine):
        eng = self.engine_with_error(blackout_engine, 0.0)
        eng.x_aug = np.zeros(4)
        assert eng._locate_fire(0.0) is None

    def test_refinement_under_scan_halving(self, blackout_engine):
        fine = copy.copy(blackout_engine)
        fine.scan_step = blackout_engine.scan_step / 2
        t1, _ = blackout_engine._locate_fire(0.0)
        t2, _ = fine._locate_fire(0.0)
        assert abs(t1 - t2) <= 2e-9


class TestChunkedScan:
    """The chunked fire scan against a whole-slot scan, and the work it does.

    From the initial state the rule fires after 13 grid points; with no
    error bound and a zero estimate it fires at 36.1 ms, which a finer
    step or a nearer horizon places after three doublings or inside a
    last, partial chunk; from the zero state it never fires.
    """

    CASES = {
        # name: (error bound or None to keep it, scan step, horizon, zero state)
        "first_chunk": (None, None, None, False),
        "after_doublings": (0.0, 36.12e-3 / 2000, 0.5, False),
        "last_partial_chunk": (0.0, 4e-5, 0.04, False),
        "no_fire": (0.0, None, None, True),
    }

    @classmethod
    def engine(cls, request, channel, case):
        de, step, horizon, zero = cls.CASES[case]
        eng = copy.copy(request.getfixturevalue(f"{channel}_engine"))
        if de is not None:
            eng.enc = initial_state(np.zeros(2), de)
        if step is not None:
            eng.scan_step = step
        if horizon is not None:
            eng.horizon = horizon
        if zero:
            eng.x_aug = np.zeros(4)
        return eng

    @staticmethod
    def counted_scans(monkeypatch, scan_chunks):
        """Record the chunks of every scan ``_locate_fire`` hands to ``first_crossing``."""
        scan = sim.first_crossing
        monkeypatch.setattr(sim, "first_crossing",
                            lambda pred, *args: scan(scan_chunks.counted(pred), *args))
        return scan_chunks.calls

    @pytest.mark.parametrize("channel", ["blackout", "clear_channel"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_whole_slot_scan(self, request, monkeypatch, scan_chunks, channel, case):
        eng = self.engine(request, channel, case)
        calls = self.counted_scans(monkeypatch, scan_chunks)
        found = eng._locate_fire(0.0)
        assert found == whole_slot_locate_fire(eng, 0.0)
        assert (found is None) == (case == "no_fire")
        hit_chunk = {"first_chunk": 0, "after_doublings": 3, "last_partial_chunk": 2}.get(case)
        if hit_chunk is not None:
            sizes = [size for size, _ in calls]
            assert len(calls) == hit_chunk + 1 and calls[-1][1] is not None
            assert sizes == [_SCAN_CHUNK * 2 ** k for k in range(hit_chunk)] + sizes[-1:]
        if case == "last_partial_chunk":
            assert calls[-1][0] < _SCAN_CHUNK * 2 ** hit_chunk

    @pytest.mark.parametrize("channel", ["blackout", "clear_channel"])
    @pytest.mark.parametrize("case", ["first_chunk", "after_doublings", "last_partial_chunk"])
    def test_work_bounded_by_first_hit(self, request, monkeypatch, scan_chunks, channel, case):
        eng = self.engine(request, channel, case)
        calls = self.counted_scans(monkeypatch, scan_chunks)
        assert eng._locate_fire(0.0) is not None
        evaluated = sum(size for size, _ in calls)
        hit = evaluated - calls[-1][0] + calls[-1][1]
        assert calls[0][0] <= _SCAN_CHUNK <= 1024  # the first chunk is a few hundred points
        assert evaluated <= 2 * (hit + 1) + _SCAN_CHUNK


class TestEquilibrium:
    def test_origin_never_transmits(self, ref_plant):
        plant = ref_plant.with_vd0(1.0)
        sched = ChannelSchedule(theta=[0.0, 2.0, 4.0], rates=[3000.0, 3000.0],
                                caps=[8, 8], n=2)
        scn = Scenario(plant=plant, schedule=sched,
                       trigger=TriggerConfig(lookahead=resolve_lookahead(plant, 0.1),
                                             sigma=0.06, sigma1=0.8),
                       mode="no_blackout", x0=np.zeros(2), x_hat0=np.zeros(2),
                       d_e0=0.0, horizon=4.0, sample_step=0.05)
        trace = run(scn)
        assert not trace.transmissions
        assert np.all(trace.V == 0.0)
        assert np.all(trace.V <= trace.Vd)


class TestClearChannelRun:
    def test_safety_and_progress(self, clear_channel_trace):
        trace = clear_channel_trace
        assert np.all(trace.h_pf <= 1.0)
        assert trace.stats["transmission_count"] > 0
        assert trace.stats["min_intertransmission"] > 0.0

    def test_codec_soundness_along_trace(self, clear_channel_trace):
        err = np.max(np.abs(clear_channel_trace.x - clear_channel_trace.x_hat), axis=1)
        assert np.all(err <= clear_channel_trace.d_e * (1 + 1e-9) + 1e-300)

    def test_updates_equal_receptions(self, clear_channel_trace):
        for tx in clear_channel_trace.transmissions:
            assert tx.r_tilde_k == tx.r_k

    def test_min_bits_policy_sends_fewer(self):
        lean = run(no_blackout_scenario(packet_policy="min_bits"))
        for tx in lean.transmissions:
            assert 1 <= tx.p_k <= 8
        assert any(tx.p_k < 8 for tx in lean.transmissions)


class TestBlackoutRun:
    def test_safety(self, blackout_trace):
        assert np.all(blackout_trace.h_pf <= 1.0)

    def test_codec_soundness(self, blackout_trace):
        err = np.max(np.abs(blackout_trace.x - blackout_trace.x_hat), axis=1)
        assert np.all(err <= blackout_trace.d_e * (1 + 1e-9) + 1e-300)

    def test_no_transmission_in_blackouts(self, blackout_scn, blackout_trace):
        sched = blackout_scn.schedule
        for tx in blackout_trace.transmissions:
            j = sched.slot_index(tx.t_k)
            assert sched.caps[j] >= 1
            assert tx.p_k <= blackout_scn.rule.psi(tx.t_k, j)

    def test_update_gaps_strictly_positive(self, blackout_trace):
        updates = [tx.r_tilde_k for tx in blackout_trace.transmissions]
        assert all(b > a for a, b in zip(updates, updates[1:]))
        gaps = [tx.t_k for tx in blackout_trace.transmissions]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_packets_respect_artificial_bound(self, blackout_scn, blackout_trace):
        for tx in blackout_trace.transmissions:
            j = blackout_scn.schedule.slot_index(tx.t_k)
            assert 1 <= tx.p_k <= blackout_scn.rule.psi(tx.t_k, j)

    def test_blackout_entry_margins(self, blackout_scn, blackout_trace):
        plant = blackout_scn.plant
        sched = blackout_scn.schedule
        for b in sched.blackout_slots():
            tau_l = float(sched.theta[b])
            tau_u = float(sched.theta[b + 1])
            if tau_l >= blackout_trace.horizon:
                continue
            margin = blackout_entry_margin(plant, tau_u - tau_l)
            idx = np.flatnonzero(blackout_trace.t == tau_l)
            assert idx.size > 0
            assert blackout_trace.eps[idx[-1]] <= margin
            idx_u = np.flatnonzero(blackout_trace.t == tau_u)
            assert idx_u.size > 0
            assert blackout_trace.h_ch[idx_u[-1]] <= 1.0

    def test_capacity_floor_drops_at_most_sent_bits(self, blackout_scn, blackout_trace):
        sched = blackout_scn.schedule
        planner = CapacityPlanner(sched)
        n = sched.n
        for tx in blackout_trace.transmissions:
            j_tx = sched.slot_index(tx.t_k)
            if planner.plan_for_slot(j_tx).plan is None:
                continue
            j_up = sched.slot_index(tx.r_tilde_k) if tx.r_tilde_k > 0 else j_tx
            plan_up = planner.plan_for_slot(j_up).plan
            if plan_up is None:
                continue
            before = realtime_bound(planner.plan_for_slot(j_tx).plan, tx.t_k)
            after = realtime_bound(plan_up, tx.r_tilde_k)
            assert after >= before - n * tx.p_k - 1e-9

    def test_logged_deficit_matches_recomputation(self, blackout_scn, blackout_trace):
        # Rebuild the capacity-deficit column at mid-run samples from the
        # trace's own quantities plus the schedule.
        plant = blackout_scn.plant
        sched = blackout_scn.schedule
        n = sched.n
        mu_inf = plant.constants.growth_rate_inf
        for idx in range(40, blackout_trace.t.size, 97):
            t = float(blackout_trace.t[idx])
            if t <= 0 or t >= blackout_trace.horizon:
                continue
            j = sched.slot_index(t)
            b = sched.next_blackout_slot(j)
            logged = blackout_trace.l3[idx]
            if b is None:
                assert logged == -math.inf
                continue
            tau_l = float(sched.theta[b])
            length = float(sched.theta[b + 1] - sched.theta[b])
            eps = blackout_trace.eps[idx]
            margin = blackout_entry_margin(plant, length)
            needed = n * (mu_inf * (tau_l - t) / math.log(2.0)
                          + math.log2(eps / margin))
            want = needed - 0.8 * blackout_trace.s_hat[idx]
            assert logged == pytest.approx(want, rel=1e-9)

    def test_partial_delay_factor_stays_safe(self, blackout_scn):
        quick = run(dataclasses.replace(blackout_scn, delay_factor=0.5,
                                        sample_step=0.05))
        assert np.all(quick.h_pf <= 1.0)
        for tx in quick.transmissions:
            assert tx.r_k - tx.t_k <= blackout_scn.schedule.max_delay(tx.t_k, tx.p_k)

    def test_audited_packets_drive_a_fresh_decoder(self, blackout_scn, blackout_trace):
        # Replaying the recorded packet stream through a fresh replica must
        # reproduce the trace's estimate at every update time.
        from etcsim.codec import Packet, decode_and_update, initial_state
        replica = initial_state(blackout_scn.x_hat0, blackout_scn.d_e0)
        for tx in blackout_trace.transmissions:
            pkt = Packet(t_k=tx.t_k, p_k=tx.p_k, symbols=tx.symbols)
            replica = decode_and_update(blackout_scn.plant, pkt, replica, tx.r_tilde_k)
            row = np.flatnonzero(blackout_trace.t == tx.r_tilde_k)[-1]
            assert np.array_equal(blackout_trace.x_hat[row], replica.x_hat)

    def test_deterministic_replay(self, blackout_scn, blackout_trace):
        again = run(blackout_scn)
        assert np.array_equal(again.t, blackout_trace.t)
        assert np.array_equal(again.x, blackout_trace.x)
        assert np.array_equal(again.x_hat, blackout_trace.x_hat)
        assert [tx.t_k for tx in again.transmissions] == [
            tx.t_k for tx in blackout_trace.transmissions]


class TestRecorderOracle:
    """Every trace row against a scalar recomputation from its t, x and d_e."""

    COLUMNS = ("V", "Vd", "h_pf", "eps", "h_ch", "phi", "psi", "s_hat", "l3")

    @staticmethod
    def scalar_rows(scn, trace):
        plant, sched = scn.plant, scn.schedule
        planner = CapacityPlanner(sched) if scn.mode == "blackout" else None
        rows = []
        for t, x, de in zip(trace.t.tolist(), trace.x, trace.d_e.tolist()):
            v = float(x @ plant.P @ x)
            vd = plant.vd0 * math.exp(-plant.beta * t)
            h = v / vd
            eps = de / (plant.constants.error_scale * math.sqrt(vd))
            h_ch = eps / float(error_threshold(plant, scn.trigger.lookahead, h))
            if planner is None:
                cap_cols = (math.nan,) * 4
            else:
                j = sched.slot_at(t)
                plan = planner.plan_for_slot(j).plan
                if plan is None:
                    planned, floor = math.inf, math.inf
                else:
                    first = plan.problem
                    left = plan.phi[0] - first.rates[0] * (t - first.theta[0])
                    planned = max(0.0, math.floor(left + 1e-9))
                    floor = float(realtime_bound(plan, t))
                cap_cols = (planned, min(float(sched.caps[j]), planned), floor,
                            float(scn.rule.l3(t, eps, j)))
            rows.append((v, vd, h, eps, h_ch) + cap_cols)
        return np.array(rows)

    @pytest.mark.parametrize("name", ["blackout", "clear_channel"])
    def test_rows_match_scalar_oracle(self, request, name):
        scn = request.getfixturevalue(f"{name}_scn")
        trace = request.getfixturevalue(f"{name}_trace")
        want = self.scalar_rows(scn, trace)
        got = np.column_stack([getattr(trace, c) for c in self.COLUMNS])
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.all(np.isnan(got[:, 5:])) == (scn.mode != "blackout")
        for k, column in enumerate(self.COLUMNS):
            np.testing.assert_allclose(got[:, k], want[:, k], rtol=1e-12, atol=0,
                                       err_msg=column)


class TestRecorderChecks:
    """The recorder raises at the earliest bad row, checking h <= 1 first in each row."""

    OK, ERR_BAD, BOTH_BAD = [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [100.0, 100.0, 0.0, 0.0]

    @staticmethod
    def record(engine, xs, des):
        eng = copy.copy(engine)
        eng.rows = []
        ts = np.array([0.1, 0.2, 0.3][:len(xs)])
        try:
            eng._record(ts, np.array(xs), np.array(des))
        finally:
            assert eng.rows == []

    def test_earliest_row_wins(self, blackout_engine):
        with pytest.raises(InvariantBreachError, match="t=0.2"):
            self.record(blackout_engine, [self.OK, self.ERR_BAD, self.BOTH_BAD], [1.0, 0.5, 1.0])

    def test_performance_checked_before_error(self, blackout_engine):
        with pytest.raises(ObjectiveViolationError, match="t=0.2"):
            self.record(blackout_engine, [self.OK, self.BOTH_BAD], [1.0, 1.0])


class TestAdmissibility:
    def test_reference_scenario_passes(self, blackout_scn):
        assert check_admissibility(blackout_scn).ok

    def test_slow_channel_fails_with_witnesses(self, ref_plant):
        plant = ref_plant
        sched = ChannelSchedule(theta=[0.0, 5.0, 10.0], rates=[100.0, 100.0],
                                caps=[8, 8], n=2)
        scn = Scenario(plant=plant, schedule=sched,
                       trigger=TriggerConfig(lookahead=resolve_lookahead(plant, 0.1),
                                             sigma=0.06, sigma1=0.8),
                       mode="no_blackout", x0=np.array([6.0, -4.0]),
                       x_hat0=np.zeros(2), d_e0=9.0, horizon=10.0)
        report = check_admissibility(scn)
        rate_check = next(c for c in report.conditions if c.name == "rate_supports_delays")
        assert not rate_check.ok
        assert rate_check.witnesses
        with pytest.raises(AdmissibilityError):
            run(scn)

    def test_oversized_blackout_fails_capacity_check(self, ref_plant):
        plant = ref_plant
        # A sliver of usable time between two long blackouts cannot absorb
        # a unit error before the second one.
        sched = ChannelSchedule(
            theta=[0.0, 1.0, 3.0, 3.005, 5.005, 6.0],
            rates=[2000.0, 2000.0, 2000.0, 2000.0, 2000.0],
            caps=[1, 0, 1, 0, 1], n=2)
        scn = Scenario(plant=plant, schedule=sched,
                       trigger=TriggerConfig(lookahead=resolve_lookahead(plant, 0.1),
                                             sigma=0.06, sigma1=0.8),
                       mode="blackout", x0=np.array([0.1, 0.1]),
                       x_hat0=np.zeros(2), d_e0=0.5, horizon=6.0)
        report = check_admissibility(scn)
        blackout_check = next(c for c in report.conditions if c.name == "blackout_capacity")
        assert not blackout_check.ok
        assert blackout_check.witnesses[0][0] == 1  # the first blackout slot index

    def test_no_bit_at_t0_fails_initial_triggers(self, ref_plant):
        plant = ref_plant
        # Slot 0 carries 0.6 bits at R = 3000, and the plan moves every bit to slot 1,
        # so psi(0) = 0: the rule is off at t0 and no packet could fit.
        sched = ChannelSchedule(theta=[0.0, 0.0002, 1.0, 2.0, 3.0],
                                rates=[3000.0] * 4, caps=[8, 8, 0, 8], n=2)
        scn = Scenario(plant=plant, schedule=sched,
                       trigger=TriggerConfig(lookahead=resolve_lookahead(plant, 0.1),
                                             sigma=0.06, sigma1=0.8),
                       mode="blackout", x0=np.array([0.1, 0.1]),
                       x_hat0=np.zeros(2), d_e0=0.5, horizon=3.0)
        report = check_admissibility(scn)
        check = next(c for c in report.conditions if c.name == "initial_triggers")
        assert not check.ok
        assert check.witnesses == ((0.0, 0),)


class TestScenarioValidation:
    def test_initial_bound_must_dominate_error(self, blackout_scn):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(blackout_scn, d_e0=1.0)

    def test_horizon_must_fit_schedule(self, blackout_scn):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(blackout_scn, horizon=25.0)

    def test_dimension_mismatch_rejected(self, blackout_scn):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(blackout_scn, x0=np.zeros(3))


class TestStats:
    def test_no_transmission_stats(self, ref_plant):
        plant = ref_plant.with_vd0(1.0)
        sched = ChannelSchedule(theta=[0.0, 2.0], rates=[3000.0], caps=[8], n=2)
        scn = Scenario(plant=plant, schedule=sched,
                       trigger=TriggerConfig(lookahead=resolve_lookahead(plant, 0.1),
                                             sigma=0.06, sigma1=0.8),
                       mode="no_blackout", x0=np.zeros(2), x_hat0=np.zeros(2),
                       d_e0=0.0, horizon=2.0, sample_step=0.1)
        stats = run(scn).stats
        assert stats["transmission_count"] == 0
        assert stats["mean_intertransmission"] is None
        assert stats["min_intertransmission"] is None

    def test_interval_arithmetic(self, blackout_trace):
        times = [tx.t_k for tx in blackout_trace.transmissions]
        gaps = np.diff(times)
        assert blackout_trace.stats["mean_intertransmission"] == pytest.approx(
            float(np.mean(gaps)))
        assert blackout_trace.stats["min_intertransmission"] == pytest.approx(
            float(np.min(gaps)))
        total = 2 * sum(tx.p_k for tx in blackout_trace.transmissions)
        assert blackout_trace.stats["bits_per_unit_time"] == pytest.approx(total / 20.0)

    def test_bits_per_window_partition(self, blackout_trace):
        assert sum(blackout_trace.stats["bits_per_window"]) == blackout_trace.stats[
            "total_bits"]
