import copy
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from conftest import (SCENARIOS, SHEAR_PLANT, check_invariants, lqr_gain, rescaled_sec6,
                      scalar_bisect, slotted_document)

from etcsim import sim
from etcsim.capacity import launch_budget, slot_plans
from etcsim.channel import ChannelSchedule, TransmissionRecord
from etcsim.codec import CHECK_SLACK, initial_state
from etcsim.errors import (
    AdmissibilityError,
    ConfigurationError,
    GuaranteeBreachError,
    InvariantBreachError,
    ObjectiveViolationError,
)
from etcsim.scenario import build_scenario, load_scenario
from etcsim.sim import _NUDGE, Scenario, _Engine, check_admissibility, run
from etcsim.triggers import (
    _NODE_CHUNK,
    _NODE_STRIDE,
    _OPEN_CHUNK,
    ROOT_TOL,
    TriggerConfig,
    blackout_entry_margin,
    error_threshold,
    perf_bound,
)


def whole_slot_locate_fire(eng, t_start):
    """Reference for ``_Engine._locate_fire``: each slot's grid scanned in one array."""
    anchor_x = eng.x_aug.copy()

    def fires(ts, j):
        xs = eng.exp_block.flow(anchor_x)(np.subtract(ts, t_start))
        h, eps = eng.rule.ratios(ts, xs, eng.enc.d_e(eng.plant, ts))
        return eng.rule.fires(ts, h, eps, j)

    cursor = t_start
    while cursor < eng.horizon - ROOT_TOL:
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
            lo, _ = scalar_bisect(lambda t: bool(fires(t, j)), lo, float(grid[hit]), ROOT_TOL)
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

    def test_right_limit_fires_at_breakpoint_under_the_old_slot(self):
        # clear10 with slot 1's cap cut to 2: l2 at T_M(2) is about 60 times l2 at T_M(8).
        # From h = 0.1 and eps = 4000 at the breakpoint 5.0, l2 reaches 1 only under slot
        # 1's values; slot 0's gate is still on, so the send is at 5.0 under slot 0's values.
        doc = json.loads((SCENARIOS / "clear10.json").read_text())
        doc["channel"]["slots"][1]["pi_bar"] = 2
        scn = build_scenario(doc)
        plant, rule, t = scn.plant, scn.rule, 5.0
        vd = plant.desired_performance(t)
        x = np.array([1.0, 0.0]) * math.sqrt(0.1 * vd / plant.P[0, 0])
        eng = _Engine(scn)
        eng.x_aug = np.concatenate([x, x])
        eng.enc = initial_state(x, 4000.0 * plant.constants.error_scale * math.sqrt(vd), t)
        h, eps = rule.ratios(t, eng.x_aug, eng.enc.d_e(plant, t))
        assert h == pytest.approx(0.1) and eps == pytest.approx(4000.0)
        assert not rule.fires(t, h, eps, 0) and rule.fires(t, h, eps, 1)
        assert eng._locate_fire(t) == (t, 0)
        pkt, r, _, _ = eng._fire(t, 0)
        assert scn.schedule.caps[1] < pkt.p_k <= scn.schedule.caps[0]
        TransmissionRecord(t_k=t, p_k=pkt.p_k, r_k=r, r_tilde_k=r).validate(scn.schedule)

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


class TestSearchMemory:
    def test_search_reads_the_slot_grid_lazily(self, clear_channel_scn):
        # The clear channel stretched to two 30 s slots, as the clear60 benchmark workload: a
        # slot's scan grid has about 190k points, 1.5 MB as floats.  The search from t = 0
        # finds its crossing within the first few points and reads little more.
        sched = ChannelSchedule(theta=[0.0, 30.0, 60.0], rates=[2400.0, 2400.0], caps=[8, 8],
                                n=2)
        eng = _Engine(dataclasses.replace(clear_channel_scn, schedule=sched, horizon=60.0))
        whole = 8 * (math.ceil(30.0 / eng.scan_step) + 1)
        assert whole > 1.5e6
        eng._locate_fire(0.0)  # numpy's first calls set up state of their own
        tracemalloc.start()
        try:
            found = eng._locate_fire(0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found is not None and found[0] < 0.01
        assert peak < whole / 4


class TestChunkedScan:
    """The certified fire scan against a whole-slot scan, and the work it does.

    From the initial state the rule fires after 13 grid points, at 2.117 ms;
    at a 50 ns step the hit lies in the fourth chunk of nodes (stretches
    448-959), a full chunk with a 4 ms horizon and a last, partial one with
    2.2 ms.  From the zero state, with no error bound, it never fires.  The
    plain scan's chunks are checked in ``test_triggers.py``.
    """

    CASES = {
        # name: (error bound or None to keep it, scan step, horizon, zero state)
        "first_chunk": (None, None, None, False),
        "certified_after_doublings": (None, 5e-8, 4e-3, False),
        "certified_last_partial_chunk": (None, 5e-8, 2.2e-3, False),
        "no_fire": (0.0, None, None, True),
    }
    # The chunk of nodes that holds the first hit.
    HIT_CHUNK = {"first_chunk": 0, "certified_after_doublings": 3,
                 "certified_last_partial_chunk": 3}

    @classmethod
    def engine(cls, request, channel, case):
        de, step, horizon, zero = cls.CASES[case]
        eng = copy.copy(request.getfixturevalue(f"{channel}_engine"))
        eng.work = dict.fromkeys(eng.work, 0)
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
        """Record the chunks of every scan ``_locate_fire`` hands to ``first_crossing``,
        and the chunks of stretches its certificate judges."""
        scan = sim.first_crossing

        def counted(pred, start, stop, count, tol, quiet):
            return scan(scan_chunks.counted(pred), start, stop, count, tol,
                        scan_chunks.judging(quiet))

        monkeypatch.setattr(sim, "first_crossing", counted)
        return scan_chunks

    @pytest.mark.parametrize("channel", ["blackout", "clear_channel"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_whole_slot_scan(self, request, monkeypatch, scan_chunks, channel, case):
        eng = self.engine(request, channel, case)
        chunks = self.counted_scans(monkeypatch, scan_chunks)
        found = eng._locate_fire(0.0)
        assert found == whole_slot_locate_fire(eng, 0.0)
        assert (found is None) == (case == "no_fire")
        assert chunks.judged
        sizes = [size for size, _ in chunks.judged]
        hit_chunk = self.HIT_CHUNK.get(case)
        if hit_chunk is not None:
            assert len(sizes) == hit_chunk + 1 and chunks.calls[-1][1] is not None
            assert sizes == [_NODE_CHUNK * 2 ** k for k in range(hit_chunk)] + sizes[-1:]
        if case.endswith("last_partial_chunk"):
            assert sizes[-1] < _NODE_CHUNK * 2 ** hit_chunk
        if case.startswith("certified"):
            # Far from the crossing the certificate skips whole stretches.
            assert sum(size - idx.size for size, idx in chunks.judged) >= 600

    @pytest.mark.parametrize("channel", ["blackout", "clear_channel"])
    @pytest.mark.parametrize("case", [case for case in CASES if case != "no_fire"])
    def test_work_bounded_by_first_hit(self, request, monkeypatch, scan_chunks, channel, case):
        eng = self.engine(request, channel, case)
        chunks = self.counted_scans(monkeypatch, scan_chunks)
        assert eng._locate_fire(0.0) is not None
        calls = chunks.calls
        evaluated = sum(size for size, _ in calls)
        hit = evaluated - calls[-1][0] + calls[-1][1]
        # The points evaluated are those of the open stretches, in order.
        offsets = np.cumsum([0] + [size for size, _ in chunks.judged])
        open_ = np.concatenate([off + idx for off, (_, idx) in zip(offsets, chunks.judged)])
        assert offsets[-1] <= 2 * (open_[hit // _NODE_STRIDE] + 1) + _NODE_CHUNK
        first = _OPEN_CHUNK * _NODE_STRIDE
        assert calls[0][0] <= first <= 1024  # the first chunk is at most a thousand points
        assert evaluated <= 2 * (hit + 1) + first


def jordan_scenario():
    """A defective plant, ``A = [[1, 1], [0, 1]]``, on a clear channel of four 1 s slots."""
    return build_scenario({
        "plant": {"A": [[1, 1], [0, 1]], "B": [[0], [1]], "K": [[-9, -6]],
                  "Q": [[1, 0], [0, 1]], "a": 1.2, "beta_fraction": 0.8, "Vd0_factor": 2.0},
        "channel": {"n": 2, "slots": [{"theta_start": lo, "theta_end": lo + 1.0,
                                       "R": 2400, "pi_bar": 8} for lo in range(4)]},
        "trigger": {"T_fraction_of_gamma1": 0.1, "sigma": 0.06, "sigma1": 0.8},
        "sim": {"mode": "no_blackout", "x0": [6, -4], "xhat0": [0, 0], "de0_factor": 1.5,
                "horizon": 4.0, "sample_step": 0.01},
    })


class TestCertificate:
    """``EventRule.quiet`` against the rule at every grid point of every fire search of a run."""

    SCENARIOS = {
        "sec6": lambda: build_scenario(rescaled_sec6(1)),
        "sec6_rates_x3": lambda: build_scenario(rescaled_sec6(3)),
        "sec6_rates_x10": lambda: build_scenario(rescaled_sec6(10)),
        "clear10": lambda: load_scenario(SCENARIOS / "clear10.json")[0],
        "jordan": jordan_scenario,
        # mu above mu_inf: the h bound grows at mu_inf, the rule's l1 at mu
        "shear": lambda: build_scenario(slotted_document(
            *SHEAR_PLANT, lqr_gain(*SHEAR_PLANT), [0.0, 2.0, 4.0], [20000.0] * 2, [8, 8],
            [1.0, -1.0], 0.8)),
    }

    @pytest.mark.parametrize("name", ["blackout", "clear_channel"])
    def test_bounds_the_comparison_trajectory(self, request, rng, name):
        # Along (a, b] the ratios stay below the comparison system's worst case: eps
        # growing at mu_inf, and h following perf_bound at that rate.  Each
        # sample's eps is pushed to the largest value quiet still certifies (quiet only
        # grows stricter with eps), and there the rule read at the worst case must stay
        # quiet.  The worst case starts from eps raised by the codec's slack, as a fire
        # search starts at a recorded row, whose error may exceed d_e by that much.  Half
        # the stretches lie where slot 0's packet bound psi drops (at 2.437 s on sec6,
        # where the plan still holds slot 1's bits, so l3 stays low).
        rule = request.getfixturevalue(f"{name}_rule")
        plant, sched = rule.plant, rule.sched
        c = plant.constants
        j = 0
        lo, hi = float(sched.theta[j]), float(sched.theta[j + 1])
        ts = np.linspace(lo, hi, 200001)
        below_cap = ts[rule.psi(ts, j) < sched.caps[j]]
        drop = below_cap[0] if below_cap.size else 0.5 * (lo + hi)
        count = 2000
        a = np.where(rng.random(count) < 0.5, rng.uniform(lo, hi - 0.05, count),
                     rng.uniform(drop - 0.05, drop, count))
        b = np.minimum(a + rng.choice([1e-4, 1e-3, 1e-2, 5e-2], count), hi)
        h = 1.0 - 10.0 ** rng.uniform(-5.0, 0.0, count)
        log_lo, log_hi = np.full(count, -12.0), np.full(count, 6.0)
        for _ in range(50):
            mid = 0.5 * (log_lo + log_hi)
            certified = rule.quiet(a, h, 10.0 ** mid, b, j)
            log_lo, log_hi = np.where(certified, mid, log_lo), np.where(certified, log_hi, mid)
        eps = 10.0 ** log_lo
        certified = rule.quiet(a, h, eps, b, j)
        assert np.count_nonzero(certified) > 0.9 * count
        s = np.linspace(0.0, 1.0, 201)[:, None] * (b - a)
        eps_rec = eps * (1.0 + CHECK_SLACK)
        worst_h = perf_bound(plant, s, h, eps_rec, c.growth_rate_inf)
        worst_eps = eps_rec * np.exp(c.growth_rate_inf * s)
        _, l1, l2, l3 = rule.terms(a + s, worst_h, worst_eps, j)
        quiet = np.all((worst_h < 1.0) & (l1 < 1.0) & (l2 < 1.0) & (l3 < 0.0), axis=0)
        assert not np.any(certified & ~quiet)

    @pytest.mark.parametrize("name", ["blackout", "clear_channel"])
    def test_margin_absorbs_rounding(self, request, name):
        # With eps = 0 the bounds are h itself, so only the margin keeps a stretch from
        # being certified when h is within it of 1.
        rule = request.getfixturevalue(f"{name}_rule")
        a = np.full(2, 0.1)
        h = np.array([1.0 - 2.0 * sim._CERT_MARGIN, 1.0 - 0.5 * sim._CERT_MARGIN])
        assert rule.quiet(a, h, np.zeros(2), a + 1e-3, 0).tolist() == [True, False]

    @pytest.mark.parametrize("name", ["blackout", "clear_channel"])
    def test_certifies_a_vanishing_stretch_where_the_rule_is_clear(self, request, name):
        # Over (t, t + 1e-12] the bounds are the rule read at t, but for _CERT_MARGIN, so
        # at every recorded row where the gate is open and the rule is clear of its
        # thresholds by more than that, quiet certifies.  A bound looser than the rule
        # failed at sec6 t = 1.96, where max(l1, l2) is 0.9922.
        scn = request.getfixturevalue(f"{name}_scn")
        trace = request.getfixturevalue(f"{name}_trace")
        rule, sched = scn.rule, scn.schedule
        rows = np.flatnonzero(trace.t < sched.end)
        js = np.array([sched.right_slot_index(t) for t in trace.t[rows]])
        checked = 0
        for j in np.unique(js):
            t, h, eps = (col[rows[js == j]] for col in (trace.t, trace.h_pf, trace.eps))
            gate, l1, l2, l3 = np.broadcast_arrays(*rule.terms(t, h, eps, j), t)[:4]
            clear = gate & (l3 < 0.0) & (np.maximum(l1, l2) <= 1.0 - 1e-4)
            if not clear.any():  # a blackout
                continue
            certified = rule.quiet(t[clear], h[clear], eps[clear], t[clear] + 1e-12, j)
            assert np.all(certified), t[clear][~certified][:3]
            checked += int(np.count_nonzero(clear))
        assert checked > 0.5 * rows.size

    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_no_certified_point_fires(self, monkeypatch, name):
        scan = sim.first_crossing
        seen = {"certified": 0, "fired": 0}

        def checked(pred, start, stop, count, tol, quiet):
            points = np.linspace(start, stop, count + 1)[1:]  # the slot's grid, every point
            # Stretch i holds grid points i S .. (i + 1) S - 1 and starts at the point before.
            ends = np.minimum(np.arange(_NODE_STRIDE, points.size + _NODE_STRIDE,
                                        _NODE_STRIDE), points.size) - 1
            certified = np.repeat(quiet(np.r_[start, points[ends]]), np.diff(np.r_[-1, ends]))
            fired = pred(points)
            assert not np.any(fired & certified), points[fired & certified][:3]
            seen["certified"] += int(np.count_nonzero(certified))
            seen["fired"] += int(np.count_nonzero(fired))
            return scan(pred, start, stop, count, tol, quiet)

        monkeypatch.setattr(sim, "first_crossing", checked)
        scn = self.SCENARIOS[name]()
        if name == "sec6_rates_x10":
            # Its l3 firings fall between grid points, so a blackout starts above its margin.
            with pytest.raises(GuaranteeBreachError):
                run(scn)
        else:
            run(scn)
        assert seen["certified"] > 0 and seen["fired"] > 0


class TestEquilibrium:
    def test_origin_never_transmits(self, ref_plant):
        plant = ref_plant.with_vd0(1.0)
        sched = ChannelSchedule(theta=[0.0, 2.0, 4.0], rates=[3000.0, 3000.0],
                                caps=[8, 8], n=2)
        scn = Scenario(plant=plant, schedule=sched,
                       trigger=TriggerConfig(lookahead=0.1 * plant.gamma1,
                                             sigma=0.06, sigma1=0.8),
                       x0=np.zeros(2), x_hat0=np.zeros(2),
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

    def test_sample_on_a_breakpoint_is_one_row(self, clear_channel_trace):
        # Sample 500 of the 0.01 grid is the breakpoint 5.0 itself, and no update is there.
        t = clear_channel_trace.t
        assert 500 * 0.01 == 5.0 and not any(tx.r_tilde_k == 5.0
                                             for tx in clear_channel_trace.transmissions)
        assert np.count_nonzero(t == 5.0) == 1
        assert np.all(np.diff(t) >= 0.0)

    def test_min_bits_policy_sends_fewer(self, clear_channel_scn):
        lean = run(dataclasses.replace(clear_channel_scn, packet_policy="min_bits"))
        for tx in lean.transmissions:
            assert 1 <= tx.p_k <= 8
        assert any(tx.p_k < 8 for tx in lean.transmissions)


class TestRunEnds:
    """Runs whose horizon falls inside a transmission, and a run on a fallback plan."""

    @staticmethod
    def counting(monkeypatch, name):
        """The ``(args, result)`` of each call of the engine method ``name``, as it runs."""
        calls = []
        method = getattr(_Engine, name)

        def counted(self, *args):
            out = method(self, *args)
            calls.append((args, out))
            return out

        monkeypatch.setattr(_Engine, name, counted)
        return calls

    def test_reception_at_the_horizon_is_not_logged(self, monkeypatch):
        # The second packet's reception, 1.9635, lands past the horizon.
        doc = json.loads((SCENARIOS / "clear10.json").read_text())
        doc["sim"]["horizon"] = 1.961817
        scn = build_scenario(doc)
        fired = self.counting(monkeypatch, "_fire")
        trace = run(scn)
        assert len(fired) == 2 and len(trace.transmissions) == 1
        assert fired[1][1][1] > scn.horizon  # its reception time
        assert trace.transmissions[0].t_k == fired[0][0][0]
        assert trace.t[-1] == scn.horizon
        check_invariants(scn, trace)

    def test_update_waiting_past_the_horizon_is_not_logged(self, monkeypatch):
        # sec6 with slot 1 at R = 3401: its plan's 8298 bits run out at 4.87987, before the
        # blackout at 4.88, so the last burst packet's update waits for 4.88.  The horizon
        # lies between, so the update walk stops at the horizon.  On the shipped sec6 the
        # bits run out at 4.88 itself, within the fire search's 1e-9 of the reception.
        doc = json.loads((SCENARIOS / "sec6.json").read_text())
        doc["channel"]["slots"][1]["R"] = 3401
        doc["sim"]["horizon"] = 4.87995
        scn = build_scenario(doc)
        updates = self.counting(monkeypatch, "_locate_update")
        fired = self.counting(monkeypatch, "_fire")
        trace = run(scn)
        (r,), r_tilde = updates[-1]
        assert r < scn.horizon - ROOT_TOL and r_tilde == scn.horizon
        assert scn.rule.psi(r, 1) == 0
        assert len(fired) == 7 and len(trace.transmissions) == 6
        check_invariants(scn, trace)

    def test_fallback_plan_in_a_run(self):
        # sec6 with slot 0 split at 2.438: slot 0's 8-bit spill, 8 / 3000 s, outlasts the
        # 2 ms second part, so slot 0's window takes the in-slot fallback.
        doc = json.loads((SCENARIOS / "sec6.json").read_text())
        first = doc["channel"]["slots"][0]
        doc["channel"]["slots"][0:1] = [dict(first, theta_end=2.438),
                                        dict(first, theta_start=2.438)]
        scn = build_scenario(doc)
        assert [plan.kind for plan in scn.rule.plans[:2]] == ["fallback", "lp_floor"]
        trace = run(scn)
        assert len(trace.transmissions) == 15 and trace.stats["total_bits"] == 226
        check_invariants(scn, trace)


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
        plans = slot_plans(sched)
        n = sched.n
        for tx in blackout_trace.transmissions:
            j_tx = sched.slot_index(tx.t_k)
            if plans[j_tx] is None:
                continue
            j_up = sched.slot_index(tx.r_tilde_k) if tx.r_tilde_k > 0 else j_tx
            plan_up = plans[j_up]
            if plan_up is None:
                continue
            before = launch_budget(plans[j_tx], tx.t_k)[1]
            after = launch_budget(plan_up, tx.r_tilde_k)[1]
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
            b = next((b for b in sched.blackout_slots() if b > j), None)
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
        plans = slot_plans(sched) if sched.blackout_slots() else None
        rows = []
        for t, x, de in zip(trace.t.tolist(), trace.x, trace.d_e.tolist()):
            v = float(x @ plant.P @ x)
            vd = plant.vd0 * math.exp(-plant.beta * t)
            h = v / vd
            eps = de / (plant.constants.error_scale * math.sqrt(vd))
            h_ch = eps / float(error_threshold(plant, scn.trigger.lookahead, h))
            if plans is None:
                cap_cols = (math.nan,) * 4
            else:
                j = sched.slot_at(t)
                plan = plans[j]
                if plan is None:
                    planned, floor = math.inf, math.inf
                else:
                    first = plan.problem
                    left = plan.phi[0] - first.rates[0] * (t - first.theta[0])
                    planned = max(0.0, math.floor(left + 1e-9))
                    floor = float(first.n * (planned + int(np.sum(plan.phi[1:]))))
                cap_cols = (planned, min(float(sched.caps[j]), planned), floor,
                            float(scn.rule.l3(t, eps, j, floor)))
            rows.append((v, vd, h, eps, h_ch) + cap_cols)
        return np.array(rows)

    @pytest.mark.parametrize("name", ["blackout", "clear_channel"])
    def test_rows_match_scalar_oracle(self, request, name):
        scn = request.getfixturevalue(f"{name}_scn")
        trace = request.getfixturevalue(f"{name}_trace")
        want = self.scalar_rows(scn, trace)
        got = np.column_stack([getattr(trace, c) for c in self.COLUMNS])
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.all(np.isnan(got[:, 5:])) == (not scn.schedule.blackout_slots())
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


class TestAdvanceTimes:
    """The times ``_advance`` records, against its earlier loop form."""

    @pytest.mark.parametrize("name", ["blackout", "clear_channel"])
    def test_match_the_loop_form(self, request, monkeypatch, name):
        advance, record, recorded = _Engine._advance, _Engine._record, []

        def recording(self, ts, xs, des):
            recorded.append(ts.tolist())
            return record(self, ts, xs, des)

        def checked(self, t_target, record_end=True):
            t, idx, pts = self.t, self._sample_idx, []
            while idx < self.sample_times.size and self.sample_times[idx] <= t_target + 1e-15:
                if self.sample_times[idx] > t:
                    pts.append(float(self.sample_times[idx]))
                idx += 1
            pts += [float(theta) for theta in self.sched.theta if t < theta < t_target]
            want = sorted(set(pts)) + ([t_target] if record_end and t_target > t else [])
            recorded.clear()
            advance(self, t_target, record_end)
            assert (recorded or [[]]) == [want] and self._sample_idx == idx

        monkeypatch.setattr(_Engine, "_record", recording)
        monkeypatch.setattr(_Engine, "_advance", checked)
        _Engine(request.getfixturevalue(f"{name}_scn")).run()


class TestAdmissibility:
    def test_reference_scenario_passes(self, blackout_scn):
        assert check_admissibility(blackout_scn).ok

    @staticmethod
    def loop_rate_witnesses(scn):
        """rate_supports_delays in its earlier loop form: the reference for the array form."""
        sched, rule, bad = scn.schedule, scn.rule, []
        for j in range(sched.num_slots):
            if not sched.blackout_slots():
                bad += [(float(sched.theta[j]), p) for p in range(1, int(sched.caps[j]) + 1)
                        if sched.rates[j] < p / rule.tm[p]]
            elif sched.caps[j] > 0:
                bad += [(float(sched.theta[j]), p) for p in range(1, rule.pmax + 1)
                        if sched.rates[j] < (p + 2) / rule.tm[p]]
        return tuple(bad)

    @pytest.mark.parametrize("caps", [[8, 3, 5, 1], [8, 0, 5, 1], [2, 8, 0, 4], [0, 6, 7, 0]])
    def test_rate_witnesses_match_the_loop_form(self, ref_plant, caps):
        # Rates across the thresholds p / T_M(p) and (p + 2) / T_M(p) of the reference plant.
        sched = ChannelSchedule(theta=[0.0, 1.0, 2.0, 3.0, 4.0],
                                rates=[900.0, 2000.0, 2900.0, 3500.0], caps=caps, n=2)
        scn = Scenario(plant=ref_plant, schedule=sched,
                       trigger=TriggerConfig(lookahead=0.1 * ref_plant.gamma1,
                                             sigma=0.06, sigma1=0.8),
                       x0=np.array([0.1, 0.1]), x_hat0=np.zeros(2), d_e0=0.5, horizon=4.0)
        check = next(c for c in check_admissibility(scn).conditions
                     if c.name == "rate_supports_delays")
        assert check.witnesses == self.loop_rate_witnesses(scn)
        assert 0 < len(check.witnesses) < sum(caps)

    def test_slow_channel_fails_with_witnesses(self, ref_plant):
        plant = ref_plant
        sched = ChannelSchedule(theta=[0.0, 5.0, 10.0], rates=[100.0, 100.0],
                                caps=[8, 8], n=2)
        scn = Scenario(plant=plant, schedule=sched,
                       trigger=TriggerConfig(lookahead=0.1 * plant.gamma1,
                                             sigma=0.06, sigma1=0.8),
                       x0=np.array([6.0, -4.0]),
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
                       trigger=TriggerConfig(lookahead=0.1 * plant.gamma1,
                                             sigma=0.06, sigma1=0.8),
                       x0=np.array([0.1, 0.1]),
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
                       trigger=TriggerConfig(lookahead=0.1 * plant.gamma1,
                                             sigma=0.06, sigma1=0.8),
                       x0=np.array([0.1, 0.1]),
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

    def test_packet_caps_end_at_52_bits(self, blackout_scn):
        def with_cap(cap):
            sched = ChannelSchedule(theta=[0.0, 20.0], rates=[3000.0], caps=[cap], n=2)
            return dataclasses.replace(blackout_scn, schedule=sched)

        assert with_cap(52).schedule.caps.max() == 52
        with pytest.raises(ConfigurationError, match="52"):
            with_cap(53)

    @pytest.mark.parametrize("field,fine,coarse", [
        ("sample_step", 1.9e-5, 2e-5),  # 20 s over ~1.05e6 points, and just under 1e6
    ])
    def test_steps_too_fine_for_the_horizon_rejected(self, blackout_scn, field, fine, coarse):
        # Only the scenario is built: no run, and no grid of either step.
        tracemalloc.start()
        try:
            assert getattr(dataclasses.replace(blackout_scn, **{field: coarse}), field) == coarse
            for step in (fine, 1e-320):
                with pytest.raises(ConfigurationError, match=field):
                    dataclasses.replace(blackout_scn, **{field: step})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestStats:
    def test_no_transmission_stats(self, ref_plant):
        plant = ref_plant.with_vd0(1.0)
        sched = ChannelSchedule(theta=[0.0, 2.0], rates=[3000.0], caps=[8], n=2)
        scn = Scenario(plant=plant, schedule=sched,
                       trigger=TriggerConfig(lookahead=0.1 * plant.gamma1,
                                             sigma=0.06, sigma1=0.8),
                       x0=np.zeros(2), x_hat0=np.zeros(2),
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
