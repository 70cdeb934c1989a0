import dataclasses

import numpy as np
import pytest

from etcsim.channel import (
    ChannelSchedule,
    TransmissionRecord,
    chained_spillover,
    validate_sequence,
)
from etcsim.errors import ConfigurationError, DomainError, FeasibilityError, HorizonError


def simple_schedule():
    return ChannelSchedule(theta=[0.0, 1.0, 2.0, 3.0],
                           rates=[2.0, 4.0, 2.0],
                           caps=[3, 0, 2], n=1)


class TestSlotLookup:
    """Channel values at t are ``rates/caps[slot_at(t)]``; right limits use ``right_slot_index``."""

    def test_right_closed_boundary(self):
        sched = simple_schedule()
        assert sched.slot_at(1.0) == 0
        assert sched.rates[sched.slot_at(1.0)] == 2.0

    def test_left_open_boundary(self):
        sched = simple_schedule()
        assert sched.slot_at(1.0 + 1e-12) == 1

    def test_reference_blackout_interior(self, blackout_scn):
        sched = blackout_scn.schedule
        assert sched.caps[sched.slot_at(5.0)] == 0

    def test_horizon_errors(self):
        sched = simple_schedule()
        with pytest.raises(HorizonError):
            sched.slot_at(-1e-12)
        with pytest.raises(HorizonError):
            sched.slot_at(3.5)
        with pytest.raises(HorizonError):
            sched.slot_at(np.array([1.0, 3.5]))

    def test_right_limits_at_breakpoints(self):
        sched = simple_schedule()
        assert sched.rates[sched.right_slot_index(1.0)] == 4.0
        assert sched.caps[sched.right_slot_index(1.0)] == 0
        assert sched.caps[sched.right_slot_index(0.0)] == 3

    def test_reference_blackout_right_limit(self, blackout_scn):
        sched = blackout_scn.schedule
        assert sched.caps[sched.right_slot_index(4.88)] == 0

    def test_right_limit_horizon_error(self):
        with pytest.raises(HorizonError):
            simple_schedule().right_slot_index(3.0)

    def test_right_limit_agrees_off_breakpoints(self, rng, blackout_scn):
        sched = blackout_scn.schedule
        ts = rng.uniform(sched.start + 1e-6, sched.end - 1e-6, size=200)
        for t in ts:
            if np.any(np.isclose(sched.theta, t)):
                continue
            assert sched.slot_at(t) == sched.right_slot_index(t)
            assert sched.rates[sched.slot_at(t)] == sched.rates[sched.right_slot_index(t)]
            assert sched.caps[sched.slot_at(t)] == sched.caps[sched.right_slot_index(t)]


class TestBlackouts:
    @staticmethod
    def next_blackout(sched, j):
        return next((b for b in sched.blackout_slots() if b > j), None)

    def window(self, sched, j):
        b = self.next_blackout(sched, j)
        return None if b is None else (float(sched.theta[b]), float(sched.theta[b + 1]))

    def test_reference_first_blackout(self, blackout_scn):
        assert self.window(blackout_scn.schedule, 0) == (4.88, 6.88)

    def test_reference_second_blackout(self, blackout_scn):
        sched = blackout_scn.schedule
        assert self.window(sched, sched.slot_at(7.0)) == (11.52, 13.52)

    def test_no_blackout_returns_none(self):
        sched = ChannelSchedule(theta=[0.0, 1.0, 2.0], rates=[1.0, 1.0],
                                caps=[1, 2], n=1)
        assert sched.blackout_slots() == []
        assert self.window(sched, 0) is None

    def test_after_blackout_strictly_later_or_none(self, blackout_scn):
        sched = blackout_scn.schedule
        first = self.next_blackout(sched, 0)
        second = self.next_blackout(sched, first)
        assert sched.theta[second] > sched.theta[first + 1]
        assert self.next_blackout(sched, sched.blackout_slots()[-1]) is None


def compute_J(schedule, j0, jf):
    """Smallest J such that each slot j in [j0, jf) with a slot after it has ``pi_j / R_j``
    below the length of the next J + 1 slots, or None when the schedule ends first: the
    look-ahead search ``chained_spillover`` replaced, kept as its reference."""
    durations = schedule.durations
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


class TestChainedSpillover:
    def test_spill_fits_next_slot(self):
        sched = ChannelSchedule(theta=[0.0, 1.0, 2.0, 3.0],
                                rates=[2.0, 4.0, 2.0],
                                caps=[1, 0, 2], n=1)
        assert chained_spillover(sched, 0, 3) is False

    def test_spill_exceeding_next_slot(self):
        assert chained_spillover(simple_schedule(), 0, 3) is True

    def test_spill_past_next_slot_within_two(self):
        sched = ChannelSchedule(theta=[0.0, 1.0, 2.1, 3.2],
                                rates=[2.0, 1.0, 1.0],
                                caps=[4, 1, 1], n=1)
        # First slot's spill lasts 2.0 > 1.1: it chains, though two slots would hold it.
        assert chained_spillover(sched, 0, 3) is True

    def test_final_slot_excluded(self):
        sched = ChannelSchedule(theta=[0.0, 1.0], rates=[2.0], caps=[5], n=1)
        assert chained_spillover(sched, 0, 1) is False

    def test_spill_past_the_schedule_end(self):
        sched = ChannelSchedule(theta=[0.0, 1.0, 2.0], rates=[1.0, 1.0],
                                caps=[5, 1], n=1)
        assert chained_spillover(sched, 0, 2) is True

    def test_matches_the_look_ahead_search(self, rng):
        # Quarter-unit slots and integer caps and rates make spill equal to a slot length
        # often, so the boundary case pi_j / R_j = theta_{j+2} - theta_{j+1} is covered.
        seen = {False: 0, True: 0}
        for _ in range(3000):
            m = int(rng.integers(1, 8))
            theta = np.concatenate([[0.0], np.cumsum(rng.integers(1, 9, size=m) * 0.25)])
            rates = rng.integers(0, 5, size=m).astype(float)
            caps = np.where(rates > 0, rng.integers(0, 6, size=m), 0)
            sched = ChannelSchedule(theta=theta, rates=rates, caps=caps, n=1)
            j0 = int(rng.integers(0, m))
            jf = int(rng.integers(j0 + 1, m + 1))
            chained = chained_spillover(sched, j0, jf)
            assert chained == (compute_J(sched, j0, jf) != 0), (sched.theta, rates, caps, j0, jf)
            seen[chained] += 1
        assert min(seen.values()) >= 500, seen


class TestDelays:
    """``validate``'s delay bound: a packet of p_k bits is on the channel for at most p_k / R."""

    def test_zero_bits_zero_delay(self):
        # In a zero-rate blackout slot too: the bound is 0, not 0 / R.
        sched = ChannelSchedule(theta=[0.0, 1.0, 2.0], rates=[0.0, 1.0], caps=[0, 1], n=1)
        TransmissionRecord(t_k=0.5, p_k=0, r_k=0.5, r_tilde_k=0.7).validate(sched)
        with pytest.raises(FeasibilityError, match="exceeds bound 0.0 "):
            TransmissionRecord(t_k=0.5, p_k=0, r_k=0.5 + 1e-9, r_tilde_k=0.7).validate(sched)

    def test_simple_division(self):
        sched = ChannelSchedule(theta=[0.0, 10.0], rates=[4.0], caps=[10], n=1)
        TransmissionRecord(t_k=1.0, p_k=8, r_k=3.0, r_tilde_k=3.0).validate(sched)
        with pytest.raises(FeasibilityError, match="exceeds bound 2.0 "):
            TransmissionRecord(t_k=1.0, p_k=8, r_k=3.0 + 1e-9, r_tilde_k=3.5).validate(sched)

    def test_huge_rate_means_instant(self):
        sched = ChannelSchedule(theta=[0.0, 1.0], rates=[1e12], caps=[4], n=1)
        TransmissionRecord(t_k=0.5, p_k=4, r_k=0.5, r_tilde_k=0.5).validate(sched)
        with pytest.raises(FeasibilityError):
            TransmissionRecord(t_k=0.5, p_k=4, r_k=0.5 + 1e-11, r_tilde_k=0.6).validate(sched)

    def test_negative_bits_is_a_domain_error(self):
        # A transmissions CSV may carry any integer: a negative pk is a typed error.
        rec = TransmissionRecord(t_k=0.5, p_k=-1, r_k=0.5, r_tilde_k=0.5)
        with pytest.raises(DomainError, match="nonnegative"):
            validate_sequence([rec], simple_schedule())


class TestValidation:
    def test_rejects_consecutive_blackouts(self, blackout_scn):
        # A control-design assumption, checked per scenario: as channel data
        # (a capacity window, say) adjacent blackout slots are valid.
        sched = ChannelSchedule(theta=[0.0, 1.0, 2.0, 20.0], rates=[1.0, 1.0, 1.0],
                                caps=[1, 0, 0], n=2)
        with pytest.raises(ConfigurationError, match="blackout slots must not be consecutive"):
            dataclasses.replace(blackout_scn, schedule=sched)

    def test_copies_the_callers_arrays(self):
        theta, rates, caps = np.array([0.0, 1.0, 2.0]), np.array([2.0, 3.0]), np.array([1, 1])
        sched = ChannelSchedule(theta, rates, caps, 1)
        theta[0], rates[0], caps[0] = -1.0, 5.0, 0
        assert sched.theta[0] == 0.0 and sched.rates[0] == 2.0 and sched.caps[0] == 1
        for arr in (sched.theta, sched.rates, sched.caps):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    def test_rejects_usable_slot_without_rate(self):
        with pytest.raises(ConfigurationError):
            ChannelSchedule(theta=[0.0, 1.0], rates=[0.0], caps=[1], n=1)

    def test_rejects_nonmonotone_breakpoints(self):
        with pytest.raises(ConfigurationError):
            ChannelSchedule(theta=[0.0, 1.0, 1.0], rates=[1.0, 1.0], caps=[1, 1], n=1)


class TestTransmissionRecords:
    def _sched(self):
        return ChannelSchedule(theta=[0.0, 10.0], rates=[2.0], caps=[4], n=1)

    def test_valid_record_passes(self):
        TransmissionRecord(t_k=1.0, p_k=4, r_k=3.0, r_tilde_k=3.5).validate(self._sched())

    def test_update_before_reception_rejected(self):
        rec = TransmissionRecord(t_k=1.0, p_k=2, r_k=2.0, r_tilde_k=1.5)
        with pytest.raises(FeasibilityError):
            rec.validate(self._sched())

    def test_reception_before_transmission_rejected(self):
        rec = TransmissionRecord(t_k=1.0, p_k=2, r_k=0.5, r_tilde_k=2.0)
        with pytest.raises(FeasibilityError):
            rec.validate(self._sched())

    def test_delay_bound_violation_rejected(self):
        rec = TransmissionRecord(t_k=1.0, p_k=2, r_k=2.5, r_tilde_k=2.5)
        with pytest.raises(FeasibilityError):
            rec.validate(self._sched())

    def test_cap_violation_rejected(self):
        rec = TransmissionRecord(t_k=1.0, p_k=5, r_k=3.0, r_tilde_k=3.0)
        with pytest.raises(FeasibilityError):
            rec.validate(self._sched())

    def test_send_at_schedule_start_uses_first_slot(self):
        # Slots are left-open, so theta_0 lies in none; a send there uses
        # the right limit, as the simulator does.
        sched = ChannelSchedule(theta=[0.0, 1.0, 10.0], rates=[2.0, 4.0], caps=[4, 8], n=1)
        assert sched.slot_at(0.0) == 0
        TransmissionRecord(t_k=0.0, p_k=4, r_k=2.0, r_tilde_k=2.0).validate(sched)
        with pytest.raises(FeasibilityError, match="exceeds bound 2.0 "):
            TransmissionRecord(t_k=0.0, p_k=4, r_k=2.0 + 1e-9, r_tilde_k=2.0 + 1e-9).validate(sched)
        with pytest.raises(FeasibilityError):
            TransmissionRecord(t_k=0.0, p_k=5, r_k=2.5, r_tilde_k=2.5).validate(sched)
        with pytest.raises(HorizonError):
            sched.slot_at(-1.0)

    def test_packet_overlap_rejected(self):
        recs = [TransmissionRecord(t_k=1.0, p_k=2, r_k=2.0, r_tilde_k=2.5),
                TransmissionRecord(t_k=2.2, p_k=2, r_k=3.2, r_tilde_k=3.2)]
        with pytest.raises(FeasibilityError):
            validate_sequence(recs, self._sched())

    def test_packet_in_flight_at_a_blackout_start_rejected(self):
        # A packet sent at or before the blackout start 2.0 must be received by it, with
        # no slack: received exactly at 2.0 passes, one ulp later does not.
        sched = ChannelSchedule(theta=[0.0, 2.0, 3.0, 5.0], rates=[2.0, 2.0, 2.0],
                                caps=[4, 0, 4], n=1)
        validate_sequence([TransmissionRecord(t_k=1.0, p_k=2, r_k=2.0, r_tilde_k=2.0)], sched)
        for t_k, r_k in ((1.5, 2.5), (1.0, float(np.nextafter(2.0, 3.0))), (2.0, 2.5)):
            rec = TransmissionRecord(t_k=t_k, p_k=2, r_k=r_k, r_tilde_k=r_k)
            rec.validate(sched)  # each record alone keeps the cap and the delay bound
            with pytest.raises(FeasibilityError, match="after the blackout start 2.0"):
                validate_sequence([rec], sched)
