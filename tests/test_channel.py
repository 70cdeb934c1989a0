import numpy as np
import pytest

from etcsim.channel import ChannelSchedule, TransmissionRecord, compute_J, validate_sequence
from etcsim.errors import (
    ConfigurationError,
    FeasibilityError,
    HorizonError,
    InfeasibleTransmissionError,
)
from etcsim.presets import sec6_scenario


def simple_schedule():
    return ChannelSchedule(theta=[0.0, 1.0, 2.0, 3.0],
                           rates=[2.0, 4.0, 2.0],
                           caps=[3, 0, 2], n=1)


class TestSlotLookup:
    """Channel values at t are ``rates/caps[slot_index(t)]``; right limits use ``right_slot_index``."""

    def test_right_closed_boundary(self):
        sched = simple_schedule()
        assert sched.slot_index(1.0) == 0
        assert sched.rates[sched.slot_index(1.0)] == 2.0

    def test_left_open_boundary(self):
        sched = simple_schedule()
        assert sched.slot_index(1.0 + 1e-12) == 1

    def test_reference_blackout_interior(self):
        sched = sec6_scenario().schedule
        assert sched.caps[sched.slot_index(5.0)] == 0

    def test_horizon_errors(self):
        sched = simple_schedule()
        with pytest.raises(HorizonError):
            sched.slot_index(0.0)
        with pytest.raises(HorizonError):
            sched.slot_index(3.5)

    def test_right_limits_at_breakpoints(self):
        sched = simple_schedule()
        assert sched.rates[sched.right_slot_index(1.0)] == 4.0
        assert sched.caps[sched.right_slot_index(1.0)] == 0
        assert sched.caps[sched.right_slot_index(0.0)] == 3

    def test_reference_blackout_right_limit(self):
        sched = sec6_scenario().schedule
        assert sched.caps[sched.right_slot_index(4.88)] == 0

    def test_right_limit_horizon_error(self):
        with pytest.raises(HorizonError):
            simple_schedule().right_slot_index(3.0)

    def test_right_limit_agrees_off_breakpoints(self, rng):
        sched = sec6_scenario().schedule
        ts = rng.uniform(sched.start + 1e-6, sched.end - 1e-6, size=200)
        for t in ts:
            if np.any(np.isclose(sched.theta, t)):
                continue
            assert sched.slot_index(t) == sched.right_slot_index(t)
            assert sched.rates[sched.slot_index(t)] == sched.rates[sched.right_slot_index(t)]
            assert sched.caps[sched.slot_index(t)] == sched.caps[sched.right_slot_index(t)]


class TestBlackouts:
    @staticmethod
    def window(sched, j):
        b = sched.next_blackout_slot(j)
        return None if b is None else (float(sched.theta[b]), float(sched.theta[b + 1]))

    def test_reference_first_blackout(self):
        assert self.window(sec6_scenario().schedule, 0) == (4.88, 6.88)

    def test_reference_second_blackout(self):
        sched = sec6_scenario().schedule
        assert self.window(sched, sched.slot_index(7.0)) == (11.52, 13.52)

    def test_no_blackout_returns_none(self):
        sched = ChannelSchedule(theta=[0.0, 1.0, 2.0], rates=[1.0, 1.0],
                                caps=[1, 2], n=1)
        assert sched.next_blackout_slot(0) is None

    def test_after_blackout_strictly_later_or_none(self):
        sched = sec6_scenario().schedule
        first = sched.next_blackout_slot(0)
        second = sched.next_blackout_slot(first)
        assert sched.theta[second] > sched.theta[first + 1]
        assert sched.next_blackout_slot(sched.blackout_slots()[-1]) is None


class TestComputeJ:
    def test_zero_when_spill_fits_next_slot(self):
        sched = ChannelSchedule(theta=[0.0, 1.0, 2.0, 3.0],
                                rates=[2.0, 4.0, 2.0],
                                caps=[1, 0, 2], n=1)
        assert compute_J(sched, 0, 3) == 0

    def test_spill_exceeding_next_slot(self):
        assert compute_J(simple_schedule(), 0, 3) == 1

    def test_one_slot_lookahead_needed(self):
        sched = ChannelSchedule(theta=[0.0, 1.0, 2.1, 3.2],
                                rates=[2.0, 1.0, 1.0],
                                caps=[4, 1, 1], n=1)
        # First slot's spill lasts 2.0 > 1.1, but fits within two slots.
        assert compute_J(sched, 0, 3) == 1

    def test_final_slot_excluded(self):
        sched = ChannelSchedule(theta=[0.0, 1.0], rates=[2.0], caps=[5], n=1)
        assert compute_J(sched, 0, 1) == 0

    def test_unbounded_when_horizon_too_short(self):
        sched = ChannelSchedule(theta=[0.0, 1.0, 2.0], rates=[1.0, 1.0],
                                caps=[5, 1], n=1)
        assert compute_J(sched, 0, 2) is None


class TestDelays:
    def test_zero_bits_zero_delay(self):
        assert simple_schedule().max_delay(0.5, 0) == 0.0

    def test_simple_division(self):
        sched = ChannelSchedule(theta=[0.0, 10.0], rates=[4.0], caps=[10], n=1)
        assert sched.max_delay(1.0, 8) == 2.0

    def test_huge_rate_means_instant(self):
        sched = ChannelSchedule(theta=[0.0, 1.0], rates=[1e12], caps=[4], n=1)
        assert sched.max_delay(0.5, 4) == pytest.approx(0.0, abs=1e-11)

    def test_zero_rate_infeasible(self):
        sched = ChannelSchedule(theta=[0.0, 1.0, 2.0], rates=[0.0, 1.0],
                                caps=[0, 1], n=1)
        with pytest.raises(InfeasibleTransmissionError):
            sched.max_delay(0.5, 1)


class TestValidation:
    def test_rejects_consecutive_blackouts(self):
        with pytest.raises(ConfigurationError):
            ChannelSchedule(theta=[0.0, 1.0, 2.0, 3.0], rates=[1.0, 1.0, 1.0],
                            caps=[1, 0, 0], n=1)

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
        assert sched.max_delay(0.0, 4) == 2.0
        TransmissionRecord(t_k=0.0, p_k=4, r_k=2.0, r_tilde_k=2.0).validate(sched)
        with pytest.raises(FeasibilityError):
            TransmissionRecord(t_k=0.0, p_k=5, r_k=2.5, r_tilde_k=2.5).validate(sched)
        with pytest.raises(HorizonError):
            sched.slot_at(-1.0)

    def test_packet_overlap_rejected(self):
        recs = [TransmissionRecord(t_k=1.0, p_k=2, r_k=2.0, r_tilde_k=2.5),
                TransmissionRecord(t_k=2.2, p_k=2, r_k=3.2, r_tilde_k=3.2)]
        with pytest.raises(FeasibilityError):
            validate_sequence(recs, self._sched())
