import numpy as np
import pytest
from scipy.linalg import expm

from dataclasses import replace

from etcsim.codec import decode_and_update, encode, initial_state, mark_in_flight
from etcsim.errors import CausalityError, InvariantBreachError
from etcsim.linalg import inf_norm
from etcsim.plant import build_plant


def cell_loop(err, bound, p):
    """The quantizer one dimension at a time, in Python: the reference for ``encode``'s
    symbols and ``decode_and_update``'s centres."""
    cells = 1 << p
    width = 2.0 * bound / cells
    if width == 0.0:
        return (0,) * len(err), [0.0] * len(err)
    symbols = tuple(min(max(int(np.ceil((e + bound) / width)) - 1, 0), cells - 1) for e in err)
    return symbols, [-bound + (s + 0.5) * width for s in symbols]


@pytest.fixture(scope="module")
def drift_free_plant():
    # A = 0 keeps the error bound constant between updates.
    return build_plant(A=np.zeros((2, 2)), B=np.eye(2), K=-1.0 * np.eye(2),
                       Q=np.eye(2), a=1.5, beta=0.5)


class TestEncode:
    def test_top_cell_is_closed_above(self, drift_free_plant):
        state = initial_state([0.0, 0.0], 1.0)
        pkt = encode(drift_free_plant, [0.9, 0.9], state, p=3, t=0.0)
        assert pkt.symbols == (7, 7)

    def test_zero_error_boundary_goes_low(self, drift_free_plant):
        state = initial_state([1.0, -1.0], 1.0)
        pkt = encode(drift_free_plant, [1.0, -1.0], state, p=1, t=0.0)
        assert pkt.symbols == (0, 0)

    def test_most_bits_top_cell_and_boundary(self, drift_free_plant):
        # p = 52: cells of width 2^-51 on [-1, 1], every index and centre exact in float64.
        state = initial_state([0.0, 0.0], 1.0)
        top, bottom = encode(drift_free_plant, [1.0, -1.0], state, p=52, t=0.0).symbols
        assert (top, bottom) == (2 ** 52 - 1, 0)
        # 0 and 2^-51 are boundaries: each falls to the cell below it.
        pkt = encode(drift_free_plant, [0.0, 2.0 ** -51], state, p=52, t=0.0)
        assert pkt.symbols == (2 ** 51 - 1, 2 ** 51)
        new = decode_and_update(drift_free_plant, pkt, state, r_tilde=0.0)
        assert new.x_hat.tolist() == [-2.0 ** -52, 2.0 ** -52]
        top_pkt = encode(drift_free_plant, [1.0, 1.0], state, p=52, t=0.0)
        new = decode_and_update(drift_free_plant, top_pkt, state, r_tilde=0.0)
        assert new.x_hat.tolist() == [1.0 - 2.0 ** -52] * 2

    def test_zero_bound_sends_zero_symbols(self, drift_free_plant):
        # d_e = 0 makes every cell width 0: all symbols are 0 and the update keeps x_hat.
        state = initial_state([0.5, -0.5], 0.0)
        pkt = encode(drift_free_plant, [0.5, -0.5], state, p=3, t=0.0)
        assert pkt.symbols == (0, 0)
        new = decode_and_update(drift_free_plant, pkt, state, r_tilde=0.0)
        assert new.x_hat.tolist() == [0.5, -0.5]
        assert new.step == 0.0

    def test_round_trip_error_within_half_cell(self, drift_free_plant, rng):
        d_e = 2.0
        for p in (1, 2, 4, 6):
            for _ in range(50):
                err = rng.uniform(-d_e, d_e, size=2)
                state = initial_state([0.0, 0.0], d_e)
                pkt = encode(drift_free_plant, err, state, p=p, t=0.0)
                new = decode_and_update(drift_free_plant, pkt, state, r_tilde=0.0)
                assert inf_norm(err - new.x_hat) <= d_e / 2 ** p + 1e-12

    @pytest.mark.parametrize("p", [1, 8, 31, 52])
    def test_cells_match_the_loop_bit_for_bit(self, drift_free_plant, rng, p):
        # A = 0 and x_hat = 0: the error is x, and an instant update's estimate is the centres.
        d_e = 1.5
        cells = np.arange(0, 2 ** p, max(1, 2 ** p // 16))
        boundaries = -d_e + cells * (2.0 * d_e / 2 ** p)
        errs = np.concatenate([rng.uniform(-d_e, d_e, 64), boundaries, [-d_e, d_e]])
        state = initial_state([0.0, 0.0], d_e)
        for err in errs.reshape(-1, 2):
            pkt = encode(drift_free_plant, err, state, p=p, t=0.0)
            symbols, centres = cell_loop(err, d_e, p)
            assert pkt.symbols == symbols
            new = decode_and_update(drift_free_plant, pkt, state, r_tilde=0.0)
            assert new.x_hat.tolist() == centres

    def test_out_of_box_error_raises(self, drift_free_plant):
        state = initial_state([0.0, 0.0], 1.0)
        with pytest.raises(InvariantBreachError):
            encode(drift_free_plant, [1.5, 0.0], state, p=2, t=0.0)

    def test_second_packet_in_flight_rejected(self, drift_free_plant):
        state = mark_in_flight(initial_state([0.0, 0.0], 1.0))
        with pytest.raises(InvariantBreachError):
            encode(drift_free_plant, [0.1, 0.0], state, p=2, t=0.0)


class TestDecode:
    def test_instant_update_jumps_to_cell_centre(self, drift_free_plant):
        state = initial_state([0.0, 0.0], 1.0)
        pkt = encode(drift_free_plant, [0.3, -0.3], state, p=2, t=0.0)
        new = decode_and_update(drift_free_plant, pkt, state, r_tilde=0.0)
        # Cells of width 0.5 on [-1, 1]: 0.3 -> centre 0.25, -0.3 -> -0.25.
        assert np.allclose(new.x_hat, [0.25, -0.25], atol=1e-12)
        assert new.step == pytest.approx(1.0 / 2 ** 2, abs=1e-15)

    def test_update_divides_bound_by_packet_size(self, drift_free_plant):
        state = initial_state([0.0, 0.0], 4.0)
        pkt = encode(drift_free_plant, [1.0, 1.0], state, p=3, t=0.5)
        new = decode_and_update(drift_free_plant, pkt, state, r_tilde=0.5)
        assert new.d_e(drift_free_plant, 0.5) == pytest.approx(4.0 / 8.0, abs=1e-15)

    def test_delayed_jump_matches_closed_form(self, drift_free_plant):
        # With A = 0 the jump is exp(Abar*delay) x_hat + reconstruction.
        plant = drift_free_plant
        state = initial_state([2.0, 1.0], 1.0)
        x = np.array([2.4, 0.6])
        pkt = encode(plant, x, state, p=4, t=0.0)
        delay = 0.3
        new = decode_and_update(plant, pkt, state, r_tilde=delay)
        centres = new.x_hat - expm(plant.Abar * delay) @ np.array([2.0, 1.0])
        width = 2.0 / 2 ** 4
        want = np.floor((x - np.array([2.0, 1.0]) + 1.0) / width + 1e-9)
        # reconstruction sits at the centre of the signalled cell
        assert np.allclose(centres, -1.0 + (np.array(pkt.symbols) + 0.5) * width,
                           atol=1e-12)
        assert np.allclose(np.array(pkt.symbols), want, atol=0)

    def test_causality_enforced(self, drift_free_plant):
        state = initial_state([0.0, 0.0], 1.0)
        pkt = encode(drift_free_plant, [0.1, 0.1], state, p=1, t=1.0)
        with pytest.raises(CausalityError):
            decode_and_update(drift_free_plant, pkt, state, r_tilde=0.5)


class TestPropagate:
    """The estimate and error bound between updates (``CodecState.x_hat_at``, ``d_e``)."""

    def test_identity_at_same_time(self, ref_plant):
        state = initial_state([1.0, 2.0], 1.0)
        same = state.x_hat_at(ref_plant, 0.0)
        assert np.array_equal(same, state.x_hat)

    def test_semigroup(self, ref_plant):
        state = initial_state([1.0, 2.0], 1.0)
        once = state.x_hat_at(ref_plant, 0.7)
        rebased = replace(state, x_hat=state.x_hat_at(ref_plant, 0.3), base_time=0.3)
        assert np.max(np.abs(once - rebased.x_hat_at(ref_plant, 0.7))) <= 1e-9

    def test_bound_rederivable_at_any_time(self, ref_plant):
        state = initial_state([0.0, 0.0], 2.0)
        for t in (0.0, 0.2, 0.5):
            want = inf_norm(expm(ref_plant.A * t)) * 2.0
            assert state.d_e(ref_plant, t) == pytest.approx(want, rel=1e-12)


class TestReplicaSync:
    def test_replicas_stay_bit_identical(self, ref_plant, rng):
        enc = initial_state([0.0, 0.0], 8.0)
        dec = initial_state([0.0, 0.0], 8.0)
        t = 0.0
        x = np.array([5.0, -3.0])
        for k in range(5):
            t += 0.2
            bound = enc.d_e(ref_plant, t)
            x_hat = enc.x_hat_at(ref_plant, t)
            x = x_hat + rng.uniform(-bound, bound, size=2)
            pkt = encode(ref_plant, x, enc, p=3, t=t)
            r_tilde = t + 0.001
            enc = decode_and_update(ref_plant, pkt, enc, r_tilde)
            dec = decode_and_update(ref_plant, pkt, dec, r_tilde)
            assert np.array_equal(enc.x_hat, dec.x_hat)
            assert enc.step == dec.step
            assert enc.anchor_time == dec.anchor_time
            t = r_tilde
