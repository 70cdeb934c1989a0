import dataclasses
import math

import numpy as np
import pytest
from conftest import SCENARIOS, delay_floor_oracle, scalar_bisect, violation_time_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from etcsim import triggers
from etcsim.capacity import launch_budget
from etcsim.channel import ChannelSchedule
from etcsim.errors import DomainError
from etcsim.linalg import inf_norm
from etcsim.plant import build_plant
from etcsim.scenario import load_scenario
from etcsim.triggers import (
    _NODE_CHUNK,
    _NODE_CHUNK_MAX,
    _NODE_STRIDE,
    _TREE_DEPTH,
    TriggerConfig,
    bisect_crossing,
    blackout_entry_margin,
    channel_bound,
    error_threshold,
    exp_growth_inf,
    first_crossing,
    perf_bound,
    time_to_perf_violation,
    trigger_constants,
)

# Unit-level violation time for the reference plant, frozen from the
# root finder and cross-checked against the published 0.5699.
GAMMA_UNIT = 0.5698508383167445

# Entry margin for a length-2 blackout on the reference plant, frozen
# from the closed form (the infinity-norm branch binds).
ENTRY_MARGIN_LEN2 = 3.3590714520931275e-05


def gamma2_oracle(plant, T, h0, eps0, p, hi=0.2, steps=4000):
    """Independent root finder for the smallest time the channel bound hits 1."""
    taus = np.linspace(0.0, hi, steps + 1)
    prev = 0.0
    for tau in taus[1:]:
        val = float(channel_bound(plant, T, tau, h0, eps0, p))
        if val >= 1.0:
            lo, hi_ = prev, tau
            for _ in range(80):
                mid = 0.5 * (lo + hi_)
                v = float(channel_bound(plant, T, mid, h0, eps0, p))
                if v >= 1.0:
                    hi_ = mid
                else:
                    lo = mid
            return hi_
        prev = tau
    return math.inf


def channel_delay_exceeds(plant, T, h0, eps0, p, t_check, strict=True):
    """Whether the tolerable update delay after p bits exceeds ``t_check``.

    Algebraic test: the delay exceeds t_check iff the channel bound at
    t_check is below 1 (strictly, or weakly with ``strict=False``).
    """
    if not 0.0 <= h0 <= 1.0:
        raise DomainError("h0 must lie in [0, 1]")
    rho = float(error_threshold(plant, T, h0))
    if not 0.0 <= eps0 <= rho:
        raise DomainError("eps0 must lie in [0, rho_T(h0)]")
    if t_check < 0.0:
        raise DomainError("t_check must be nonnegative")
    val = float(channel_bound(plant, T, t_check, h0, eps0, p))
    return val < 1.0 if strict else val <= 1.0


@st.composite
def brackets(draw):
    """``(lo, hi, tol)`` with tol in [1e-12, 1e-2]: a bracket 1e-13 to 100 wide
    (some no wider than tol), or a dyadic one that bisection halves exactly
    and that takes a multiple of ``_TREE_DEPTH`` levels to reach tol."""
    if draw(st.booleans()):
        lo = draw(st.floats(-100.0, 100.0))
        width = 10.0 ** draw(st.floats(-13.0, 2.0))
        return lo, lo + width, 10.0 ** draw(st.floats(-12.0, -2.0))
    levels = _TREE_DEPTH * draw(st.integers(1, 7))
    tol_exp = draw(st.integers(-39, min(-7, 6 - levels)))
    lo = float(draw(st.integers(-100, 100)))
    return lo, lo + 2.0 ** (tol_exp + levels), 2.0 ** tol_exp


class Counted:
    """A threshold predicate on arrays that counts its calls."""

    def __init__(self, threshold, strict):
        self.threshold, self.strict, self.calls = threshold, strict, 0

    def __call__(self, ts):
        self.calls += 1
        return ts > self.threshold if self.strict else ts >= self.threshold


class TestBisectCrossing:
    def test_bracket_straddles_crossing(self):
        pred = lambda s: s >= 0.7312831
        lo, hi = bisect_crossing(pred, 0.0, 1.0, 1e-9)
        assert not pred(lo) and pred(hi)
        assert 0.0 < hi - lo <= 1e-9

    @settings(max_examples=400, deadline=None)
    @given(bracket=brackets(), where=st.floats(-0.1, 1.1), on_midpoint=st.none() | st.integers(0),
           strict=st.booleans())
    def test_tree_matches_scalar_bisection(self, bracket, where, on_midpoint, strict):
        lo, hi, tol = bracket
        threshold = lo + where * (hi - lo)
        mids = []
        scalar_bisect(lambda t: mids.append(t) or t >= threshold, lo, hi, tol)
        if on_midpoint is not None and mids:
            threshold = mids[on_midpoint % len(mids)]  # a threshold exactly on a midpoint
        scalar, pred = Counted(threshold, strict), Counted(threshold, strict)
        assert bisect_crossing(pred, lo, hi, tol) == scalar_bisect(scalar, lo, hi, tol)
        assert pred.calls == math.ceil(scalar.calls / _TREE_DEPTH)  # one per level of scalar_bisect

    @pytest.mark.parametrize("levels", [0, 1, 4, 5, 6, 10, 11, 29, 30])
    def test_one_call_per_tree_depth_levels(self, levels):
        # [0, 1] halves exactly, so tol = 2^-levels takes exactly that many levels.
        sizes = []
        pred = lambda ts: sizes.append(ts.size) or ts >= 0.3
        lo, hi = bisect_crossing(pred, 0.0, 1.0, 2.0 ** -levels)
        assert hi - lo == 2.0 ** -levels
        assert len(sizes) == math.ceil(levels / _TREE_DEPTH)
        assert sizes == [2 ** _TREE_DEPTH - 1] * len(sizes)


def scalar_first_crossing(pred, start, grid, tol):
    """Oracle for ``first_crossing``: a scan one grid point at a time, then ``scalar_bisect``."""
    for i, t in enumerate(grid):
        if pred(t):
            return scalar_bisect(pred, float(grid[i - 1]) if i else start, float(t), tol)
    return None


def certify_nothing(nodes):
    """A certificate that leaves every stretch open, so every grid point is scanned."""
    return np.zeros(len(nodes) - 1, dtype=bool)


class TestFirstCrossing:
    @settings(max_examples=300, deadline=None)
    @given(points=st.integers(1, 3000), start=st.floats(-1.0, 0.0), where=st.floats(-0.1, 1.1),
           strict=st.booleans())
    def test_matches_scalar_scan(self, points, start, where, strict):
        grid = np.linspace(start, 1.0, points + 1)[1:]
        threshold = start + where * (1.0 - start)
        assert (first_crossing(Counted(threshold, strict), start, 1.0, points, 1e-9,
                               certify_nothing)
                == scalar_first_crossing(Counted(threshold, strict), start, grid, 1e-9))

    def test_node_chunks_stop_growing_at_the_cap(self):
        # A grid of 2^40 points: with every stretch certified, the chunks of nodes double up
        # to the cap and then stay there, whatever is left of the grid.
        sizes = []

        class Enough(Exception):
            pass

        def certify_all(nodes):
            sizes.append(len(nodes))
            if len(sizes) == 12:
                raise Enough  # the cap has held for several chunks
            return np.ones(len(nodes) - 1, dtype=bool)

        with pytest.raises(Enough):
            first_crossing(lambda ts: ts > 2.0, 0.0, 1.0, 2 ** 40, 1e-9, certify_all)
        assert max(sizes) == _NODE_CHUNK_MAX + 1
        assert sizes[0] == _NODE_CHUNK + 1 and sizes[-3:] == [_NODE_CHUNK_MAX + 1] * 3


def same_bits(a, b):
    """Equal float arrays, down to the sign of a zero."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def opening(stretches, nodes_seen):
    """A certificate that leaves open exactly the given stretches, numbered in the order
    their nodes arrive, and records the nodes it is given."""
    judged = [0]

    def quiet(nodes):
        nodes_seen.append(np.array(nodes))
        first, judged[0] = judged[0], judged[0] + len(nodes) - 1
        return ~np.isin(np.arange(first, judged[0]), stretches)
    return quiet


class TestSearchTimes:
    """The times ``first_crossing`` hands to pred and quiet against the
    ``np.linspace(start, stop, count + 1)[1:]`` they stand for."""

    @settings(max_examples=150, deadline=None)
    @given(start=st.floats(-1e6, 1e6), span=st.one_of(st.floats(-1e6, 1e6), st.floats(0.0, 1e-300)),
           count=st.one_of(st.integers(1, 5000), st.integers(2 ** 20, 2 ** 20 + 10 ** 5)),
           data=st.data())
    @example(start=0.0, span=5e-324, count=3, data=None)  # the step underflows to zero
    @example(start=1.0, span=0.0, count=1, data=None)
    def test_matches_linspace_bit_for_bit(self, start, span, count, data):
        stop = start + span
        want = np.linspace(start, stop, count + 1)[1:]
        indices = st.integers(0, count - 1)
        idx = np.array([0, count - 1] + ([] if data is None else data.draw(
            st.lists(indices, max_size=64))), dtype=np.intp)
        a, b = (0, count - 1) if data is None else sorted(data.draw(st.tuples(indices, indices)))
        # With the stretches of idx and of the run a..b open and pred false everywhere, the
        # search hands pred every point of those stretches, in order, and quiet every node.
        size = _NODE_STRIDE
        stretches = np.union1d(idx // size, np.arange(a // size, b // size + 1))
        handed, nodes = [], []
        pred = lambda ts: handed.append(np.array(ts)) or np.zeros(np.size(ts), dtype=bool)
        assert first_crossing(pred, start, stop, count, 1e-9, opening(stretches, nodes)) is None
        points = (stretches[:, None] * size + np.arange(size)).ravel()
        assert same_bits(np.concatenate(handed), want[points[points < count]])
        ends = np.minimum(np.arange(1, -(-count // size) + 1) * size, count) - 1
        seen = np.concatenate([nodes[0]] + [n[1:] for n in nodes[1:]])
        assert same_bits(seen, np.r_[start, want[ends]])
        # With pred first holding at point i and no bisection (tol = inf), the bracket is the
        # point before i (start, for the first) and point i, as floats.
        for i in idx.tolist():
            pred = lambda ts, at=i % size: np.arange(np.size(ts)) == at
            found = first_crossing(pred, start, stop, count, math.inf, opening([i // size], []))
            assert same_bits(found, [start if i == 0 else want[i - 1], want[i]])
            assert all(isinstance(t, float) for t in found)

    def test_only_the_reach_of_a_search_is_read(self):
        # A crossing at point 100 of a million-point grid hands quiet its first chunk of
        # nodes and pred the points of one open stretch; the bisection then stays inside
        # the bracket that ends at the crossing.
        count = 10 ** 6
        before, hit = np.linspace(0.0, 1.0, count + 1)[100:102]
        handed, nodes = [], []
        pred = lambda ts: handed.append(np.array(ts)) or ts >= hit
        quiet = lambda n: nodes.append(len(n)) or ~((n[:-1] < hit) & (hit <= n[1:]))
        found = first_crossing(pred, 0.0, 1.0, count, 1e-9, quiet)
        assert found[1] == hit
        assert nodes == [_NODE_CHUNK + 1]
        assert handed[0].size == _NODE_STRIDE
        assert all(np.all((before < ts) & (ts < hit)) for ts in handed[1:])


def exact_certificate(pred, grid, nodes_seen):
    """A certificate that clears exactly the stretches where pred holds at no grid point.

    Each stretch is read off the node times it is given, so nodes that do not bound the
    stretches the scan evaluates make the scan miss or misplace a hit."""
    def quiet(nodes):
        nodes_seen.append(np.array(nodes))
        return np.array([not np.any(pred(grid[(t0 < grid) & (grid <= t1)]))
                         for t0, t1 in zip(nodes[:-1], nodes[1:])])
    return quiet


class TestCertifiedFirstCrossing:
    """``first_crossing`` with a certificate against the scan of every point."""

    GRID = np.linspace(0.0, 1.0, 20001)[1:]

    @settings(max_examples=200, deadline=None)
    @given(points=st.integers(1, 3000), start=st.floats(-1.0, 0.0), where=st.floats(-0.1, 1.1),
           width=st.floats(0.0, 0.01))
    def test_matches_scalar_scan(self, points, start, where, width):
        # pred holds on one window of times, so a stretch is quiet or not point by point.
        grid = np.linspace(start, 1.0, points + 1)[1:]
        lo = start + where * (1.0 - start)
        pred = lambda ts: (lo <= ts) & (ts <= lo + width)
        quiet = exact_certificate(pred, grid, [])
        assert (first_crossing(pred, start, 1.0, points, 1e-9, quiet)
                == scalar_first_crossing(pred, start, grid, 1e-9))

    @pytest.mark.parametrize("hit", [0, 1, 63, 64, 65, 4095, 4096, 4097, 12287, 12288, 19999])
    def test_nodes_bound_the_stretches(self, scan_chunks, hit):
        # pred holds at one grid point only, so a node one point off makes the scan miss it.
        grid = self.GRID
        pred = lambda ts: ts == grid[hit]
        nodes = []
        found = first_crossing(scan_chunks.counted(pred), 0.0, 1.0, grid.size, 1e-9,
                               exact_certificate(pred, grid, nodes))
        assert found == scalar_first_crossing(pred, 0.0, grid, 1e-9)
        assert found[1] == grid[hit]
        # Stretch i ends at grid point min((i + 1) S, N) - 1; the nodes are start and those ends.
        size = _NODE_STRIDE
        ends = np.minimum(np.arange(1, -(-grid.size // size) + 1) * size, grid.size) - 1
        seen = np.concatenate([nodes[0]] + [n[1:] for n in nodes[1:]])
        assert np.array_equal(seen, np.r_[0.0, grid[ends]][:seen.size])
        assert [n.size - 1 for n in nodes][:-1] == [
            _NODE_CHUNK * 2 ** k for k in range(len(nodes) - 1)]
        # Only the one open stretch, the one holding the hit, is evaluated.
        first = hit - hit % size
        assert scan_chunks.calls == [(min(size, grid.size - first), hit - first)]


class TestPerfBound:
    def test_zero_horizon_returns_start(self, ref_plant):
        assert float(perf_bound(ref_plant, 0.0, 0.7, 3.0)) == 0.7

    def test_published_unit_crossing(self, ref_plant):
        assert float(perf_bound(ref_plant, 0.5699, 1.0, 1.0)) == pytest.approx(1.0, abs=2e-3)

    def test_pure_decay_without_error(self, ref_plant):
        w = ref_plant.constants.decay_gap
        tau = 0.3
        assert float(perf_bound(ref_plant, tau, 0.6, 0.0)) == pytest.approx(
            0.6 * math.exp(-w * tau), rel=1e-12)


class TestTimeToPerfViolation:
    def test_published_value(self, ref_plant):
        assert time_to_perf_violation(ref_plant, 1.0, 1.0) == pytest.approx(0.5699, abs=1e-3)

    def test_frozen_value(self, ref_plant):
        assert time_to_perf_violation(ref_plant, 1.0, 1.0) == pytest.approx(
            GAMMA_UNIT, abs=1e-8)

    @pytest.mark.parametrize("stem", ["sec6", "clear10", "jordan4"])
    def test_gamma1_matches_pointwise_scan_bit_for_bit(self, stem):
        plant = load_scenario(SCENARIOS / f"{stem}.json")[0].plant
        assert plant.gamma1 == violation_time_oracle(plant, 1.0, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(h0=st.floats(0.0, 1.0), eps0=st.floats(1e-6, 1e3))
    @example(h0=1.0, eps0=1e-6)
    @example(h0=0.0, eps0=1e3)
    @pytest.mark.parametrize("plant", ["reference", "jordan"])
    def test_matches_pointwise_scan_bit_for_bit(self, ref_plant, plant, h0, eps0):
        plant = ref_plant if plant == "reference" else JORDAN
        c = plant.constants
        if h0 == 1.0 and c.guarded_decay_gap * eps0 - c.decay_gap * h0 >= 0.0:
            return  # closed form: 0, with no scan
        assert time_to_perf_violation(plant, h0, eps0) == violation_time_oracle(plant, h0, eps0)

    def test_infinite_without_error(self, ref_plant):
        assert time_to_perf_violation(ref_plant, 0.5, 0.0) == math.inf

    def test_monotone_in_start_level(self, ref_plant):
        for eps0 in (0.25, 0.5, 1.0, 2.0):
            assert (time_to_perf_violation(ref_plant, 0.5, eps0)
                    >= time_to_perf_violation(ref_plant, 1.0, eps0))

    def test_monotone_in_both_arguments(self, ref_plant):
        grid = [(0.2, 0.3), (0.5, 0.5), (0.8, 1.0)]
        for h0, e0 in grid:
            base = time_to_perf_violation(ref_plant, h0, e0)
            for h1, e1 in [(h0 + 0.1, e0), (h0, e0 + 0.5), (h0 + 0.2, e0 + 1.0)]:
                assert base >= time_to_perf_violation(ref_plant, min(h1, 1.0), e1)

    def test_zero_when_slope_nonnegative_at_one(self, ref_plant):
        c = ref_plant.constants
        eps_big = 2.0 * c.decay_gap / c.guarded_decay_gap
        assert time_to_perf_violation(ref_plant, 1.0, eps_big) == 0.0

    def test_domain_checks(self, ref_plant):
        with pytest.raises(DomainError):
            time_to_perf_violation(ref_plant, 1.5, 1.0)
        with pytest.raises(DomainError):
            time_to_perf_violation(ref_plant, 0.5, -1.0)


class TestErrorThreshold:
    def test_unity_at_level_one(self, ref_plant, ref_config):
        assert float(error_threshold(ref_plant, ref_config.lookahead, 1.0)) == 1.0

    def test_matches_direct_formula_at_zero(self, ref_plant, ref_config):
        c = ref_plant.constants
        T = ref_config.lookahead
        wm = c.decay_gap + c.growth_rate
        direct = wm / (c.guarded_decay_gap * (math.exp(wm * T) - 1.0)) + 1.0
        assert float(error_threshold(ref_plant, T, 0.0)) == pytest.approx(direct, rel=1e-12)
        assert direct > 1.0

    def test_decreasing_in_level(self, ref_plant, ref_config):
        T = ref_config.lookahead
        assert (float(error_threshold(ref_plant, T, 0.2))
                > float(error_threshold(ref_plant, T, 0.8)))

    def test_threshold_implies_minimum_violation_time(self, ref_plant, ref_config):
        T = ref_config.lookahead
        floor = min(GAMMA_UNIT, T)
        for h0 in (0.0, 0.3, 0.7, 1.0):
            rho = float(error_threshold(ref_plant, T, h0))
            for frac in (0.25, 0.75, 1.0):
                gamma = time_to_perf_violation(ref_plant, h0, frac * rho)
                assert gamma >= floor - 1e-9

    def test_violation_time_equivalence(self, ref_plant, ref_config):
        T = ref_config.lookahead
        for h0 in (0.1, 0.5, 0.9):
            for eps0 in (0.5, 1.0, 3.0, 8.0):
                gamma = time_to_perf_violation(ref_plant, h0, eps0)
                bound = float(perf_bound(ref_plant, T, h0, eps0))
                assert (gamma >= T) == (bound <= 1.0 + 1e-12)


class TestChannelBound:
    def test_zero_horizon_form(self, ref_plant, ref_config):
        T = ref_config.lookahead
        h0, eps0, p = 0.4, 0.8, 3
        want = eps0 / (float(error_threshold(ref_plant, T, h0)) * 2 ** p)
        assert float(channel_bound(ref_plant, T, 0.0, h0, eps0, p)) == pytest.approx(
            want, rel=1e-12)

    def test_each_bit_halves(self, ref_plant, ref_config):
        T = ref_config.lookahead
        v4 = float(channel_bound(ref_plant, T, 0.01, 0.5, 0.5, 4))
        v5 = float(channel_bound(ref_plant, T, 0.01, 0.5, 0.5, 5))
        assert v5 == pytest.approx(v4 / 2.0, rel=1e-12)

    def test_compositional_oracle(self, ref_plant, ref_config):
        T = ref_config.lookahead
        tau, h0, eps0, p = 0.01, 0.5, 0.5, 4
        hbar = float(perf_bound(ref_plant, tau, h0, eps0))
        want = (inf_norm(expm(ref_plant.A * tau)) * math.exp(ref_plant.beta / 2 * tau)
                * eps0 / float(error_threshold(ref_plant, T, hbar)) / 2 ** p)
        assert float(channel_bound(ref_plant, T, tau, h0, eps0, p)) == pytest.approx(
            want, rel=1e-12)


class TestDelayExceeds:
    def test_large_bit_count_always_exceeds(self, ref_plant, ref_config):
        T = ref_config.lookahead
        assert channel_delay_exceeds(ref_plant, T, 0.5, 0.5, 30, 0.02)

    def test_boundary_strict_vs_weak(self, ref_plant, ref_config):
        T = ref_config.lookahead
        h0 = 0.5
        rho = float(error_threshold(ref_plant, T, h0))
        assert not channel_delay_exceeds(ref_plant, T, h0, rho, 0, 0.0, strict=True)
        assert channel_delay_exceeds(ref_plant, T, h0, rho, 0, 0.0, strict=False)

    def test_agrees_with_root_finding_oracle(self, ref_plant, ref_config):
        T = ref_config.lookahead
        for h0 in (0.2, 0.6):
            for frac in (0.3, 0.9):
                eps0 = frac * float(error_threshold(ref_plant, T, h0))
                for p in (1, 3, 6):
                    gamma2 = gamma2_oracle(ref_plant, T, h0, eps0, p)
                    for t_check in (0.001, 0.01, 0.04):
                        assert channel_delay_exceeds(
                            ref_plant, T, h0, eps0, p, t_check) == (gamma2 > t_check)

    def test_domain_checks(self, ref_plant, ref_config):
        T = ref_config.lookahead
        above = 2.0 * float(error_threshold(ref_plant, T, 0.5))
        with pytest.raises(DomainError):
            channel_delay_exceeds(ref_plant, T, 0.5, above, 2, 0.01)


# The benchmark's jordan plant: A has no eigenvector basis, so exp(A t) takes the Taylor branch.
JORDAN = build_plant([[1, 1], [0, 1]], [[0], [1]], [[-9, -6]], np.eye(2), 1.2, beta_fraction=0.8)


class TestDelayFloor:
    """The delay floors of ``trigger_constants``."""

    @pytest.mark.parametrize("fraction", [0.05, 0.1, 0.3, 1.0])
    @pytest.mark.parametrize("plant", ["reference", "jordan"])
    def test_table_matches_per_p_search_bit_for_bit(self, ref_plant, plant, fraction):
        plant = ref_plant if plant == "reference" else JORDAN
        config = TriggerConfig(lookahead=fraction * plant.gamma1, sigma=0.06,
                               sigma1=0.8)
        floors, _ = trigger_constants(plant, config, 52)
        want = [delay_floor_oracle(plant, config.lookahead, p) for p in range(1, 53)]
        assert same_bits(floors[1:], want)

    def test_growth_factor_evaluated_once_on_the_grid(self, monkeypatch, ref_plant, ref_config):
        sizes = []
        growth = triggers.exp_growth_inf

        def counted(plant, tau):
            sizes.append(np.size(tau))
            return growth(plant, tau)

        monkeypatch.setattr(triggers, "exp_growth_inf", counted)
        trigger_constants(ref_plant, ref_config, 8)
        assert sizes[0] == 1001
        assert len(sizes) > 1 and all(size <= 2 ** _TREE_DEPTH - 1 for size in sizes[1:])

    def test_residual_self_certifying(self, ref_constants, ref_plant, ref_config):
        T = ref_config.lookahead
        c = ref_plant.constants
        wm = c.decay_gap + c.growth_rate
        tstar = ref_constants[0][4]
        g = (inf_norm(expm(ref_plant.A * tstar)) * math.exp(ref_plant.beta / 2 * tstar)
             / 2 ** 4 * math.expm1(wm * T) / (math.exp(wm * T) - math.exp(wm * tstar)))
        assert g == pytest.approx(1.0, abs=1e-5)

    def test_monotone_in_bits(self, ref_constants, ref_config):
        vals = ref_constants[0][1:].tolist()
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v < ref_config.lookahead for v in vals)

    def test_lower_bounds_channel_crossing(self, ref_constants, ref_plant, ref_config):
        T = ref_config.lookahead
        for h0 in (0.3, 0.8):
            rho = float(error_threshold(ref_plant, T, h0))
            for frac in (0.4, 1.0):
                for p in (1, 4):
                    gamma2 = gamma2_oracle(ref_plant, T, h0, frac * rho, p)
                    assert gamma2 >= ref_constants[0][p] - 1e-7


class TestMaxCommDelay:
    """The ``T_M(p)`` table of ``trigger_constants``."""

    def test_reference_construction(self, ref_constants, ref_plant, ref_config):
        T = ref_config.lookahead
        floors, tm = ref_constants
        assert ref_plant.gamma1 == pytest.approx(GAMMA_UNIT, rel=1e-9)
        for p in (1, 4, 8):
            want = 0.06 * min(GAMMA_UNIT, T, floors[p])
            assert tm[p] == pytest.approx(want, rel=1e-9)

    def test_monotone_and_saturating(self, ref_constants, ref_config):
        vals = ref_constants[1][1:].tolist()
        assert len(vals) == 8
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 0.06 * min(GAMMA_UNIT, ref_config.lookahead) + 1e-15

    def test_vanishes_with_sigma(self, ref_plant, ref_config):
        tiny = TriggerConfig(lookahead=ref_config.lookahead, sigma=1e-6, sigma1=0.8)
        _, tm = trigger_constants(ref_plant, tiny, 4)
        assert tm[4] < 1e-7

    def test_rejects_zero_bits(self, ref_constants):
        # T_M(0) is undefined: the table holds NaN at p = 0, never a delay.
        floors, tm = ref_constants
        assert math.isnan(floors[0]) and math.isnan(tm[0])


class TestBlackoutEntryMargin:
    def test_short_blackout_limit(self, ref_plant):
        # As the blackout length vanishes the first branch tends to w/W = 5,
        # so the second branch's limit of 1 binds.
        assert blackout_entry_margin(ref_plant, 1e-8) == pytest.approx(1.0, abs=1e-6)

    def test_frozen_reference_value(self, ref_plant):
        assert blackout_entry_margin(ref_plant, 2.0) == pytest.approx(
            ENTRY_MARGIN_LEN2, rel=1e-12)

    def test_decreasing(self, ref_plant):
        assert blackout_entry_margin(ref_plant, 1.0) > blackout_entry_margin(ref_plant, 2.0)

    def test_rejects_nonpositive_length(self, ref_plant):
        with pytest.raises(DomainError):
            blackout_entry_margin(ref_plant, 0.0)


class TestTriggerSuite:
    """The event rule's terms (``sim.EventRule.terms``) on the reference plant.

    The class keeps the name of the trigger-constant cache these tests
    were written against, so their ids stay stable.
    """

    def test_error_free_state(self, clear_channel_rule, ref_plant):
        h = ref_plant.lyapunov_value(np.array([1.0, 1.0])) / ref_plant.desired_performance(0.0)
        gate, l1, l2, l3 = clear_channel_rule.terms(0.0, h, 0.0, 0)
        w = ref_plant.constants.decay_gap
        assert gate
        assert l2 == 0.0
        assert l1 == pytest.approx(h * math.exp(-w * clear_channel_rule.tm[8]), rel=1e-12)
        assert l3 == -math.inf

    @staticmethod
    def generic_terms(rule, h, eps, p):
        """``l1`` and ``l2`` from ``perf_bound`` and ``channel_bound`` (and so ``error_threshold``)."""
        tm = rule.tm[p]
        l1 = perf_bound(rule.plant, tm, h, eps)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            l2 = channel_bound(rule.plant, rule.config.lookahead, tm, h, eps, p)
        return l1, l2

    def test_tables_match_generic_bounds_for_each_p(self, clear_channel_scn, rng):
        # A clear channel whose slot p - 1 has cap p, so terms reads p there, for every p.
        sched = ChannelSchedule(theta=np.arange(9.0), rates=np.full(8, 2400.0),
                                caps=np.arange(1, 9), n=2)
        rule = dataclasses.replace(clear_channel_scn, schedule=sched, horizon=8.0).rule
        h, eps = rng.uniform(0.0, 1.0, 200), 10.0 ** rng.uniform(-8.0, 2.0, 200)
        for p in range(1, rule.pmax + 1):
            ts = p - 1 + rng.uniform(0.0, 1.0, h.size)
            for t, hh, ee in [(ts, h, eps)] + [(float(t), float(a), float(b))
                                               for t, a, b in zip(ts[:5], h, eps)]:
                gate, l1, l2, _ = rule.terms(t, hh, ee, p - 1)
                want1, want2 = self.generic_terms(rule, hh, ee, p)
                assert np.all(gate)
                assert np.array_equal(l1, want1) and np.array_equal(l2, want2)

    def test_tables_match_generic_bounds_for_array_p(self, blackout_rule, rng):
        # Slot 0 of sec6 where its planned bits run out: psi falls from 8 to 0 after 2.437 s.
        ts = np.linspace(2.435, 2.44, 4000)
        psi = blackout_rule.psi(ts, 0)
        p = np.maximum(psi, 1).astype(int)
        assert set(psi.tolist()) == set(range(blackout_rule.pmax + 1))
        h, eps = rng.uniform(0.0, 1.0, ts.size), 10.0 ** rng.uniform(-8.0, 2.0, ts.size)
        gate, l1, l2, _ = blackout_rule.terms(ts, h, eps, 0)
        want1, want2 = self.generic_terms(blackout_rule, h, eps, p)
        assert np.array_equal(gate, psi >= 1)
        assert np.array_equal(l1, want1) and np.array_equal(l2, want2)

    def test_zero_cap_rejected(self, blackout_rule, blackout_scn):
        blackout_slot = blackout_scn.schedule.slot_index(5.0)
        assert blackout_scn.schedule.caps[blackout_slot] == 0
        gate, *_ = blackout_rule.terms(5.0, 0.5, 0.1, blackout_slot)
        assert not gate

    def test_reference_initial_state_admissible(self, blackout_rule, blackout_scn):
        plant = blackout_scn.plant
        vd0 = plant.desired_performance(0.0)
        h0 = plant.lyapunov_value(blackout_scn.x0) / vd0
        eps0 = blackout_scn.d_e0 / (plant.constants.error_scale * math.sqrt(vd0))
        gate, l1, l2, l3 = blackout_rule.terms(0.0, h0, eps0, 0)
        assert gate and l1 <= 1.0 and l2 <= 1.0 and l3 <= 0.0

    def test_lookahead_case_split(self, blackout_rule, ref_plant):
        # psi >= 1 looks ahead T_M(psi); once slot 0's planned bits have
        # decayed below one (the plan launches R*2.44 bits, gone at 2.44)
        # the rule is off, even for a large error.
        gate, l1, _, _ = blackout_rule.terms(1.0, 0.5, 0.1, 0)
        assert gate
        assert l1 == float(perf_bound(ref_plant, blackout_rule.tm[8], 0.5, 0.1))
        t = 2.44 - 1e-4
        assert blackout_rule.budget(t, 0)[0] == 0
        gate, *_ = blackout_rule.terms(t, 0.5, 10.0, 0)
        assert not gate
        gates, *_ = blackout_rule.terms(np.array([1.0, t]), np.full(2, 0.5), np.full(2, 0.1), 0)
        assert gates.tolist() == [True, False]

    def test_capacity_deficit_boundary(self, blackout_rule, ref_plant):
        # With the error at exactly the decayed entry margin, l3 is minus the
        # sigma1 share of the capacity floor (sec6: blackout [4.88, 6.88]).
        t, tau_l, length = 2.0, 4.88, 2.0
        margin = blackout_entry_margin(ref_plant, length)
        eps = margin * math.exp(-ref_plant.constants.growth_rate_inf * (tau_l - t))
        floor = launch_budget(blackout_rule.plans[0], t)[1]
        assert blackout_rule.budget(t, 0)[2] == floor
        budget = blackout_rule.config.sigma1 * floor
        assert float(blackout_rule.l3(t, eps, 0, floor)) == pytest.approx(-budget, abs=1e-9)

    def test_capacity_deficit_unbounded_cases(self, blackout_rule, clear_channel_rule,
                                              blackout_scn):
        last = blackout_scn.schedule.num_slots - 1  # no blackout ahead
        assert blackout_rule.l3(19.5, 1.0, last, math.inf) == -math.inf
        assert blackout_rule.l3(1.0, 0.0, 0, blackout_rule.budget(1.0, 0)[2]) == -math.inf
        assert clear_channel_rule.l3(1.0, 1.0, 0, math.inf) == -math.inf
