import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog

from etcsim import triggers
from etcsim.presets import no_blackout_scenario, sec6_scenario
from etcsim.sim import _Engine, run
from etcsim.triggers import TriggerConfig, resolve_lookahead, trigger_constants


def scalar_bisect(pred, lo, hi, tol):
    """Bisection one scalar time at a time: the oracle for ``triggers.bisect_crossing``."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


class ScanChunks:
    """The chunks ``triggers.first_crossing`` scans, kept apart from the bisection's calls."""

    def __init__(self, monkeypatch):
        self.calls = []  # (points, first index where pred holds or None), one per chunk
        self._bisecting = False
        bisect = triggers.bisect_crossing

        def marked(*args):
            self._bisecting = True
            try:
                return bisect(*args)
            finally:
                self._bisecting = False

        monkeypatch.setattr(triggers, "bisect_crossing", marked)

    def counted(self, pred):
        """pred, recording each of its calls made outside ``bisect_crossing``."""
        def counted(ts):
            fired = pred(ts)
            if not self._bisecting:
                idx = np.flatnonzero(fired)
                self.calls.append((np.size(ts), int(idx[0]) if idx.size else None))
            return fired
        return counted


@pytest.fixture()
def scan_chunks(monkeypatch):
    return ScanChunks(monkeypatch)


@pytest.fixture(scope="session")
def ref_plant():
    """Reference 2x2 plant with vd0 for x0 = (6, -4)."""
    return sec6_scenario().plant


@pytest.fixture(scope="session")
def ref_config(ref_plant):
    return TriggerConfig(lookahead=resolve_lookahead(ref_plant, 0.1),
                         sigma=0.06, sigma1=0.8)


@pytest.fixture(scope="session")
def ref_constants(ref_plant, ref_config):
    """``(gamma1, delay floors, T_M)`` of the reference plant for p = 1..8."""
    return trigger_constants(ref_plant, ref_config, 8)


@pytest.fixture(scope="session")
def blackout_scn():
    return sec6_scenario()


@pytest.fixture(scope="session")
def blackout_trace(blackout_scn):
    return run(blackout_scn)


@pytest.fixture(scope="session")
def blackout_engine(blackout_scn):
    """Engine at the initial state of sec6; never run, so tests may copy it."""
    return _Engine(blackout_scn)


@pytest.fixture(scope="session")
def blackout_rule(blackout_engine):
    return blackout_engine.rule


@pytest.fixture(scope="session")
def clear_channel_rule(clear_channel_scn):
    return clear_channel_scn.rule


@pytest.fixture(scope="session")
def clear_channel_scn():
    return no_blackout_scenario()


@pytest.fixture(scope="session")
def clear_channel_engine(clear_channel_scn):
    """Engine at the initial state of the clear-channel preset; never run."""
    return _Engine(clear_channel_scn)


@pytest.fixture(scope="session")
def clear_channel_trace(clear_channel_scn):
    return run(clear_channel_scn)


@pytest.fixture(scope="session")
def sliced_at():
    """Re-solve oracle for ``realtime_bound``: the window re-anchored at t in its first slot."""
    def sliced(problem, t):
        return dataclasses.replace(problem, theta=np.r_[t, problem.theta[1:]])
    return sliced


def _lp_constraints(problem):
    """Constraint matrix of the relaxed allocation problem (A phi <= b)."""
    m = problem.num_slots
    theta, rates, caps = problem.theta, problem.rates, problem.caps
    inv_rate = np.array([1.0 / rates[i] if caps[i] > 0 else 0.0 for i in range(m)])
    rows, rhs = [], []
    for j in range(m):
        row = np.zeros(m)
        row[j] = 1.0
        rows.append(row)
        rhs.append(rates[j] * problem.durations[j] + caps[j] if caps[j] > 0 else 0.0)
    for j in range(m):
        for j1 in range(j):
            row = np.zeros(m)
            row[j] = 1.0
            row[j1:j] = rates[j] * inv_rate[j1:j]
            rows.append(row)
            rhs.append(rates[j] * (theta[j + 1] - theta[j1]) + caps[j])
    for j1 in range(m):
        row = np.zeros(m)
        row[j1:] = inv_rate[j1:]
        rows.append(row)
        rhs.append(theta[m] - theta[j1])
    return np.array(rows), np.array(rhs)


def _solve_lp(A_ub, b_ub, c, A_eq=None, b_eq=None):
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    assert res.success, res.message
    return res.x


@pytest.fixture(scope="session")
def lexicographic_lp():
    """LP oracle for ``capacity_lp_floor``: the relaxed allocation by HiGHS.

    Maximises the total, then fixes it and minimises each ``phi_j`` in
    turn, giving the lexicographically smallest relaxed optimum.
    """
    def solve(problem):
        m = problem.num_slots
        A_ub, b_ub = _lp_constraints(problem)
        x = _solve_lp(A_ub, b_ub, -np.ones(m))
        A_eq, b_eq = [np.ones(m)], [float(np.sum(x))]
        for j in range(m - 1):
            c = np.zeros(m)
            c[j] = 1.0
            x = _solve_lp(A_ub, b_ub, c, np.array(A_eq), np.array(b_eq))
            A_eq.append(c)
            b_eq.append(float(x[j]))
        return x
    return solve


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
