import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_continuous_are
from scipy.optimize import linprog

from etcsim import triggers
from etcsim.capacity import _FLOOR_NUDGE, CapacityPlan, floor_nudged
from etcsim.channel import ChannelSchedule
from etcsim.errors import AdmissibilityError
from etcsim.scenario import load_scenario
from etcsim.sim import _Engine, check_admissibility, run
from etcsim.triggers import (ROOT_TOL, TriggerConfig, bisect_crossing, blackout_entry_margin,
                             exp_growth_inf, perf_bound, trigger_constants)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def lqr_gain(A, B):
    """``-B^T P`` with P from the control ARE (identity weights): A + B K is Hurwitz."""
    return -B.T @ solve_continuous_are(A, B, np.eye(len(A)), np.eye(B.shape[1]))


def slotted_document(A, B, K, theta, rates, caps, x0, beta_fraction):
    """A scenario on the slots between the times theta, with the fuzz strategy's fixed fields."""
    n = len(A)
    slots = [{"theta_start": lo, "theta_end": hi, "R": r, "pi_bar": c}
             for lo, hi, r, c in zip(theta, theta[1:], rates, caps)]
    return {
        "plant": {"A": A.tolist(), "B": B.tolist(), "K": K.tolist(), "Q": np.eye(n).tolist(),
                  "a": 1.2, "beta_fraction": beta_fraction, "Vd0_factor": 1.2},
        "channel": {"n": n, "slots": slots},
        "trigger": {"T_fraction_of_gamma1": 0.1, "sigma": 0.06, "sigma1": 0.8},
        "sim": {"x0": x0, "xhat0": [0.0] * n, "de0_factor": 1.5, "horizon": theta[-1],
                "sample_step": theta[-1] / 200},
    }


# (A, B) of a plant whose growth rate mu exceeds mu_inf, the rate that bounds eps: at
# beta_fraction 0.8 they are 1.6485 and 1.2343.
SHEAR_PLANT = (np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([[1.0], [0.0]]))


def rescaled_sec6(factor):
    """The ``scenarios/sec6.json`` document with every slot rate multiplied by factor."""
    doc = json.loads((SCENARIOS / "sec6.json").read_text())
    for slot in doc["channel"]["slots"]:
        slot["R"] *= factor
    return doc


def sec6_with_cap(slot, cap):
    """The ``scenarios/sec6.json`` document with the packet cap of one slot set to cap."""
    doc = json.loads((SCENARIOS / "sec6.json").read_text())
    doc["channel"]["slots"][slot]["pi_bar"] = cap
    return doc


def run_refined(scn, divisor):
    """``sim.run(scn)`` with the engine's scan step divided by divisor."""
    report = check_admissibility(scn)
    if not report.ok:
        raise AdmissibilityError(report)
    eng = _Engine(scn)
    eng.scan_step /= divisor
    return eng.run()


def scalar_bisect(pred, lo, hi, tol):
    """Bisection one scalar time at a time: the oracle for ``triggers.bisect_crossing``."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def delay_floor_oracle(plant, T, p):
    """The per-p search ``triggers.trigger_constants`` replaced, the oracle for its table.

    Smallest tau in [0, T) where ``||e^{A tau}||_inf e^{(beta/2) tau} / 2^p *
    (e^{(w+mu)T}-1)/(e^{(w+mu)T}-e^{(w+mu) tau})`` reaches 1: its own growth factor on
    chunks of 256, 512, ... points of the 1001-point grid up to the first hit, then
    bisection of that bracket.
    """
    c = plant.constants
    wm = c.decay_gap + c.growth_rate
    e_wmT = math.exp(wm * T)

    def g_above(tau):
        denom = e_wmT - np.exp(wm * tau)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            g = exp_growth_inf(plant, tau) / 2.0 ** p * (e_wmT - 1.0) / denom
        return (denom <= 0.0) | (g >= 1.0) | (tau >= T)

    grid = np.minimum(np.arange(1, 1001) * (T / 1000), T * (1.0 - 1e-12))
    grid = np.append(grid, T)
    a, size = 0, 256
    while not (hits := np.flatnonzero(g_above(grid[a:a + size]))).size:  # holds at T
        a, size = a + size, 2 * size
    hit = a + int(hits[0])
    return bisect_crossing(g_above, float(grid[hit - 1]) if hit else 0.0, float(grid[hit]),
                           ROOT_TOL)[1]


def violation_time_oracle(plant, h0, eps0):
    """The scan ``triggers.time_to_perf_violation`` runs, one point at a time: its oracle
    where that scan runs (eps0 > 0, and not h0 = 1 with a nonnegative slope at 0).

    The same windows: ``np.linspace(lo, hi, 1001)[1:]`` from [0, 1/(w+mu)], each next
    window starting at the last one's end and twice as long as it.  Each point's
    ``perf_bound`` is evaluated alone; the first above 1 ends the bracket that
    ``scalar_bisect`` shrinks from the point before it.
    """
    c = plant.constants

    def above(tau):
        return float(perf_bound(plant, tau, h0, eps0)) > 1.0

    lo, hi = 0.0, 1.0 / (c.decay_gap + c.growth_rate)
    while True:
        prev = lo
        for tau in np.linspace(lo, hi, 1001)[1:].tolist():
            if above(tau):
                return scalar_bisect(above, prev, tau, ROOT_TOL)[1]
            prev = tau
        lo, hi = hi, hi + 2.0 * (hi - lo)


# Coefficients b_0..b_13 of the degree-13 Pade approximant to exp, and the largest
# 1-norm of X for which it meets unit roundoff (Higham, SIMAX 2005).
PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
          33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
THETA13 = 5.371920351148152


def pade13_expression_form(M, ts):
    """``exp(M t)`` for every t in the 1-D array ts, an oracle apart from ``ExpKernel``.

    Scaling and squaring around the degree-13 Pade approximant ``r_13 = I + 2 (V - U)^{-1} U``,
    each time with its own scale ``s = max(0, ceil(log2(t ||M||_1 / theta_13)))``.
    """
    k = M.shape[0]
    frac, expo = np.frexp(ts * np.abs(M).sum(axis=0).max() / THETA13)
    s = np.maximum(expo - (frac == 0.5), 0)
    X = np.ldexp(ts, -s)[:, None, None] * M
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    b, eye = PADE13, np.eye(k)
    U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
             + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * eye)
    V = (X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
         + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * eye)
    R = eye + np.linalg.solve(V - U, 2.0 * U)
    for i in range(int(s.max(initial=0))):
        rows = np.flatnonzero(s > i)
        R[rows] = R[rows] @ R[rows]
    return R


def check_invariants(scn, trace):
    """Assert the theorem's invariants on a finished trace: h <= 1, the codec bound,
    packets that fit psi outside blackouts and are received by the next blackout start,
    and every blackout entry margin."""
    assert np.all(trace.h_pf <= 1.0)
    err = np.max(np.abs(trace.x - trace.x_hat), axis=1)
    assert np.all(err <= trace.d_e * (1 + 1e-9) + 1e-300)
    sched = scn.schedule
    starts = sched.theta[:-1][sched.caps == 0]
    for tx in trace.transmissions:
        j = sched.slot_at(tx.t_k)  # a send at t0 = theta_0 uses slot 0
        assert sched.caps[j] >= 1
        assert 1 <= tx.p_k <= scn.rule.psi(tx.t_k, j)
        assert not np.any((tx.t_k <= starts) & (starts < tx.r_k)), tx
    for b in sched.blackout_slots():
        tau_l = float(sched.theta[b])
        if tau_l < trace.horizon:
            idx = np.flatnonzero(trace.t == tau_l)
            margin = blackout_entry_margin(scn.plant, float(sched.theta[b + 1]) - tau_l)
            assert idx.size and trace.eps[idx[-1]] <= margin


class ScanChunks:
    """The chunks ``triggers.first_crossing`` scans, kept apart from the bisection's calls,
    and the chunks of stretches its certificate judges."""

    def __init__(self, monkeypatch):
        self.calls = []  # (points, first index where pred holds or None), one per chunk
        self.judged = []  # (stretches, indices of those left open), one per certificate call
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

    def judging(self, quiet):
        """quiet, recording each of its calls."""
        def judging(nodes):
            certified = quiet(nodes)
            self.judged.append((len(nodes) - 1, np.flatnonzero(~certified)))
            return certified
        return judging


@pytest.fixture()
def scan_chunks(monkeypatch):
    return ScanChunks(monkeypatch)


@pytest.fixture(scope="session")
def ref_plant(blackout_scn):
    """Reference 2x2 plant with vd0 for x0 = (6, -4)."""
    return blackout_scn.plant


@pytest.fixture(scope="session")
def ref_config(ref_plant):
    return TriggerConfig(lookahead=0.1 * ref_plant.gamma1,
                         sigma=0.06, sigma1=0.8)


@pytest.fixture(scope="session")
def ref_constants(ref_plant, ref_config):
    """``(delay floors, T_M)`` of the reference plant for p = 1..8."""
    return trigger_constants(ref_plant, ref_config, 8)


@pytest.fixture(scope="session")
def blackout_scn():
    """``scenarios/sec6.json``: the reference plant across three blackouts."""
    return load_scenario(SCENARIOS / "sec6.json")[0]


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
    """``scenarios/clear10.json``: sec6's plant on a constant channel of two equal slots."""
    return load_scenario(SCENARIOS / "clear10.json")[0]


@pytest.fixture(scope="session")
def clear_channel_engine(clear_channel_scn):
    """Engine at the initial state of the clear-channel scenario; never run."""
    return _Engine(clear_channel_scn)


@pytest.fixture(scope="session")
def clear_channel_trace(clear_channel_scn):
    return run(clear_channel_scn)


@pytest.fixture(scope="session")
def sliced_at():
    """Re-solve oracle for the real-time bound ``launch_budget(plan, t)[1]``: the window
    re-anchored at t in its first slot."""
    def sliced(problem, t):
        return ChannelSchedule(np.r_[t, problem.theta[1:]], problem.rates, problem.caps, problem.n)
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


def replay_allocation(problem, phi):
    """Busy-until time after replaying an allocation earliest-first, an oracle of plan
    feasibility.

    Returns the time the last bit is received, or None when the allocation is
    infeasible (cap exceeded, slot fully occupied, or a bit not received by the
    window end, up to the nudge's ``_FLOOR_NUDGE / R``).
    """
    phi = np.asarray(phi)
    busy = float(problem.theta[0])
    slack = _FLOOR_NUDGE / max(float(problem.rates.max(initial=0.0)), 1.0)
    for j in range(problem.num_slots):
        bits = int(phi[j])
        if bits < 0:
            return None
        if bits == 0:
            continue
        if problem.caps[j] == 0:
            return None
        start = max(busy, float(problem.theta[j]))
        avail = float(problem.theta[j + 1]) - start
        if avail <= 0.0:
            return None
        if bits > problem.rates[j] * avail + problem.caps[j] + _FLOOR_NUDGE:
            return None
        busy = start + bits / problem.rates[j]
    if busy > problem.end + slack:
        return None
    return busy


def capacity_exact(problem):
    """Globally optimal integer allocation by exhaustive search: the oracle that certifies
    the LP floor and the fallback.

    Asserts a window of at most 8 slots, each with at most 20 allocatable bits.
    """
    m = problem.num_slots
    static = np.array([floor_nudged(problem.rates[j] * problem.durations[j] + problem.caps[j])
                       if problem.caps[j] > 0 else 0 for j in range(m)], dtype=int)
    assert m <= 8 and np.all(static <= 20), "exact capacity limited to 8 slots, 20 bits a slot"

    end = problem.end
    theta = problem.theta
    rates = problem.rates
    caps = problem.caps
    tail_static = np.concatenate([np.cumsum(static[::-1])[::-1], [0]])
    rate_from = np.zeros(m)
    rmax = 0.0
    for j in range(m - 1, -1, -1):
        if caps[j] > 0:
            rmax = max(rmax, rates[j])
        rate_from[j] = rmax

    best_val = 0
    best_vec = np.zeros(m, dtype=int)

    def dfs(j, busy, total, phi):
        nonlocal best_val, best_vec
        if j == m:
            if total > best_val:
                best_val = total
                best_vec = np.array(phi, dtype=int)
            return
        start = max(busy, float(theta[j]))
        optimistic = total + int(tail_static[j])
        if rate_from[j] > 0.0 and start < end:
            optimistic = min(optimistic, total + floor_nudged((end - start) * rate_from[j]))
        elif rate_from[j] == 0.0:
            optimistic = total
        if optimistic <= best_val:
            return
        if caps[j] == 0 or start >= float(theta[j + 1]) - 1e-15:
            dfs(j + 1, busy, total, phi + [0])
            return
        avail = float(theta[j + 1]) - start
        ub = floor_nudged(rates[j] * avail + caps[j])
        ub = min(ub, floor_nudged(rates[j] * (end - start)))
        for bits in range(ub, -1, -1):
            nxt = busy if bits == 0 else start + bits / rates[j]
            dfs(j + 1, nxt, total + bits, phi + [bits])

    dfs(0, float(theta[0]), 0, [])
    return CapacityPlan(phi=best_vec, value_bits=problem.n * sum(best_vec.tolist()),
                        kind="exact", problem=problem)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
