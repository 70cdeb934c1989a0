"""Trigger bounds and the threshold constants they are built from.

All bounds are closed-form scalar maps parameterised by a PlantModel
(through its rate constants) and, where a look-ahead enters, by the
design horizon T.  They accept numpy arrays in their time/level
arguments so the simulator can evaluate dense grids in one call; the
event rule that combines them lives in ``etcsim.sim``.  The per-plant
constant table (the unit violation time, the delay floors and
``T_M(p)``) is computed by ``trigger_constants``, which
``sim.EventRule`` calls once when a scenario's rule is built.

Every root found here and in the simulator is a first crossing, and
``first_crossing`` is the one scan that finds it: it walks a grid of
times in chunks that double in length and stops at the first chunk that
holds a point where the predicate is true, so a crossing at grid index k
costs at most 2k + ``_SCAN_CHUNK`` points, not the whole grid.  The
bracket around that point is then shrunk by ``bisect_crossing``, five
bisection levels per array call of the predicate.  The thresholds scan
1000-point grids (the violation time in windows that expand until the
root lies inside one); the simulator scans each slot at its scan step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .plant import PlantModel

_SCAN_POINTS = 1000
# Grid points in the first chunk of a scan; each chunk with no hit doubles it.
_SCAN_CHUNK = 256
# Levels of the bisection tree evaluated per call of the predicate: 31 points.
_TREE_DEPTH = 5


@dataclass(frozen=True)
class TriggerConfig:
    """Design parameters of the event-triggering rules.

    lookahead  horizon T used by the error threshold rho_T
    sigma      safety factor in (0,1) scaling the max communication delay
    sigma1     safety factor in (0,1) on the capacity budget check
    root_tol   tolerance for every root search
    """

    lookahead: float
    sigma: float
    sigma1: float
    root_tol: float = 1e-9

    def __post_init__(self):
        if not self.lookahead > 0:
            raise ConfigurationError("lookahead horizon T must be positive")
        if not 0 < self.sigma < 1:
            raise ConfigurationError("sigma must lie in (0, 1)")
        if not 0 < self.sigma1 < 1:
            raise ConfigurationError("sigma1 must lie in (0, 1)")


# ---------------------------------------------------------------------------
# closed-form bounds


def perf_bound(plant: PlantModel, tau, h0, eps0):
    """Upper bound on the performance ratio tau ahead of a state (h0, eps0).

    ``(h0 + W*eps0/(w+mu) * (e^{(w+mu) tau} - 1)) / e^{w tau}`` with
    w the decay gap, W the guarded gap and mu the growth rate.
    """
    c = plant.constants
    wm = c.decay_gap + c.growth_rate
    growth = np.expm1(wm * np.asarray(tau, dtype=float))
    f1 = h0 + (c.guarded_decay_gap * np.asarray(eps0) / wm) * growth
    return f1 / np.exp(c.decay_gap * np.asarray(tau, dtype=float))


def perf_bound_slope0(plant: PlantModel, h0: float, eps0: float) -> float:
    """d/dtau of perf_bound at tau = 0: ``W*eps0 - w*h0``."""
    c = plant.constants
    return c.guarded_decay_gap * eps0 - c.decay_gap * h0


def error_threshold(plant: PlantModel, T: float, h0):
    """Error-ratio level below which performance holds for at least T.

    ``(w+mu)(1-h0) / (W (e^{(w+mu)T} - 1)) + 1``; always >= 1 on h0 <= 1.
    """
    c = plant.constants
    wm = c.decay_gap + c.growth_rate
    return (wm * (1.0 - np.asarray(h0, dtype=float))
            / (c.guarded_decay_gap * math.expm1(wm * T))) + 1.0


def exp_growth_inf(plant: PlantModel, tau):
    """``||e^{A tau}||_inf * e^{(beta/2) tau}`` for scalar or array tau."""
    taus = np.asarray(tau, dtype=float)
    return plant.exp_A.inf_norm(taus) * np.exp(plant.beta / 2.0 * taus)


def channel_bound(plant: PlantModel, T: float, tau, h0, eps0, p, *,
                  exp_norm=None, hbar=None, check_domain: bool = True):
    """Upper bound on the channel ratio after a p-bit update tau ahead.

    ``||e^{A tau}||_inf e^{(beta/2) tau} eps0 / rho_T(perf_bound(tau)) / 2^p``.
    The perf bound at tau must not exceed 1 (the threshold is undefined
    past that point); pass ``check_domain=False`` only when the caller
    handles that case itself.  ``exp_norm`` and ``hbar`` optionally supply
    ``||e^{A tau}||_inf e^{(beta/2) tau}`` and ``perf_bound(tau)``, precomputed.
    """
    if hbar is None:
        hbar = perf_bound(plant, tau, h0, eps0)
    if check_domain and np.any(hbar > 1.0 + 1e-12):
        raise DomainError("performance bound exceeds 1 at the requested horizon")
    if exp_norm is None:
        exp_norm = exp_growth_inf(plant, tau)
    rho = error_threshold(plant, T, hbar)
    return exp_norm * np.asarray(eps0) / rho / np.power(2.0, p)


def blackout_entry_margin(plant: PlantModel, blackout_len: float) -> float:
    """Largest error ratio tolerable when a blackout of this length begins.

    ``min{ (e^{w Tb}-1)(w+mu) / (W (e^{(w+mu) Tb}-1)), e^{-mu_inf Tb} }``.
    """
    if blackout_len <= 0:
        raise DomainError("blackout length must be positive")
    c = plant.constants
    wm = c.decay_gap + c.growth_rate
    first = (math.expm1(c.decay_gap * blackout_len) * wm
             / (c.guarded_decay_gap * math.expm1(wm * blackout_len)))
    second = math.exp(-c.growth_rate_inf * blackout_len)
    return min(first, second)


# ---------------------------------------------------------------------------
# root-found thresholds


def bisect_crossing(pred, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Shrink a bracket with pred(lo) false and pred(hi) true to width tol.

    Returns the final (lo, hi): the last instant seen before the crossing
    and the first instant seen at or after it.  pred maps an array of times
    to truth values; each call evaluates ``_TREE_DEPTH`` levels of the
    bisection tree, each level's midpoints ``0.5 * (ends[:-1] + ends[1:])`` of
    the level above: the same floats, so the same bracket, as scalar bisection.
    """
    top = 1 << _TREE_DEPTH
    while hi - lo > tol:
        ends = np.empty(top + 1)
        ends[0], ends[top] = lo, hi
        for step in (top >> d for d in range(_TREE_DEPTH)):
            ends[step // 2::step] = 0.5 * (ends[:-1:step] + ends[step::step])
        fired = np.asarray(pred(ends[1:-1]))
        a, b = 0, top
        while b - a > 1 and hi - lo > tol:
            mid = (a + b) // 2
            if fired[mid - 1]:
                b, hi = mid, float(ends[mid])
            else:
                a, lo = mid, float(ends[mid])
    return lo, hi


def first_crossing(pred, start: float, grid: np.ndarray, tol: float) -> tuple[float, float] | None:
    """Bracket of the first crossing of pred along grid, or None if pred never holds.

    grid holds increasing times after start.  It is evaluated in chunks
    of ``_SCAN_CHUNK``, ``2 _SCAN_CHUNK``, ... points up to the first chunk
    where pred holds somewhere; the bracket from the point before the
    first such time (start, for the first point) to that time is then
    shrunk by ``bisect_crossing``.  pred maps an array of times to truth
    values.
    """
    a, size = 0, _SCAN_CHUNK
    while a < grid.size:
        idx = np.flatnonzero(pred(grid[a:a + size]))
        if idx.size:
            i = a + int(idx[0])
            lo = float(grid[i - 1]) if i else start
            return bisect_crossing(pred, lo, float(grid[i]), tol)
        a, size = a + size, 2 * size
    return None


def time_to_perf_violation(plant: PlantModel, h0: float, eps0: float,
                           root_tol: float = 1e-9) -> float:
    """First time the open-loop performance bound reaches 1 going up.

    Returns ``math.inf`` when the bound never comes back to 1 (eps0 = 0
    with h0 < 1, or h0 = 1 with eps0 = 0).  A crossing at tau = 0 with
    negative slope (h0 = 1, small eps0) is skipped: only crossings with
    nonnegative slope count.
    """
    if not 0.0 <= h0 <= 1.0:
        raise DomainError("h0 must lie in [0, 1]")
    if eps0 < 0.0:
        raise DomainError("eps0 must be nonnegative")
    if h0 == 1.0 and perf_bound_slope0(plant, h0, eps0) >= 0.0:
        return 0.0
    if eps0 == 0.0:
        return math.inf  # pure decay below 1, never returns

    c = plant.constants
    wm = c.decay_gap + c.growth_rate
    above = lambda tau: perf_bound(plant, tau, h0, eps0) > 1.0

    lo, hi = 0.0, 1.0 / wm
    # Expand geometrically until the bound has crossed 1; it always does
    # for eps0 > 0 since the bound grows like e^{mu tau}.
    for _ in range(200):
        found = first_crossing(above, lo, np.linspace(lo, hi, _SCAN_POINTS + 1)[1:], root_tol)
        if found is not None:
            return found[1]
        lo, hi = hi, hi + 2.0 * (hi - lo)
    raise DomainError("performance bound crossing not found (scan exhausted)")


def unit_violation_time(plant: PlantModel, root_tol: float = 1e-9) -> float:
    """``gamma1 = time_to_perf_violation(plant, 1, 1, root_tol)``, root-found once per plant.

    ``resolve_lookahead`` and ``trigger_constants`` both need it for the
    same plant; the value is kept in ``plant.unit_violation_times``.
    """
    times = plant.unit_violation_times
    if root_tol not in times:
        times[root_tol] = time_to_perf_violation(plant, 1.0, 1.0, root_tol)
    return times[root_tol]


def delay_floor(plant: PlantModel, T: float, p: int, root_tol: float = 1e-9) -> float:
    """Uniform lower bound on the tolerable update delay after p bits.

    Smallest tau in [0, T) where
    ``||e^{A tau}||_inf e^{(beta/2) tau} / 2^p *
      (e^{(w+mu)T}-1)/(e^{(w+mu)T}-e^{(w+mu) tau})`` reaches 1; zero for p = 0.
    """
    if p < 0:
        raise DomainError("bit count must be nonnegative")
    if p == 0:
        return 0.0
    c = plant.constants
    wm = c.decay_gap + c.growth_rate
    e_wmT = math.exp(wm * T)

    def g_above(tau):
        denom = e_wmT - np.exp(wm * tau)
        with np.errstate(divide="ignore"):
            g = exp_growth_inf(plant, tau) / 2.0 ** p * (e_wmT - 1.0) / denom
        return (denom <= 0.0) | (g >= 1.0)

    # g diverges at T^-, so g_above holds at the last point, T.
    grid = np.minimum(np.arange(1, _SCAN_POINTS + 1) * (T / _SCAN_POINTS), T * (1.0 - 1e-12))
    return first_crossing(g_above, 0.0, np.append(grid, T), root_tol)[1]


def trigger_constants(plant: PlantModel, config: TriggerConfig, pmax: int):
    """The unit violation time and the delay-floor and ``T_M`` tables up to pmax bits.

    Returns ``(gamma1, floors, tm)``: gamma1 is the time the performance
    bound takes to return to 1 from (1, 1), and ``floors[p]`` and
    ``tm[p] = sigma * min(gamma1, T, floors[p])`` are indexed by the bit
    count p, with NaN at p = 0.
    """
    gamma1 = unit_violation_time(plant, config.root_tol)
    floors = np.full(pmax + 1, np.nan)
    floors[1:] = [delay_floor(plant, config.lookahead, p, config.root_tol)
                  for p in range(1, pmax + 1)]
    tm = config.sigma * np.minimum(min(gamma1, config.lookahead), floors)
    return gamma1, floors, tm


def resolve_lookahead(plant: PlantModel, fraction: float, root_tol: float = 1e-9) -> float:
    """Lookahead horizon as a fraction of the unit-level violation time."""
    if fraction <= 0:
        raise ConfigurationError("lookahead fraction must be positive")
    return fraction * unit_violation_time(plant, root_tol)
