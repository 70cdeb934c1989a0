"""Trigger bounds and the threshold constants they are built from.

All bounds are closed-form scalar maps parameterised by a PlantModel
(through its rate constants) and, where a look-ahead enters, by the
design horizon T.  They accept numpy arrays in their time/level
arguments so the simulator can evaluate dense grids in one call; the
event rule that combines them lives in ``etcsim.sim``, which builds the
delay-floor and ``T_M(p)`` tables (``trigger_constants``) once per rule.

Every root found here and in the simulator is a first crossing along a
grid of times: ``bisect_crossing`` shrinks the bracket that ends at the
first grid point where the predicate holds, five bisection levels per
array call.  Two searches find that grid point: ``first_crossing``, for
the simulator's fire search and the violation time (1000-point
``np.linspace`` windows that expand until the root lies inside one, with
a certificate that certifies nothing), and the delay floors' one shared
grid of [0, T] for all p.

``first_crossing`` takes a certificate, ``sim.EventRule.quiet`` in the
fire search.  It reads the floats of ``np.linspace`` only at the points
it reaches, so a search costs the same on a slot of any length.  Every
``_NODE_STRIDE``-th point is a node; the nodes are walked in chunks that
double up to ``_NODE_CHUNK_MAX`` stretches, a stretch between two nodes
where the certificate shows the predicate false is skipped, and only the
others' points are evaluated, in doubling batches: the first point where
the predicate holds is the one a scan of every point finds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .plant import PlantModel

_SCAN_POINTS = 1000
# Bracket width at which every root search stops, the simulator's fire search included; the
# simulator also takes a time closer than this to the horizon as the horizon.
ROOT_TOL = 1e-9
# Levels of the bisection tree evaluated per call of the predicate: 31 points.
_TREE_DEPTH = 5
# Grid points per stretch a certificate judges.
_NODE_STRIDE = 64
# Stretches in a certified scan's first chunk of nodes and in its first batch of stretches
# left open.  One call of the rule costs about as much as a thousand of its points, so
# smaller chunks would save points but spend more time on calls.
_NODE_CHUNK = 64
_OPEN_CHUNK = 16
# Stretches in a certified scan's largest chunk of nodes: it bounds a search's memory.
_NODE_CHUNK_MAX = 4096


@dataclass(frozen=True)
class TriggerConfig:
    """Design parameters of the event-triggering rules.

    lookahead  horizon T used by the error threshold rho_T
    sigma      safety factor in (0,1) scaling the max communication delay
    sigma1     safety factor in (0,1) on the capacity budget check
    """

    lookahead: float
    sigma: float
    sigma1: float

    def __post_init__(self):
        if not self.lookahead > 0:
            raise ConfigurationError("lookahead horizon T must be positive")
        if not 0 < self.sigma < 1:
            raise ConfigurationError("sigma must lie in (0, 1)")
        if not 0 < self.sigma1 < 1:
            raise ConfigurationError("sigma1 must lie in (0, 1)")


# ---------------------------------------------------------------------------
# closed-form bounds


def perf_bound(plant: PlantModel, tau, h0, eps0, mu: float | None = None):
    """Upper bound on the performance ratio tau ahead of a state (h0, eps0).

    ``(h0 + W*eps0/(w+mu) * (e^{(w+mu) tau} - 1)) / e^{w tau}`` with
    w the decay gap, W the guarded gap and mu the error ratio's growth
    rate: ``mu`` if given, else the plant's.  As a function of
    tau it is convex or increasing, so its largest value over an interval
    of tau is at one of the ends.
    """
    c = plant.constants
    wm = c.decay_plus_growth if mu is None else c.decay_gap + mu
    growth = np.expm1(wm * np.asarray(tau, dtype=float))
    f1 = h0 + (c.guarded_decay_gap * np.asarray(eps0) / wm) * growth
    return f1 / np.exp(c.decay_gap * np.asarray(tau, dtype=float))


def error_threshold(plant: PlantModel, T: float, h0):
    """Error-ratio level below which performance holds for at least T.

    ``(w+mu)(1-h0) / (W (e^{(w+mu)T} - 1)) + 1``; always >= 1 on h0 <= 1.
    """
    c = plant.constants
    wm = c.decay_plus_growth
    return (wm * (1.0 - np.asarray(h0, dtype=float))
            / (c.guarded_decay_gap * math.expm1(wm * T))) + 1.0


def exp_growth_inf(plant: PlantModel, tau):
    """``||e^{A tau}||_inf * e^{(beta/2) tau}`` for scalar or array tau."""
    taus = np.asarray(tau, dtype=float)
    return plant.exp_A.inf_norm(taus) * np.exp(plant.beta / 2.0 * taus)


def blackout_entry_margin(plant: PlantModel, blackout_len: float) -> float:
    """Largest error ratio tolerable when a blackout of this length begins.

    ``min{ (e^{w Tb}-1)(w+mu) / (W (e^{(w+mu) Tb}-1)), e^{-mu_inf Tb} }``.
    """
    if blackout_len <= 0:
        raise DomainError("blackout length must be positive")
    c = plant.constants
    wm = c.decay_plus_growth
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
    bisection tree, each midpoint ``0.5 * (a + b)`` of its neighbours a, b on the
    level above, in Python floats: the same floats, so the same bracket, as scalar
    bisection.
    """
    top = 1 << _TREE_DEPTH
    while hi - lo > tol:
        ends = [lo] + [0.0] * (top - 1) + [hi]
        for step in (top >> d for d in range(_TREE_DEPTH)):
            half = step // 2
            for i in range(half, top, step):
                ends[i] = 0.5 * (ends[i - half] + ends[i + half])
        fired = np.asarray(pred(np.array(ends[1:-1]))).tolist()
        a, b = 0, top
        while b - a > 1 and hi - lo > tol:
            mid = (a + b) // 2
            if fired[mid - 1]:
                b, hi = mid, ends[mid]
            else:
                a, lo = mid, ends[mid]
    return lo, hi


def first_crossing(pred, start: float, stop: float, count: int, tol: float,
                   quiet) -> tuple[float, float] | None:
    """Bracket of pred's first crossing along ``np.linspace(start, stop, count + 1)[1:]``.

    Returns None if pred holds at no point.  The points are linspace's floats,
    computed only where the search reads them: ``k * step + start`` at
    linspace's index k, with ``step = (stop - start) / count`` (``k / count *
    (stop - start) + start`` where step underflows to 0), and stop at the last;
    index -1 gives linspace's first float, ``0 * step + start``: start (+0.0 for -0.0).
    pred maps an array of times to truth values.  quiet, a certificate, maps
    increasing times ``t_0 < ... < t_m`` to m truth values, the i-th true only
    if pred is false at every point in ``(t_i, t_{i+1}]``.

    Stretch i holds points ``i S .. (i + 1) S - 1`` (S = ``_NODE_STRIDE``;
    the last may be shorter) and runs from its node, the point at index
    ``i S - 1`` (start, for the first), to its own last point.  The nodes are
    handed to quiet in chunks of ``_NODE_CHUNK``, ``2 _NODE_CHUNK``, ...
    stretches, up to ``_NODE_CHUNK_MAX``; in each chunk, the points of the
    stretches quiet leaves open are scanned in batches of ``_OPEN_CHUNK``,
    ``2 _OPEN_CHUNK``, ... stretches.  The first point where pred holds is the
    one a scan of every point finds; ``bisect_crossing`` shrinks the bracket
    from the point before it.
    """
    delta = stop - start
    step = delta / count

    def points(idx):
        k = idx + 1.0  # linspace's index, as the floats of its arange
        return np.where(k == count, stop, (k / count * delta if step == 0 else k * step) + start)

    stride = _NODE_STRIDE
    stretches = -(-count // stride)
    i, size = 0, _NODE_CHUNK
    while i < stretches:
        last = min(i + size, stretches)
        nodes = points(np.minimum(np.arange(i, last + 1) * stride, count) - 1)
        open_ = i + np.flatnonzero(~np.asarray(quiet(nodes)))
        idx = (open_[:, None] * stride + np.arange(stride)).ravel()
        idx = idx[idx < count]
        a, batch = 0, _OPEN_CHUNK * stride
        while a < idx.size:
            fired = np.flatnonzero(pred(points(idx[a:a + batch])))
            if fired.size:
                hit = int(idx[a + fired[0]])
                lo = float(points(hit - 1))
                return bisect_crossing(pred, lo, float(points(hit)), tol)
            a, batch = a + batch, 2 * batch
        i, size = last, min(2 * size, _NODE_CHUNK_MAX)
    return None


def time_to_perf_violation(plant: PlantModel, h0: float, eps0: float) -> float:
    """First time the open-loop performance bound reaches 1 going up.

    Returns ``math.inf`` when the bound never comes back to 1 (eps0 = 0
    with h0 < 1, or h0 = 1 with eps0 = 0).  A crossing at tau = 0 with
    negative slope (h0 = 1, small eps0) is skipped: only crossings with
    nonnegative slope count.  Each window is ``first_crossing``'s
    ``np.linspace`` grid, with a certificate that certifies nothing.
    """
    if not 0.0 <= h0 <= 1.0:
        raise DomainError("h0 must lie in [0, 1]")
    if eps0 < 0.0:
        raise DomainError("eps0 must be nonnegative")
    c = plant.constants
    if h0 == 1.0 and c.guarded_decay_gap * eps0 - c.decay_gap * h0 >= 0.0:
        return 0.0  # perf_bound's slope at 0, W eps0 - w h0, is nonnegative
    if eps0 == 0.0:
        return math.inf  # pure decay below 1, never returns

    wm = c.decay_plus_growth
    above = lambda tau: perf_bound(plant, tau, h0, eps0) > 1.0
    certifies_nothing = lambda nodes: np.zeros(len(nodes) - 1, dtype=bool)

    lo, hi = 0.0, 1.0 / wm
    # Expand geometrically until the bound has crossed 1; it always does
    # for eps0 > 0 since the bound grows like e^{mu tau}.
    for _ in range(200):
        found = first_crossing(above, lo, hi, _SCAN_POINTS, ROOT_TOL, certifies_nothing)
        if found is not None:
            return found[1]
        lo, hi = hi, hi + 2.0 * (hi - lo)
    raise DomainError("performance bound crossing not found (scan exhausted)")


def trigger_constants(plant: PlantModel, config: TriggerConfig, pmax: int):
    """``(floors, tm)``: the delay floors and ``T_M(p)``, indexed by bit count p <= pmax.

    ``floors[p]`` is the smallest tau in [0, T) where ``||e^{A tau}||_inf
    e^{(beta/2) tau} / 2^p * (e^{(w+mu)T}-1)/(e^{(w+mu)T}-e^{(w+mu) tau})``
    reaches 1, and ``tm[p] = sigma * min(gamma1, T, floors[p])``; both are
    NaN at p = 0.  The growth factor, which p does not enter, is evaluated
    once on a grid of [0, T]; ``bisect_crossing`` shrinks each p's bracket
    from the point before its first grid hit (0, for the first) to that hit.
    """
    T = config.lookahead
    c = plant.constants
    wm = c.decay_plus_growth
    e_wmT = math.exp(wm * T)

    def factors(tau):
        return exp_growth_inf(plant, tau), e_wmT - np.exp(wm * tau)

    def reached(p, tau, growth, denom):
        # The product overflows only where g >= 1 (denom <= e^{(w+mu)T} is finite), so its inf
        # still reads reached.  Where e^{(w+mu)T} and e^{(w+mu) tau} both round to 1 (T near
        # 0), g is 0/0 and denom <= 0 decides.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            g = growth / 2.0 ** p * (e_wmT - 1.0) / denom
        return (denom <= 0.0) | (g >= 1.0) | (tau >= T)

    # g diverges at T^-, so reached holds at the last point, T, even where math.exp and
    # np.exp round e^{(w+mu)T} apart and 2^p is large enough to keep g below 1 there.
    grid = np.append(np.minimum(np.arange(1, _SCAN_POINTS + 1) * (T / _SCAN_POINTS),
                                T * (1.0 - 1e-12)), T)
    on_grid = factors(grid)
    floors = np.full(pmax + 1, np.nan)
    for p in range(1, pmax + 1):
        hit = int(np.argmax(reached(p, grid, *on_grid)))
        lo = float(grid[hit - 1]) if hit else 0.0
        floors[p] = bisect_crossing(lambda tau: reached(p, tau, *factors(tau)), lo,
                                    float(grid[hit]), ROOT_TOL)[1]
    tm = config.sigma * np.minimum(min(plant.gamma1, T), floors)
    return floors, tm

