"""Deterministic closed-loop discrete-event simulator.

The channel picks the design: a schedule with a blackout (a zero-cap
slot) runs the blackout design, with capacity plans, the packet bound
``psi``, the capacity term ``l3`` and the entry margins; any other runs
the clear-channel design.  A breach raised by the engine (exit 4 or 5)
carries the trace recorded before it as its ``trace``.

A run is a function of its send times: the loop takes each from the fire
search (``_Engine._locate_fire``), and a send uses the channel values of
the slot ``ChannelSchedule.slot_at`` gives its time.

The plant, estimate and error bound all admit closed-form propagation,
so there is no integrator error: segments between events are evaluated
by one exponential kernel of the block dynamics, built once per engine
and called on whole arrays of times, and event times are found as the
first crossing of the rule along each slot's fixed-step grid
(``triggers.first_crossing``: a certified scan refined by bisection), with
channel breakpoints and their right limits always evaluated explicitly.
A fire search pays per point, not per call: it computes the grid's times
only where its scan reaches; every evaluation of the search, and of the
stretch the engine then advances over, reads the state through one
``ExpKernel.flow`` from its start (which takes the modal coefficients
once) and ``d_e`` from the codec state; and the rule and its certificate
read their bounds at ``T_M(p)`` from per-p tables built with it.

Every fire search skips the stretches of its grid where the paper's
bounds show the rule cannot fire (``EventRule.quiet``, the comparison
argument behind ``triggers.perf_bound``) and evaluates the rule only on
the others, so it finds the same first grid crossing as a scan of every
point.  The bounds hold while the codec invariant
``||x - x_hat||_inf <= d_e`` does, which the recorder has checked at
each search's start.  Each run's stats carry the search's work counts
under ``diagnostics.work``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import codec as codec_mod
from .capacity import launch_budget, slot_plans
from .channel import ChannelSchedule, TransmissionRecord, validate_sequence
from .errors import (
    AdmissibilityError,
    ConfigurationError,
    DomainError,
    GuaranteeBreachError,
    InvariantBreachError,
    ObjectiveViolationError,
)
from .linalg import ExpKernel, inf_norm
from .plant import PlantModel
from .triggers import (
    ROOT_TOL,
    TriggerConfig,
    blackout_entry_margin,
    error_threshold,
    exp_growth_inf,
    first_crossing,
    perf_bound,
    trigger_constants,
)

# Most samples a run records on its sample grid (clear60's 60 s at 0.01 s is 6,000).
_MAX_SAMPLES = 1e6
_MAX_SCAN_POINTS = 2.0 ** 53  # below this, first_crossing's index arithmetic is exact
_NUDGE = 1e-9
# Relative amount by which EventRule.quiet raises h and eps before bounding the rule, to
# cover the rounding of the ratios it bounds.  They come from ExpKernel, whose closed form
# has a relative error of about cond(V) * 1.1e-16 <= 1.1e-8 for the eigenbasis condition
# numbers it accepts (< 1e8).  Its Taylor branch, for a defective M, is good to about
# max(1, 2 t ||M||_1) e^2 u relative (ExpKernel's docstring), which is below 1.1e-8
# for every t ||M||_1 < 6e6.  A state entry of an n <= 6 plant sums up to 12 such terms
# and h is quadratic in the state, so h and eps are good to ~3e-7 relative: 1e-9 would
# not cover that, and 1e-6 does, three times over.  It also covers the codec invariant's
# slack: the recorder, whose rows start every fire search, lets the error exceed d_e by
# codec.CHECK_SLACK (1e-9 relative).
_CERT_MARGIN = 1e-6

POLICY_MAX = "max_bits"
POLICY_MIN = "min_bits"

# (SimTrace attribute, CSV header) of each trace column after t, x and x_hat, in row order.
TRACE_COLUMNS = (("V", "V"), ("Vd", "Vd"), ("h_pf", "hpf"), ("eps", "eps"), ("h_ch", "hch"),
                 ("d_e", "de"), ("phi", "Phi"), ("psi", "psi"), ("s_hat", "Shat"), ("l3", "L3"))


# ---------------------------------------------------------------------------
# scenario


@dataclass(frozen=True)
class Scenario:
    """Complete description of one closed-loop run."""

    plant: PlantModel
    schedule: ChannelSchedule
    trigger: TriggerConfig
    x0: np.ndarray
    x_hat0: np.ndarray
    d_e0: float
    delay_factor: float = 1.0
    packet_policy: str = POLICY_MAX
    horizon: float | None = None
    sample_step: float | None = None  # None: horizon / 2000, set when the scenario is built

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        object.__setattr__(self, "x_hat0", np.asarray(self.x_hat0, dtype=float))
        n = self.plant.n
        if self.x0.shape != (n,) or self.x_hat0.shape != (n,):
            raise ConfigurationError("x0 and x_hat0 must be length-n vectors")
        if self.schedule.n != n:
            raise ConfigurationError("channel and plant state dimensions differ")
        if self.packet_policy not in (POLICY_MAX, POLICY_MIN):
            raise ConfigurationError(f"unknown packet policy {self.packet_policy!r}")
        if not 0.0 <= self.delay_factor <= 1.0:
            raise ConfigurationError("delay_factor must lie in [0, 1]")
        if self.sample_step is not None and not self.sample_step > 0:
            raise ConfigurationError("sample_step must be positive")
        c = self.plant.constants
        if c.decay_plus_growth * self.trigger.lookahead > math.log(np.finfo(float).max):
            raise ConfigurationError("lookahead T is too long: e^{(w+mu) T} overflows a float")
        if self.d_e0 < inf_norm(self.x0 - self.x_hat0):
            raise ConfigurationError("d_e0 must dominate the initial estimate error")
        caps = self.schedule.caps
        # A design assumption, not channel data: admissibility and _locate_update
        # rely on a usable slot right after every blackout.
        if np.any((caps[:-1] == 0) & (caps[1:] == 0)):
            raise ConfigurationError("blackout slots must not be consecutive")
        if caps.max() > codec_mod.MAX_BITS:
            raise ConfigurationError(f"packet caps must not exceed {codec_mod.MAX_BITS} bits")
        if self.schedule.start != 0.0:
            raise ConfigurationError("schedule must start at t0 = 0")
        horizon = self.schedule.end if self.horizon is None else self.horizon
        if not 0.0 < horizon <= self.schedule.end:
            raise ConfigurationError("horizon must lie within the channel schedule")
        object.__setattr__(self, "horizon", float(horizon))
        if self.sample_step is None:
            object.__setattr__(self, "sample_step", self.horizon / 2000.0)
        # The engine holds the sample grid whole.  The scan step, which needs the rule's
        # T_M(1), is checked where the engine derives it.
        if self.horizon / self.sample_step > _MAX_SAMPLES:
            raise ConfigurationError(
                f"sample_step gives more than {_MAX_SAMPLES:.0e} samples over the horizon")

    @cached_property
    def rule(self) -> EventRule:
        """The event rule, built once and shared by admissibility and the engine."""
        return EventRule(self)


@dataclass(frozen=True)
class Transmission(TransmissionRecord):
    """One realized transmission with the trigger quantities at its endpoints.

    Carries the packet's quantizer symbols.  The replay audit feeds a run's
    send times to the engine's loop in place of the fire search and gets
    the run's trace, transmissions and symbols back byte for byte.
    """

    k: int
    h_pf_tx: float
    eps_tx: float
    h_ch_update: float | None = None
    eps_update: float | None = None
    symbols: tuple[int, ...] = ()


@dataclass
class SimTrace:
    """Sampled closed-loop trajectory plus the transmission log.

    ``rows`` is the float64 table of the rows the engine recorded, in the trace CSV's
    column order (t, x, x_hat, then ``TRACE_COLUMNS``); the named columns are views of it.
    """

    rows: np.ndarray
    transmissions: list[Transmission]
    horizon: float
    scan_step: float
    stats: dict = field(default_factory=dict)
    t: np.ndarray = field(init=False)
    x: np.ndarray = field(init=False)
    x_hat: np.ndarray = field(init=False)
    V: np.ndarray = field(init=False)
    Vd: np.ndarray = field(init=False)
    h_pf: np.ndarray = field(init=False)
    eps: np.ndarray = field(init=False)
    h_ch: np.ndarray = field(init=False)
    d_e: np.ndarray = field(init=False)
    phi: np.ndarray = field(init=False)
    psi: np.ndarray = field(init=False)
    s_hat: np.ndarray = field(init=False)
    l3: np.ndarray = field(init=False)

    def __post_init__(self):
        rows = self.rows
        n = (rows.shape[1] - 1 - len(TRACE_COLUMNS)) // 2
        self.t, self.x, self.x_hat = rows[:, 0], rows[:, 1:1 + n], rows[:, 1 + n:1 + 2 * n]
        for (attr, _), col in zip(TRACE_COLUMNS, rows[:, 1 + 2 * n:].T):
            setattr(self, attr, col)


# ---------------------------------------------------------------------------
# admissibility


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    witnesses: tuple = ()
    detail: str = ""


@dataclass(frozen=True)
class AdmissibilityReport:
    conditions: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.conditions)

    def __str__(self) -> str:
        lines = []
        for c in self.conditions:
            status = "pass" if c.ok else "FAIL"
            extra = f" {c.detail}" if c.detail and not c.ok else ""
            wit = f" witnesses={list(c.witnesses)[:4]}" if c.witnesses and not c.ok else ""
            lines.append(f"[{status}] {c.name}{extra}{wit}")
        return "\n".join(lines)


def check_admissibility(scenario: Scenario) -> AdmissibilityReport:
    """The feasibility conditions of the channel's design (blackout or clear), with witnesses."""
    sched, rule = scenario.schedule, scenario.rule
    blackouts = sched.blackout_slots()
    checks: list[CheckResult] = []

    h0, eps0 = rule.levels(0.0, scenario.x0, scenario.d_e0)[:2]
    j0 = sched.right_slot_index(0.0)
    cap0 = int(sched.caps[j0])

    # Witnesses (theta_j, p), slot by slot: p / T_M(p) for p up to each slot's cap on a clear
    # channel; with blackouts, (p + 2) / T_M(p) for p up to pmax in every usable slot.
    ps = np.arange(1, rule.pmax + 1)
    upto = np.where(sched.caps > 0, rule.pmax, 0) if blackouts else sched.caps
    need = (ps + 2 if blackouts else ps) / rule.tm[1:]
    js, ks = np.nonzero((ps <= upto[:, None]) & (sched.rates[:, None] < need))
    bad = [(float(sched.theta[j]), int(ps[k])) for j, k in zip(js, ks)]
    checks.append(CheckResult("rate_supports_delays", not bad, tuple(bad),
                              "need R >= (p+2) / T_M(p) for p up to the global cap" if blackouts
                              else "need R >= p / T_M(p) for p up to the slot cap"))
    if blackouts:
        checks.append(CheckResult("initial_cap_positive", cap0 >= 1, ((0.0, cap0),),
                                  "the channel must be usable at t0"))

    if cap0 >= 1:
        gate, l1, l2, _ = rule.terms(0.0, h0, eps0, j0)
        if gate:  # where l1 exceeds 1, l2 bounds nothing: its witness is None
            ok = l1 <= 1.0 and l2 <= 1.0
            witness = (0.0, float(l1), float(l2) if l1 <= 1.0 else None)
        else:
            ok, witness = False, (0.0, int(rule.psi(0.0, j0)))
        checks.append(CheckResult("initial_triggers", ok, (witness,),
                                  "psi must allow a bit and l1, l2 must start at or below 1"))

    if blackouts:
        l3 = float(rule.l3(0.0, eps0, j0, rule.budget(0.0, j0)[2]))
        checks.append(CheckResult("initial_capacity", l3 <= 0.0, ((0.0, l3),),
                                  "enough capacity must remain before the first blackout"))
        bad = []
        for b in blackouts:
            tau_u = float(sched.theta[b + 1])
            if tau_u >= scenario.horizon or b + 1 >= sched.num_slots:
                continue
            l3 = float(rule.l3(tau_u, 1.0, b + 1, rule.budget(tau_u, b + 1)[2]))
            if l3 > 0.0:
                bad.append((b, tau_u, l3))
        checks.append(CheckResult("blackout_capacity", not bad, tuple(bad),
                                  "capacity after each blackout must absorb a unit error"))

    return AdmissibilityReport(conditions=tuple(checks))


# ---------------------------------------------------------------------------
# event rule


class EventRule:
    """The event-triggering rule of one scenario, vectorised over time.

    A transmission fires where ``gate`` holds and the performance term
    ``l1 >= 1``, the channel term ``l2 >= 1`` or the capacity term
    ``l3 >= 0``.  The gate is ``psi >= 1``: wherever the packet bound
    ``psi`` allows no bit the rule is off, so every firing sends a packet
    that fits ``psi``.  ``psi`` is the slot's packet cap where no blackout
    lies ahead (everywhere, on a clear channel), and is capped by the slot
    plan's bits still to launch otherwise; ``l3`` is ``-inf`` where no
    blackout lies ahead.

    The rule reads a state through ``levels``, its one map to the ratios
    h and eps (and the V and V_d they divide).  Everything
    the schedule and plant fix is built once, with the rule: each slot's
    capacity plan (``plans``, None where no blackout lies ahead), each blackout slot's
    entry margin (``entry_margins``), and for every p up to the largest
    packet cap the delay floors, ``T_M(p)`` and
    ``||e^{A T_M}||_inf e^{(beta/2) T_M}``, indexed by p (``tm_tables``).
    One step reads ``l1`` and ``l2``, ``perf_bound`` and from it the
    channel bound at ``T_M(p)``, from those tables: ``_bounds``, which
    ``terms``, ``fires`` and ``quiet`` all call, and the engine's packet
    sizing too, at ``p / R`` from tables built once per rate on a clear
    channel.  On a slot with no plan ``psi`` is the slot's cap, one int
    (``_slot_p``), so ``fires`` and ``quiet`` read the tables at that one p,
    with no gate or ``l3`` to evaluate.
    """

    def __init__(self, scenario: Scenario):
        self.plant = scenario.plant
        self.sched = scenario.schedule
        self.config = scenario.trigger
        self.plans = slot_plans(self.sched, scenario.horizon)
        self.entry_margins = {b: blackout_entry_margin(self.plant, float(self.sched.durations[b]))
                              for b in self.sched.blackout_slots()}
        self.pmax = int(self.sched.caps.max())
        self.delay_floor, self.tm = trigger_constants(self.plant, self.config, self.pmax)
        if not np.all(self.tm[1:] > 0.0):
            raise ConfigurationError(
                f"the communication delay T_M(1) is {self.tm[1]:.3g}: no packet can be sent "
                f"(unit violation time gamma1 = {self.plant.gamma1:.3g})")
        c = self.plant.constants
        self._wm = c.decay_plus_growth
        self.tm_tables = self.bound_tables(self.tm)
        self._pow2 = np.power(2.0, np.arange(self.pmax + 1))  # l2's 2^p, by p
        self._caps = self.sched.caps.tolist()
        self._n, self._error_scale = self.plant.n, c.error_scale

    def bound_tables(self, taus):
        """``_bounds``' factors at the times taus, indexed by p like ``tm``: ``perf_bound``'s
        ``e^{(w+mu) tau} - 1`` and ``e^{w tau}``, and ``exp_growth_inf(tau)`` (NaN at p = 0)."""
        norms = np.full(taus.size, np.nan)
        norms[1:] = exp_growth_inf(self.plant, taus[1:])
        return np.expm1(self._wm * taus), np.exp(self.plant.constants.decay_gap * taus), norms

    def levels(self, ts, xs, des):
        """``(h, eps, V, V_d)``: the performance ratio ``h = V(x)/V_d(t)``, the error ratio
        ``eps = d_e/(c sqrt(V_d(t)))``, and the values ``V(x)`` and ``V_d(t)`` they divide.

        ts, the states xs (one per row; only the first n entries, the
        plant state, are read) and the error bounds des may be one time
        or arrays of times.
        """
        vd = self.plant.desired_performance(ts)
        v = self.plant.lyapunov_value(xs[..., :self._n])
        return v / vd, des / (self._error_scale * np.sqrt(vd)), v, vd

    def budget(self, ts, j: int):
        """Bits still to launch, packet bound ``psi`` and capacity floor at times ts in slot j.

        bits and floor come from slot j's plan, inf where it has none.  ts is
        unchecked, so a breakpoint's right limit can be read under the next slot.
        """
        cap = self._slot_p(j)
        if cap is not None:
            return math.inf, cap, math.inf
        bits, floor = launch_budget(self.plans[j], ts)
        return bits, np.minimum(self.sched.caps[j], bits), floor

    def _slot_p(self, j: int):
        """``psi`` in slot j if it has no plan: the slot's cap, one int; None if it has one."""
        return self._caps[j] if self.plans[j] is None else None

    def psi(self, ts, j: int):
        """Packet bound (per-dimension bits) at times ts in slot j."""
        return self.budget(ts, j)[1]

    def l3(self, ts, eps, j: int, floor):
        """Bits needed to reach the next blackout's entry margin minus the budget.

        ``n (mu_inf (tau_l - t) / ln 2 + log2(eps / margin)) - sigma1 * S``
        with S the capacity floor ``budget(ts, j)[2]`` and ``tau_l`` the
        blackout start, where the plan's window ends; nonpositive means
        enough capacity remains, and ``-inf`` when slot j has no plan or
        eps is zero.
        """
        plan = self.plans[j]
        if plan is None:
            return -math.inf
        # The window holds slots j .. jb - 1 of the blackout jb it ends at.
        margin = self.entry_margins[j + plan.problem.num_slots]
        growth = self.plant.constants.growth_rate_inf * (plan.problem.end - ts)
        with np.errstate(divide="ignore"):
            log_eps = np.log2(eps)
        needed = self.plant.n * (growth / math.log(2.0) + log_eps - math.log2(margin))
        return needed - self.config.sigma1 * floor

    def terms(self, ts, h, eps, j: int):
        """``(gate, l1, l2, l3)`` at times ts in slot j, for ratios h and eps.

        ``l1`` and ``l2`` are ``perf_bound`` and the channel bound at
        ``T_M(p)`` for ``p = max(psi, 1)``, read from the per-p tables
        (``_bounds``).
        Scalars stay scalars.  Where the gate is off at every t no term is
        evaluated and all three read ``-inf``.
        """
        _, psi, floor = self.budget(ts, j)
        gate = psi >= 1
        if not (gate if isinstance(gate, bool) else gate.any()):
            return gate, -math.inf, -math.inf, -math.inf
        p = np.maximum(psi, 1).astype(int)  # psi never exceeds pmax
        return gate, *self._bounds(p, h, eps), self.l3(ts, eps, j, floor)

    def fires(self, ts, h, eps, j: int):
        """Where the rule fires: the gate holds and some term reaches its threshold."""
        p = self._slot_p(j)
        if p is not None:  # no plan: the gate is p >= 1, l3 is -inf
            if p < 1:
                return False
            l1, l2 = self._bounds(p, h, eps)
            return (l1 >= 1.0) | (l2 >= 1.0)
        gate, l1, l2, l3 = self.terms(ts, h, eps, j)
        return gate & ((l1 >= 1.0) | (l2 >= 1.0) | (l3 >= 0.0))

    def _bounds(self, p, h, eps, tables=None):
        """``(l1, l2)`` at ``tau = T_M(p)`` for ratios h and eps, from the tables: ``l1`` is
        ``perf_bound(tau)`` and ``l2``, the channel bound after a p-bit update tau ahead, is
        ``||e^{A tau}||_inf e^{(beta/2) tau} eps / rho_T(l1) / 2^p``, in that order of
        operations.  Given ``bound_tables(taus)``, they are read at ``taus[p]`` in place of
        ``T_M(p)``.

        Where l1 exceeds 1 the threshold is undefined and l2 bounds nothing; it is read
        under this one ``np.errstate``.
        """
        growth, decay, norms = self.tm_tables if tables is None else tables
        gap = self.plant.constants.guarded_decay_gap
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            l1 = (h + gap * eps / self._wm * growth[p]) / decay[p]
            rho = error_threshold(self.plant, self.config.lookahead, l1)
            return l1, norms[p] * eps / rho / self._pow2[p]

    def quiet(self, a, h, eps, b, j: int):
        """Where the rule cannot fire at any time of ``(a, b]`` in slot j, from h and eps at a.

        The bounds are the paper's comparison argument, valid while
        ``||x - x_hat||_inf <= d_e``: ``h' <= -w h + W eps sqrt(h)`` and eps
        grows at most at rate ``mu_inf``.  With ``tau = b - a``, on ``(a, b]``
        eps stays below ``E = eps e^{mu_inf tau}``, and h below ``H``, the
        larger of h and ``perf_bound(tau)`` at the growth rate ``mu_inf``
        (convex or increasing in its horizon, so largest at an end).  The rule
        is then read at that worst state, by ``terms``' own table step:

        - ``H`` must stay below 1;
        - for each p that ``max(psi, 1)`` takes (psi does not increase within
          a slot), ``(l1, l2) = _bounds(p, H, E)`` must stay below 1:
          ``perf_bound`` rises with h and eps, and the channel bound with its
          perf bound and eps;
        - ``l3`` stays below its value at a with the capacity floor at b.

        h and eps enter raised by ``_CERT_MARGIN`` to absorb rounding, and
        the gate is not read, which only makes the test stricter.  a, h, eps
        and b are arrays, one entry per stretch.
        """
        c = self.plant.constants
        h, eps = h * (1.0 + _CERT_MARGIN), eps * (1.0 + _CERT_MARGIN)
        tau = b - a
        worst_eps = eps * np.exp(c.growth_rate_inf * tau)
        worst_h = np.maximum(h, perf_bound(self.plant, tau, h, eps, c.growth_rate_inf))
        p = self._slot_p(j)
        if p is not None:  # no plan: psi is p throughout, so P is 1, and l3 is -inf
            l1, l2 = self._bounds(max(p, 1), worst_h, worst_eps)
            return np.maximum(worst_h, np.maximum(l1, l2)) < 1.0
        _, psi_a, _ = self.budget(a, j)
        _, psi_b, floor_b = self.budget(b, j)
        p_hi, p_lo = np.maximum(psi_a, 1), np.maximum(psi_b, 1)
        # One (P, N) pass over every p any stretch takes; each stretch keeps its own range.
        ps = np.arange(int(p_lo.min()), int(p_hi.max()) + 1)[:, None]
        l1, l2 = self._bounds(ps, worst_h, worst_eps)
        in_range = (p_lo <= ps) & (ps <= p_hi)
        worst = np.maximum(worst_h, np.where(in_range, np.maximum(l1, l2), -np.inf).max(axis=0))
        return (worst < 1.0) & (self.l3(a, eps, j, floor_b) < 0.0)


# ---------------------------------------------------------------------------
# engine


class _Engine:
    def __init__(self, scenario: Scenario, on_rows=None):
        self.scn = scenario
        self.on_rows = on_rows
        self.plant = scenario.plant
        self.sched = scenario.schedule
        self.rule = scenario.rule
        self.n = self.plant.n
        self.horizon = scenario.horizon
        # A time at or past the cut is the horizon: no sample, send or update lies there.
        self.cut = self.horizon - ROOT_TOL
        self.blackouts = self.sched.blackout_slots()
        if self.rule.pmax < 1:
            raise ConfigurationError("schedule has no usable slot")

        A, B, K, Abar = self.plant.A, self.plant.B, self.plant.K, self.plant.Abar
        self.exp_block = ExpKernel(np.block([[A, B @ K], [np.zeros_like(A), Abar]]))

        self.scan_step = min(float(np.min(self.sched.durations)) / 50.0, self.rule.tm[1] / 10.0)
        # The fire search grids the slot that holds the horizon to its end.
        scan_end = float(self.sched.theta[self.sched.slot_at(self.horizon) + 1])
        if scan_end / self.scan_step >= _MAX_SCAN_POINTS:
            raise ConfigurationError(f"the default scan step {self.scan_step:.3g} gives "
                                     "2^53 or more scan points over the horizon")
        self.sample_step = scenario.sample_step

        # mutable run state
        self.t = 0.0
        self.x_aug = np.concatenate([scenario.x0, scenario.x_hat0])
        self.enc = codec_mod.initial_state(scenario.x_hat0, scenario.d_e0)
        self.dec = codec_mod.initial_state(scenario.x_hat0, scenario.d_e0)
        self.transmissions: list[Transmission] = []
        self.rows: list[np.ndarray] = []
        self._rate_tables: dict[float, tuple] = {}  # _min_bits' bound tables at p / R, by R
        self._ps = np.arange(1, self.rule.pmax + 1)
        # Work of all fire searches: rule evaluations (calls and the times they cover), and
        # the stretches of the scan grid the certificate skipped or left to the scan.
        self.work = dict.fromkeys(
            ("rule_points", "rule_calls", "certified_intervals", "scanned_intervals"), 0)
        grid = np.arange(1, int(np.floor(self.horizon / self.sample_step)) + 1) * self.sample_step
        self.sample_times = grid[grid < self.cut]
        self._sample_idx = 0

    # -- fire location ---------------------------------------------------------

    def _locate_fire(self, t_start: float):
        """Next send time at or after t_start, or None if there is none before the horizon.

        The send uses the values of slot ``sched.slot_at(t)``, the one
        ``validate_sequence`` checks; a firing driven by the right limit at
        a breakpoint whose own gate fails is nudged just inside the next slot.

        Each slot's fixed-step grid, from the cursor to the slot's end (not
        the horizon's) in steps of at most ``scan_step``, is searched by
        ``first_crossing`` with ``EventRule.quiet`` as its certificate
        (t_start is a recorded row, so the codec invariant holds there).  A
        hit at or past ``cut = horizon - ROOT_TOL`` is dropped, so a run cut at an
        earlier horizon is a prefix of the longer one.  Every evaluation
        reads the state through one ``ExpKernel.flow`` from t_start.  Blackout
        slots are skipped: no send, so the rule need not be evaluated there.
        """
        flow, work, plant, rule = self.exp_block.flow(self.x_aug), self.work, self.plant, self.rule
        levels, d_e = rule.levels, self.enc.d_e

        def ratios(ts):
            return levels(ts, flow(np.subtract(ts, t_start)), d_e(plant, ts))[:2]

        def fires(ts, j: int):
            work["rule_calls"] += 1
            work["rule_points"] += np.size(ts)
            return rule.fires(ts, *ratios(ts), j)

        def quiet(nodes, j: int):
            certified = rule.quiet(nodes[:-1], *ratios(nodes[:-1]), nodes[1:], j)
            work["certified_intervals"] += int(np.count_nonzero(certified))
            work["scanned_intervals"] += certified.size - int(np.count_nonzero(certified))
            return certified

        cursor = t_start
        while cursor < self.cut:
            j = self.sched.right_slot_index(cursor)
            # Explicit test at the segment start: left slot values when the
            # cursor is mid-slot or a right-closed boundary, then the right
            # limit when the cursor sits on a breakpoint.
            j_left = self.sched.slot_at(cursor)
            if cursor == t_start and fires(cursor, j_left):
                return cursor
            if j != j_left and fires(cursor, j):
                # The right limit fired: send at the breakpoint, under the old slot's
                # values, if its gate is on there, else just inside the next slot.
                if self.rule.psi(cursor, j_left) >= 1:
                    return cursor
                return min(cursor + _NUDGE, self.horizon)
            seg_end = float(self.sched.theta[j + 1])
            if self.sched.caps[j] > 0:
                count = max(1, int(math.ceil((seg_end - cursor) / self.scan_step)))
                found = first_crossing(lambda s: fires(s, j), cursor, seg_end, count,
                                       ROOT_TOL, lambda nodes: quiet(nodes, j))
                if found is not None:
                    # Send at the last pre-crossing instant: there the channel
                    # bound is still strictly below 1, so the required bit count
                    # is guaranteed to fit the allowed packet size.
                    return found[0] if found[0] < self.cut else None
            cursor = seg_end
        return None

    # -- update location --------------------------------------------------------

    def _locate_update(self, r: float) -> float:
        """Earliest admissible controller-update time at or after a reception."""
        j = self.sched.slot_at(r)
        if self.sched.caps[j] == 0 or self.rule.psi(r, j) >= 1:
            return r
        for jn in range(j + 1, self.sched.num_slots):
            theta = float(self.sched.theta[jn])
            if theta >= self.horizon:
                break
            if self.sched.caps[jn] == 0 or self.rule.psi(theta, jn) >= 1:
                return theta
        return self.horizon

    # -- advancing and recording --------------------------------------------------

    def _record(self, ts: np.ndarray, xs: np.ndarray, des: np.ndarray):
        """Append one trace row per time in ts, at augmented state xs and error bound des.

        Raises at the earliest row whose performance ratio exceeds 1 or,
        failing that, whose estimate error exceeds its bound.  The block of
        rows appended, a C-ordered float64 array of the trace CSV's columns,
        is also passed to ``on_rows`` when the engine has one (the CLI's
        streamed trace writer), so it sees every row the trace will hold, in
        order; a row that raises is in neither.
        """
        n = self.n
        h, eps, v, vd = self.rule.levels(ts, xs, des)
        err = np.maximum.reduce(np.abs(xs[:, :n] - xs[:, n:]), axis=1)
        perf_bad = h > 1.0
        bad = np.flatnonzero(perf_bad | codec_mod.exceeds_bound(err, des))
        if bad.size:
            i = bad[0]
            if perf_bad[i]:
                raise ObjectiveViolationError(f"performance ratio {h[i]} exceeds 1 at t={ts[i]}")
            raise InvariantBreachError(
                f"estimate error {err[i]} exceeds bound {des[i]} at t={ts[i]}")
        # columns: t, x, x_hat, then TRACE_COLUMNS
        row = np.empty((ts.size, 1 + 2 * n + len(TRACE_COLUMNS)))
        row[:, 0], row[:, 1:1 + 2 * n] = ts, xs
        cols, cap_cols = row[:, 1 + 2 * n:].T, row[:, -4:]
        rho = error_threshold(self.plant, self.scn.trigger.lookahead, h)
        cols[0], cols[1], cols[2], cols[3], cols[4], cols[5] = v, vd, h, eps, eps / rho, des
        cap_cols.fill(np.nan)
        if self.blackouts:
            js = self.sched.slot_at(ts)
            for j in sorted(set(js.tolist())):
                rows = js == j
                bits, psi, floor = self.rule.budget(ts[rows], j)
                cap_cols[rows, 0], cap_cols[rows, 1], cap_cols[rows, 2] = bits, psi, floor
                cap_cols[rows, 3] = self.rule.l3(ts[rows], eps[rows], j, floor)
        self.rows.append(row)
        if self.on_rows is not None:
            self.on_rows(row)

    def _advance(self, t_target: float, record_end: bool = True) -> float | None:
        """Propagate exactly to t_target, recording samples and breakpoints.

        Returns ``d_e`` at t_target from the row recorded there, or None if none was.
        """
        if t_target < self.t - ROOT_TOL:
            raise DomainError("cannot advance backwards")
        samples, theta, i = self.sample_times, self.sched.theta, self._sample_idx
        self._sample_idx = max(i, int(np.searchsorted(samples, t_target + 1e-15, "right")))
        ts = samples[i:self._sample_idx]  # i is past every sample up to self.t
        inner = theta[(self.t < theta) & (theta < t_target)]
        if inner.size:  # a sample may fall on a breakpoint: one row for both.  Python's sort,
            # as np.sort's first call pages in ~0.2 MiB of numpy's vectorised sort code.
            ts = np.array(sorted(set(ts.tolist() + inner.tolist())))
        flow, t0 = self.exp_block.flow(self.x_aug), self.t
        if t_target > t0:
            self.x_aug = flow(t_target - t0)
            self.t = t_target
            if record_end:
                ts = np.append(ts, t_target)
        if not ts.size:
            return None
        des = self.enc.d_e(self.plant, ts)
        self._record(ts, flow(ts - t0), des)
        return float(des[-1]) if ts[-1] == t_target else None

    # -- packet sizing ---------------------------------------------------------

    def _min_bits(self, h: float, eps: float, rate: float) -> int | None:
        """Smallest bit count whose channel bound stays at or below 1.

        The bound is ``EventRule._bounds``' l2 at ``T_M(p)`` with blackouts and at ``p / rate``
        without, from tables built once per rate.
        """
        if self.blackouts:
            tables = self.rule.tm_tables
        elif (tables := self._rate_tables.get(rate)) is None:
            tables = self._rate_tables[rate] = self.rule.bound_tables(
                np.arange(self.rule.pmax + 1) / rate)
        fits = np.flatnonzero(self.rule._bounds(self._ps, h, eps, tables)[1] <= 1.0)
        return int(self._ps[fits[0]]) if fits.size else None

    def _fire(self, t: float, de: float):
        """Send at t, in slot ``slot_at(t)``, with ``de = d_e(t)``: the packet, its reception
        time and h, eps at t."""
        x, j = self.x_aug[:self.n], self.sched.slot_at(t)
        h, eps = map(float, self.rule.levels(t, self.x_aug, de)[:2])
        rate = float(self.sched.rates[j])
        cap_eff = int(self.rule.psi(t, j))
        p_lo = self._min_bits(h, eps, rate)
        if p_lo is None or p_lo > cap_eff:
            raise GuaranteeBreachError(
                f"required bits {p_lo} exceed allowed {cap_eff} at t={t}",
                state={"t": t, "h_pf": h, "eps": eps, "cap": cap_eff, "p_lo": p_lo, "slot": j})
        p = cap_eff if self.scn.packet_policy == POLICY_MAX else p_lo
        pkt = codec_mod.encode(self.plant, x, self.enc, p, t, de)
        self.enc = codec_mod.mark_in_flight(self.enc)
        return pkt, t + self.scn.delay_factor * (p / rate), h, eps

    def _apply_update(self, pkt, r: float, r_tilde: float, h_tx: float, eps_tx: float,
                      de_tx: float):
        """Apply the packet sent at ``pkt.t_k``, where ``d_e`` was de_tx, at r_tilde."""
        self.enc = codec_mod.decode_and_update(self.plant, pkt, self.enc, r_tilde, de_tx)
        self.dec = codec_mod.decode_and_update(self.plant, pkt, self.dec, r_tilde, de_tx)
        if not (np.array_equal(self.enc.x_hat, self.dec.x_hat)
                and self.enc.step == self.dec.step):
            raise InvariantBreachError("encoder and decoder replicas diverged")
        self.x_aug = np.concatenate([self.x_aug[:self.n], self.enc.x_hat])
        de = self.enc.d_e(self.plant, r_tilde)
        h, eps = self.rule.levels(r_tilde, self.x_aug, de)[:2]
        h_ch = eps / error_threshold(self.plant, self.scn.trigger.lookahead, h)
        self.transmissions.append(Transmission(
            k=len(self.transmissions) + 1, t_k=pkt.t_k, p_k=pkt.p_k,
            r_k=r, r_tilde_k=r_tilde, h_pf_tx=h_tx, eps_tx=eps_tx,
            h_ch_update=float(h_ch), eps_update=float(eps), symbols=pkt.symbols))
        self._record(np.array([r_tilde]), self.x_aug[None], np.array([de]))

    # -- main loop ----------------------------------------------------------------

    def run(self) -> SimTrace:
        """The checked trace of the run; a breach found in it carries the trace so far."""
        try:
            self._record(np.zeros(1), self.x_aug[None], np.array([self.enc.d_e(self.plant, 0.0)]))
            while (t := self._locate_fire(self.t)) is not None:
                # d_e at the send, computed once: its row's, or, when t is the time of the
                # last row, which is not recorded again, computed here.
                de = self._advance(t)
                if de is None:
                    de = self.enc.d_e(self.plant, t)
                pkt, r, h, eps = self._fire(t, de)
                if r >= self.cut:
                    break
                self._advance(r)
                r_tilde = self._locate_update(r)
                if r_tilde >= self.cut:
                    break
                self._advance(r_tilde, record_end=False)
                self._apply_update(pkt, r, r_tilde, h, eps, de)
            self._advance(self.horizon)
            trace = self._build_trace()
            validate_sequence(self.transmissions, self.sched)
            self._check_entry_margins(trace)
            return trace
        except (ObjectiveViolationError, GuaranteeBreachError) as exc:
            exc.trace = self._build_trace()
            raise

    def _build_trace(self) -> SimTrace:
        rows = np.concatenate([np.empty((0, 1 + 2 * self.n + len(TRACE_COLUMNS))), *self.rows])
        trace = SimTrace(rows, self.transmissions, self.horizon, self.scan_step)
        trace.stats = summarize(trace, self.sched)
        trace.stats["diagnostics"] = {"work": dict(self.work)}
        return trace

    def _check_entry_margins(self, trace: SimTrace):
        """Raise unless eps is within its entry margin at each blackout start before the horizon.

        The row read is the last one at the blackout start ``tau_l``, after
        any update there.
        """
        for b in self.sched.blackout_slots():
            tau_l = float(self.sched.theta[b])
            if tau_l >= self.horizon:
                break
            at = np.flatnonzero(trace.t == tau_l)
            if not at.size:
                raise GuaranteeBreachError(f"no trace row at the blackout start t={tau_l}")
            eps, margin = float(trace.eps[at[-1]]), self.rule.entry_margins[b]
            if not eps <= margin:
                raise GuaranteeBreachError(
                    f"error ratio {eps} exceeds the entry margin {margin} of the blackout "
                    f"at t={tau_l}", state={"t": tau_l, "eps": eps, "margin": margin, "slot": b})


def run(scenario: Scenario, force: bool = False, on_rows=None) -> SimTrace:
    """Simulate a scenario; unless forced, check its admissibility conditions first.

    ``on_rows``, if given, is called with each block of trace rows as the
    engine records it (``_Engine._record``): the CLI streams long runs'
    trace CSV to a forked writer through it, while the run goes on.
    """
    if not force:
        report = check_admissibility(scenario)
        if not report.ok:
            raise AdmissibilityError(report)
    return _Engine(scenario, on_rows).run()


# ---------------------------------------------------------------------------
# statistics


def summarize(trace: SimTrace, schedule: ChannelSchedule) -> dict:
    """Transmission statistics plus the safety margins seen along the run."""
    txs = trace.transmissions
    n = schedule.n
    count = len(txs)
    times = [tx.t_k for tx in txs]
    intervals = np.diff(times) if count >= 2 else np.array([])
    total_bits = n * sum(tx.p_k for tx in txs)
    windows = []
    lo = 0.0
    for b in schedule.blackout_slots():
        tau_l, tau_u = float(schedule.theta[b]), float(schedule.theta[b + 1])
        if tau_l >= trace.horizon:
            break
        windows.append((lo, tau_l))
        lo = min(tau_u, trace.horizon)
    windows.append((lo, trace.horizon))
    bits_per_window = [n * sum(tx.p_k for tx in txs if lo <= tx.t_k <= hi)
                       for lo, hi in windows]
    return {
        "transmission_count": count,
        "mean_intertransmission": float(np.mean(intervals)) if intervals.size else None,
        "min_intertransmission": float(np.min(intervals)) if intervals.size else None,
        "bits_per_unit_time": total_bits / trace.horizon if trace.horizon > 0 else 0.0,
        "total_bits": int(total_bits),
        "max_h_pf": float(np.max(trace.h_pf)) if trace.t.size else None,
        "min_de_margin": (float(np.min(trace.d_e - np.max(np.abs(trace.x - trace.x_hat), axis=1)))
                          if trace.t.size else None),
        "bits_per_window": bits_per_window,
        "windows": [[float(lo), float(hi)] for lo, hi in windows],
    }
