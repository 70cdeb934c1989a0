"""Deterministic closed-loop discrete-event simulator.

The plant, estimate and error bound all admit closed-form propagation,
so there is no integrator error: segments between events are evaluated
by one exponential kernel of the block dynamics, built once per engine
and called on whole arrays of times, and event times are found as the
first crossing of the rule along each slot's fixed-step grid
(``triggers.first_crossing``: a chunked scan refined by bisection), with
channel breakpoints and their right limits always evaluated explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import codec as codec_mod
from .capacity import CapacityPlanner
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
    TriggerConfig,
    blackout_entry_margin,
    channel_bound,
    error_threshold,
    exp_growth_inf,
    first_crossing,
    perf_bound,
    trigger_constants,
)

_TIME_TOL = 1e-9
_NUDGE = 1e-9

MODE_NO_BLACKOUT = "no_blackout"
MODE_BLACKOUT = "blackout"
POLICY_MAX = "max_bits"
POLICY_MIN = "min_bits"

# Trace columns recorded after t, x and x_hat, in row order.
_ROW_COLUMNS = ("V", "Vd", "h_pf", "eps", "h_ch", "d_e", "phi", "psi", "s_hat", "l3")


# ---------------------------------------------------------------------------
# scenario


@dataclass(frozen=True)
class Scenario:
    """Complete description of one closed-loop run."""

    plant: PlantModel
    schedule: ChannelSchedule
    trigger: TriggerConfig
    mode: str
    x0: np.ndarray
    x_hat0: np.ndarray
    d_e0: float
    delay_factor: float = 1.0
    packet_policy: str = POLICY_MAX
    horizon: float | None = None
    scan_step: float | None = None
    sample_step: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        object.__setattr__(self, "x_hat0", np.asarray(self.x_hat0, dtype=float))
        n = self.plant.n
        if self.x0.shape != (n,) or self.x_hat0.shape != (n,):
            raise ConfigurationError("x0 and x_hat0 must be length-n vectors")
        if self.schedule.n != n:
            raise ConfigurationError("channel and plant state dimensions differ")
        if self.mode not in (MODE_NO_BLACKOUT, MODE_BLACKOUT):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.packet_policy not in (POLICY_MAX, POLICY_MIN):
            raise ConfigurationError(f"unknown packet policy {self.packet_policy!r}")
        if not 0.0 <= self.delay_factor <= 1.0:
            raise ConfigurationError("delay_factor must lie in [0, 1]")
        for name in ("scan_step", "sample_step"):
            step = getattr(self, name)
            if step is not None and not step > 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.d_e0 < inf_norm(self.x0 - self.x_hat0):
            raise ConfigurationError("d_e0 must dominate the initial estimate error")
        if self.schedule.start != 0.0:
            raise ConfigurationError("schedule must start at t0 = 0")
        horizon = self.schedule.end if self.horizon is None else self.horizon
        if not 0.0 < horizon <= self.schedule.end:
            raise ConfigurationError("horizon must lie within the channel schedule")
        object.__setattr__(self, "horizon", float(horizon))

    @cached_property
    def rule(self) -> EventRule:
        """The event rule, built once and shared by admissibility and the engine."""
        return EventRule(self)


@dataclass(frozen=True)
class Transmission(TransmissionRecord):
    """One realized transmission with the trigger quantities at its endpoints.

    Carries the packet's quantizer symbols so a trace can be audited
    against an independent decoder replica.
    """

    k: int
    h_pf_tx: float
    eps_tx: float
    h_ch_update: float | None = None
    eps_update: float | None = None
    symbols: tuple[int, ...] = ()


@dataclass
class SimTrace:
    """Sampled closed-loop trajectory plus the transmission log."""

    t: np.ndarray
    x: np.ndarray
    x_hat: np.ndarray
    V: np.ndarray
    Vd: np.ndarray
    h_pf: np.ndarray
    eps: np.ndarray
    h_ch: np.ndarray
    d_e: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    s_hat: np.ndarray
    l3: np.ndarray
    transmissions: list[Transmission]
    mode: str
    horizon: float
    scan_step: float
    sample_step: float
    stats: dict = field(default_factory=dict)


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
    """Evaluate every mode-specific feasibility condition with witnesses."""
    sched, rule = scenario.schedule, scenario.rule
    checks: list[CheckResult] = []

    h0, eps0 = rule.ratios(0.0, scenario.x0, scenario.d_e0)
    j0 = sched.right_slot_index(0.0)
    cap0 = int(sched.caps[j0])

    if scenario.mode == MODE_NO_BLACKOUT:
        bad = [(float(sched.theta[j]), int(sched.caps[j]))
               for j in range(sched.num_slots) if sched.caps[j] < 1]
        checks.append(CheckResult("packet_cap_positive", not bad, tuple(bad),
                                  "every slot must allow at least one bit"))
        bad = []
        for j in range(sched.num_slots):
            for p in range(1, int(sched.caps[j]) + 1):
                if sched.rates[j] < p / rule.tm[p]:
                    bad.append((float(sched.theta[j]), p))
        checks.append(CheckResult("rate_supports_delays", not bad, tuple(bad),
                                  "need R >= p / T_M(p) for p up to the slot cap"))
    else:
        bad = []
        for j in range(sched.num_slots):
            if sched.caps[j] == 0:
                continue  # blackout slot: its rate is never used for transmission
            for p in range(1, rule.pmax + 1):
                if sched.rates[j] < (p + 2) / rule.tm[p]:
                    bad.append((float(sched.theta[j]), p))
        checks.append(CheckResult("rate_supports_delays", not bad, tuple(bad),
                                  "need R >= (p+2) / T_M(p) for p up to the global cap"))
        checks.append(CheckResult("initial_cap_positive", cap0 >= 1, ((0.0, cap0),),
                                  "the channel must be usable at t0"))

    if cap0 >= 1:
        gate, l1, l2, _ = rule.terms(0.0, h0, eps0, j0)
        if gate:
            ok, witness = l1 <= 1.0 and l2 <= 1.0, (0.0, float(l1), float(l2))
        else:
            ok, witness = False, (0.0, int(rule.psi(0.0, j0)))
        checks.append(CheckResult("initial_triggers", ok, (witness,),
                                  "psi must allow a bit and l1, l2 must start at or below 1"))

    if scenario.mode == MODE_BLACKOUT:
        l3 = float(rule.l3(0.0, eps0, j0))
        checks.append(CheckResult("initial_capacity", l3 <= 0.0, ((0.0, l3),),
                                  "enough capacity must remain before the first blackout"))
        bad = []
        for b in sched.blackout_slots():
            tau_u = float(sched.theta[b + 1])
            if tau_u >= scenario.horizon or b + 1 >= sched.num_slots:
                continue
            l3 = float(rule.l3(tau_u, 1.0, b + 1))
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
    that fits ``psi``.  ``psi`` is the slot's packet cap in no-blackout
    mode and the capacity planner's packet bound in blackout mode; ``l3``
    is ``-inf`` in no-blackout mode and when no blackout lies ahead.

    The rule reads a state through its ratios (``ratios``).  Its constant
    table is built once, for every p up to the largest packet cap: the
    unit violation time ``gamma1``, the delay floors, ``T_M(p)`` and
    ``||e^{A T_M}||_inf e^{(beta/2) T_M}``, indexed by p.
    """

    def __init__(self, scenario: Scenario):
        self.plant = scenario.plant
        self.sched = scenario.schedule
        self.config = scenario.trigger
        self.planner = (CapacityPlanner(self.sched) if scenario.mode == MODE_BLACKOUT
                        else None)
        self.pmax = int(self.sched.caps.max())
        self.gamma1, self.delay_floor, self.tm = trigger_constants(
            self.plant, self.config, self.pmax)
        self.exp_norm_tm = np.full(self.pmax + 1, np.nan)
        self.exp_norm_tm[1:] = exp_growth_inf(self.plant, self.tm[1:])

    def ratios(self, ts, xs, des):
        """Performance ratio ``h = V(x)/V_d(t)`` and error ratio ``eps = d_e/(c sqrt(V_d(t)))``.

        ts, the states xs (one per row; only the first n entries, the
        plant state, are read) and the error bounds des may be one time
        or arrays of times.
        """
        vd = self.plant.desired_performance(ts)
        h = self.plant.lyapunov_value(xs[..., :self.plant.n]) / vd
        return h, des / (self.plant.constants.error_scale * np.sqrt(vd))

    def psi(self, ts, j: int, budget=None):
        """Packet bound (per-dimension bits) at times ts in slot j; budget as in ``l3``."""
        if self.planner is None:
            return int(self.sched.caps[j])
        _, bits, _ = budget or self.planner.budget(j, ts)
        return np.minimum(self.sched.caps[j], bits)

    def l3(self, ts, eps, j: int, budget=None):
        """Bits needed to reach the next blackout's entry margin minus the budget.

        ``n (mu_inf (tau_l - t) / ln 2 + log2(eps / margin)) - sigma1 * S``
        with S the capacity floor; nonpositive means enough capacity
        remains, and ``-inf`` when no blackout lies ahead or eps is zero.
        budget, when given, is ``planner.budget(j, ts)`` already computed.
        """
        if self.planner is None:
            return -math.inf
        view, _, floor = budget or self.planner.budget(j, ts)
        if view.plan is None:
            return -math.inf
        margin = blackout_entry_margin(self.plant, view.blackout_len)
        growth = self.plant.constants.growth_rate_inf * (view.tau_l - ts)
        with np.errstate(divide="ignore"):
            log_eps = np.log2(eps)
        needed = self.plant.n * (growth / math.log(2.0) + log_eps - math.log2(margin))
        return needed - self.config.sigma1 * floor

    def terms(self, ts, h, eps, j: int):
        """``(gate, l1, l2, l3)`` at times ts in slot j, for ratios h and eps.

        Scalars stay scalars.  Where the gate is off at every t no term is
        evaluated and all three read ``-inf``.
        """
        budget = None if self.planner is None else self.planner.budget(j, ts)
        psi = self.psi(ts, j, budget)
        gate = psi >= 1
        if not np.any(gate):
            return gate, -math.inf, -math.inf, -math.inf
        p = np.clip(psi, 1, self.pmax).astype(int)
        tm = self.tm[p]
        l1 = perf_bound(self.plant, tm, h, eps)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            l2 = channel_bound(self.plant, self.config.lookahead, tm, h, eps, p,
                               exp_norm=self.exp_norm_tm[p], hbar=l1, check_domain=False)
            l3 = self.l3(ts, eps, j, budget)
        return gate, l1, l2, l3

    def fires(self, ts, h, eps, j: int):
        """Where the rule fires: the gate holds and some term reaches its threshold."""
        gate, l1, l2, l3 = self.terms(ts, h, eps, j)
        return gate & ((l1 >= 1.0) | (l2 >= 1.0) | (l3 >= 0.0))


# ---------------------------------------------------------------------------
# engine


class _Engine:
    def __init__(self, scenario: Scenario):
        self.scn = scenario
        self.plant = scenario.plant
        self.sched = scenario.schedule
        self.rule = scenario.rule
        self.n = self.plant.n
        self.horizon = scenario.horizon
        self.blackout_mode = scenario.mode == MODE_BLACKOUT
        if self.rule.pmax < 1:
            raise ConfigurationError("schedule has no usable slot")

        A, B, K, Abar = self.plant.A, self.plant.B, self.plant.K, self.plant.Abar
        self.exp_block = ExpKernel(np.block([[A, B @ K], [np.zeros_like(A), Abar]]))

        if scenario.scan_step is not None:
            self.scan_step = scenario.scan_step
        else:
            self.scan_step = min(float(np.min(self.sched.durations())) / 50.0,
                                 self.rule.tm[1] / 10.0)
        self.sample_step = (scenario.sample_step if scenario.sample_step is not None
                            else self.horizon / 2000.0)

        # mutable run state
        self.t = 0.0
        self.x_aug = np.concatenate([scenario.x0, scenario.x_hat0])
        self.enc = codec_mod.initial_state(scenario.x_hat0, scenario.d_e0, 0.0)
        self.dec = codec_mod.initial_state(scenario.x_hat0, scenario.d_e0, 0.0)
        self.pending: tuple | None = None
        self.transmissions: list[Transmission] = []
        self.rows: list[np.ndarray] = []
        grid = np.arange(1, int(np.floor(self.horizon / self.sample_step)) + 1) * self.sample_step
        self.sample_times = grid[grid < self.horizon - _TIME_TOL]
        self._sample_idx = 0

    # -- fire location ---------------------------------------------------------

    def _locate_fire(self, t_start: float):
        """Next transmit time at or after t_start, or None before the horizon.

        Returns (time, slot_index) with the slot whose channel values the
        transmission uses; right-limit-driven firings at a breakpoint
        whose own gate fails are nudged just inside the next slot.

        Each slot's fixed-step grid is searched by ``first_crossing``.
        Blackout slots are skipped: no send, so the rule need not be
        evaluated there.
        """
        anchor_x = self.x_aug.copy()

        def fires(ts, j: int):
            xs = self.exp_block.apply(np.subtract(ts, t_start), anchor_x)
            h, eps = self.rule.ratios(ts, xs, self.enc.d_e(self.plant, ts))
            return self.rule.fires(ts, h, eps, j)

        cursor = t_start
        while cursor < self.horizon - _TIME_TOL:
            j = self.sched.right_slot_index(cursor) if cursor < self.sched.end else None
            if j is None:
                return None
            # Explicit test at the segment start: left slot values when the
            # cursor is mid-slot or a right-closed boundary, then the right
            # limit when the cursor sits on a breakpoint.
            j_left = self.sched.slot_at(cursor)
            if cursor == t_start and fires(cursor, j_left):
                return cursor, j_left
            if j != j_left and fires(cursor, j):
                if self.rule.psi(cursor, j_left) >= 1:
                    # Right-limit term fired while the breakpoint itself is
                    # admissible: transmit at it under the old slot's values.
                    return cursor, j_left
                # Otherwise the rule is first satisfied just inside the next
                # slot; nudge the transmit time so slot attribution, rate and
                # validation stay consistent.
                return min(cursor + _NUDGE, self.horizon), j
            seg_end = min(float(self.sched.theta[j + 1]), self.horizon)
            count = max(1, int(math.ceil((seg_end - cursor) / self.scan_step)))
            grid = np.linspace(cursor, seg_end, count + 1)[1:]
            if self.sched.caps[j] > 0:
                found = first_crossing(lambda s: fires(s, j), cursor, grid, _TIME_TOL)
                if found is not None:
                    # Transmit at the last pre-crossing instant: there the channel
                    # bound is still strictly below 1, so the required bit count
                    # is guaranteed to fit the allowed packet size.
                    return found[0], j
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
        failing that, whose estimate error exceeds its bound.
        """
        n = self.n
        h, eps = self.rule.ratios(ts, xs, des)
        err = np.max(np.abs(xs[:, :n] - xs[:, n:]), axis=1)
        perf_bad = h > 1.0
        bad = np.flatnonzero(perf_bad | (err > des * (1.0 + 1e-9) + 1e-300))
        if bad.size:
            i = bad[0]
            if perf_bad[i]:
                raise ObjectiveViolationError(f"performance ratio {h[i]} exceeds 1 at t={ts[i]}")
            raise InvariantBreachError(
                f"estimate error {err[i]} exceeds bound {des[i]} at t={ts[i]}")
        cap_cols = np.full((ts.size, 4), np.nan)
        if self.blackout_mode:
            planner = self.rule.planner
            js = self.sched.slot_at(ts)
            for j in np.unique(js).tolist():
                rows = js == j
                t = ts[rows]
                budget = planner.budget(j, t)
                cap_cols[rows, 0], cap_cols[rows, 2] = budget[1], budget[2]
                cap_cols[rows, 1] = self.rule.psi(t, j, budget)
                cap_cols[rows, 3] = self.rule.l3(t, eps[rows], j, budget)
        rho = error_threshold(self.plant, self.scn.trigger.lookahead, h)
        # columns: t, x, x_hat, then _ROW_COLUMNS
        self.rows.append(np.column_stack([
            ts, xs, self.plant.lyapunov_value(xs[:, :n]), self.plant.desired_performance(ts),
            h, eps, eps / rho, des, cap_cols]))

    def _advance(self, t_target: float, record_end: bool = True):
        """Propagate exactly to t_target, recording samples and breakpoints."""
        if t_target < self.t - _TIME_TOL:
            raise DomainError("cannot advance backwards")
        pts = []
        while (self._sample_idx < self.sample_times.size
               and self.sample_times[self._sample_idx] <= t_target + 1e-15):
            s = float(self.sample_times[self._sample_idx])
            if s > self.t:
                pts.append(s)
            self._sample_idx += 1
        for theta in self.sched.theta:
            if self.t < theta < t_target:
                pts.append(float(theta))
        ts = np.array(sorted(set(pts)))
        anchor_t, anchor_x = self.t, self.x_aug
        if t_target > anchor_t:
            self.x_aug = self.exp_block.apply(t_target - anchor_t, anchor_x)
            self.t = t_target
            if record_end:
                ts = np.append(ts, t_target)
        if ts.size:
            self._record(ts, self.exp_block.apply(ts - anchor_t, anchor_x),
                         self.enc.d_e(self.plant, ts))

    # -- packet sizing ---------------------------------------------------------

    def _min_bits(self, h: float, eps: float, rate: float) -> int | None:
        """Smallest bit count whose channel bound stays at or below 1."""
        ps = np.arange(1, self.rule.pmax + 1)
        taus = self.rule.tm[ps] if self.blackout_mode else ps / rate
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = channel_bound(self.plant, self.scn.trigger.lookahead, taus, h, eps, ps,
                                 check_domain=False)
        fits = np.flatnonzero(vals <= 1.0)
        return int(ps[fits[0]]) if fits.size else None

    def _fire(self, t: float, j: int):
        x = self.x_aug[:self.n]
        h, eps = map(float, self.rule.ratios(t, self.x_aug, self.enc.d_e(self.plant, t)))
        rate = float(self.sched.rates[j])
        cap_eff = int(self.rule.psi(t, j))
        p_lo = self._min_bits(h, eps, rate)
        if p_lo is None or p_lo > cap_eff:
            raise GuaranteeBreachError(
                f"required bits {p_lo} exceed allowed {cap_eff} at t={t}",
                state={"t": t, "h_pf": h, "eps": eps, "cap": cap_eff, "p_lo": p_lo,
                       "slot": j, "mode": self.scn.mode})
        p = cap_eff if self.scn.packet_policy == POLICY_MAX else p_lo
        pkt = codec_mod.encode(self.plant, x, self.enc, p, t)
        self.enc = codec_mod.mark_in_flight(self.enc)
        r = t + self.scn.delay_factor * (p / rate)
        self.pending = (pkt, r, h, eps)

    def _apply_update(self, r: float, r_tilde: float):
        pkt, _, h_tx, eps_tx = self.pending
        self.enc = codec_mod.decode_and_update(self.plant, pkt, self.enc, r_tilde)
        self.dec = codec_mod.decode_and_update(self.plant, pkt, self.dec, r_tilde)
        if not (np.array_equal(self.enc.x_hat, self.dec.x_hat)
                and self.enc.step == self.dec.step):
            raise InvariantBreachError("encoder and decoder replicas diverged")
        self.x_aug = np.concatenate([self.x_aug[:self.n], self.enc.x_hat])
        de = self.enc.d_e(self.plant, r_tilde)
        h, eps = self.rule.ratios(r_tilde, self.x_aug, de)
        h_ch = eps / error_threshold(self.plant, self.scn.trigger.lookahead, h)
        self.transmissions.append(Transmission(
            k=len(self.transmissions) + 1, t_k=pkt.t_k, p_k=pkt.p_k,
            r_k=r, r_tilde_k=r_tilde, h_pf_tx=h_tx, eps_tx=eps_tx,
            h_ch_update=float(h_ch), eps_update=float(eps), symbols=pkt.symbols))
        self.pending = None
        self._record(np.array([r_tilde]), self.x_aug[None], np.array([de]))

    # -- main loop ----------------------------------------------------------------

    def run(self) -> SimTrace:
        self._record(np.zeros(1), self.x_aug[None], np.array([self.enc.d_e(self.plant, 0.0)]))
        while self.t < self.horizon - _TIME_TOL:
            if self.pending is None:
                fire = self._locate_fire(self.t)
                if fire is None:
                    self._advance(self.horizon)
                    break
                t_fire, j = fire
                self._advance(t_fire)
                self._fire(t_fire, j)
            else:
                _, r, _, _ = self.pending
                if r >= self.horizon - _TIME_TOL:
                    self._advance(self.horizon)
                    break
                self._advance(r)
                r_tilde = self._locate_update(r)
                if r_tilde >= self.horizon - _TIME_TOL:
                    self._advance(self.horizon)
                    break
                self._advance(r_tilde, record_end=False)
                self._apply_update(r, r_tilde)
        return self._build_trace()

    def _build_trace(self) -> SimTrace:
        rows, n = np.concatenate(self.rows), self.n
        trace = SimTrace(
            t=rows[:, 0],
            x=rows[:, 1:1 + n],
            x_hat=rows[:, 1 + n:1 + 2 * n],
            **dict(zip(_ROW_COLUMNS, rows[:, 1 + 2 * n:].T)),
            transmissions=self.transmissions,
            mode=self.scn.mode,
            horizon=self.horizon,
            scan_step=self.scan_step,
            sample_step=self.sample_step,
        )
        validate_sequence(self.transmissions, self.sched)
        trace.stats = summarize(trace, self.sched)
        return trace


def run(scenario: Scenario, force: bool = False) -> SimTrace:
    """Simulate a scenario; unless forced, check its admissibility conditions first."""
    if not force:
        report = check_admissibility(scenario)
        if not report.ok:
            raise AdmissibilityError(report)
    return _Engine(scenario).run()


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
        "max_h_pf": float(np.max(trace.h_pf)),
        "min_de_margin": float(np.min(trace.d_e - np.max(np.abs(trace.x - trace.x_hat),
                                                         axis=1))),
        "bits_per_window": bits_per_window,
        "windows": [[float(lo), float(hi)] for lo, hi in windows],
    }
