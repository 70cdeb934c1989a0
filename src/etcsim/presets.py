"""Bundled reference scenarios.

The blackout regression scenario uses the published plant, gains,
weights and blackout intervals; the rate/packet-cap profile between
blackouts is not numerically published, so a documented reconstruction
is used instead: rates sit above the admissibility threshold
``max_p (p+2)/T_M(p) ~ 2939`` for the 8-bit global cap, and caps vary
across slots.  Statistics of runs on this schedule are therefore
checked against bands, not reproduced point values.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelSchedule
from .linalg import inf_norm
from .plant import build_plant
from .sim import Scenario
from .triggers import TriggerConfig, resolve_lookahead

# (theta_start, theta_end, rate, cap); blackouts keep a bookkeeping rate.
SEC6_SLOTS = (
    (0.0, 2.44, 3000.0, 8),
    (2.44, 4.88, 3400.0, 8),
    (4.88, 6.88, 3000.0, 0),
    (6.88, 9.2, 3200.0, 7),
    (9.2, 11.52, 3600.0, 8),
    (11.52, 13.52, 3000.0, 0),
    (13.52, 15.285, 3100.0, 6),
    (15.285, 17.05, 3400.0, 8),
    (17.05, 19.05, 3000.0, 0),
    (19.05, 20.0, 3200.0, 8),
)


def sec6_plant(vd0_factor: float = 1.2, x0=(6.0, -4.0)):
    """Reference plant: unstable 2x2 system stabilized to eigenvalues {-1,-2}."""
    plant = build_plant(
        A=[[1.0, -2.0], [1.0, 4.0]],
        B=[[0.0], [1.0]],
        K=[[2.0, -8.0]],
        Q=np.eye(2),
        a=1.2,
        beta_fraction=0.8,
    )
    return plant.with_vd0(vd0_factor * plant.lyapunov_value(np.asarray(x0, dtype=float)))


def sec6_schedule() -> ChannelSchedule:
    theta = [SEC6_SLOTS[0][0]] + [s[1] for s in SEC6_SLOTS]
    return ChannelSchedule(theta=theta,
                           rates=[s[2] for s in SEC6_SLOTS],
                           caps=[s[3] for s in SEC6_SLOTS],
                           n=2)


def sec6_scenario(delay_factor: float = 1.0, packet_policy: str = "max_bits",
                  scan_step: float | None = None,
                  sample_step: float = 0.01) -> Scenario:
    """Blackout-mode regression scenario on the reconstructed schedule."""
    x0 = np.array([6.0, -4.0])
    x_hat0 = np.zeros(2)
    plant = sec6_plant(x0=x0)
    lookahead = resolve_lookahead(plant, 0.1)
    trigger = TriggerConfig(lookahead=lookahead, sigma=0.06, sigma1=0.8)
    return Scenario(
        plant=plant,
        schedule=sec6_schedule(),
        trigger=trigger,
        mode="blackout",
        x0=x0,
        x_hat0=x_hat0,
        d_e0=1.5 * inf_norm(x0 - x_hat0),
        delay_factor=delay_factor,
        packet_policy=packet_policy,
        horizon=20.0,
        scan_step=scan_step,
        sample_step=sample_step,
    )


def no_blackout_scenario(rate: float = 2400.0, cap: int = 8,
                         horizon: float = 10.0,
                         packet_policy: str = "max_bits") -> Scenario:
    """Constant-channel scenario for the no-blackout event rule."""
    x0 = np.array([6.0, -4.0])
    x_hat0 = np.zeros(2)
    plant = sec6_plant(x0=x0)
    lookahead = resolve_lookahead(plant, 0.1)
    trigger = TriggerConfig(lookahead=lookahead, sigma=0.06, sigma1=0.8)
    schedule = ChannelSchedule(theta=[0.0, horizon / 2, horizon],
                               rates=[rate, rate], caps=[cap, cap], n=2)
    return Scenario(
        plant=plant,
        schedule=schedule,
        trigger=trigger,
        mode="no_blackout",
        x0=x0,
        x_hat0=x_hat0,
        d_e0=1.5 * inf_norm(x0 - x_hat0),
        horizon=horizon,
        packet_policy=packet_policy,
        sample_step=0.01,
    )
