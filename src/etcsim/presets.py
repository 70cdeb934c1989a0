"""Bundled reference scenarios, built from ``scenarios/sec6.json``.

The blackout regression scenario uses the published plant, gains,
weights and blackout intervals; the rate/packet-cap profile between
blackouts is not numerically published, so the file holds a documented
reconstruction instead: rates sit above the admissibility threshold
``max_p (p+2)/T_M(p) ~ 2939`` for the 8-bit global cap, and caps vary
across slots.  Statistics of runs on this schedule are therefore
checked against bands, not reproduced point values.

The file is read from the source tree, so the presets need a source
checkout or an editable install.
"""

from __future__ import annotations

from pathlib import Path

from .scenario import build_scenario, load_document
from .sim import Scenario

_SEC6_JSON = Path(__file__).resolve().parents[2] / "scenarios" / "sec6.json"


def sec6_scenario() -> Scenario:
    """Blackout-mode regression scenario on the reconstructed schedule."""
    return build_scenario(load_document(_SEC6_JSON))


def no_blackout_scenario(rate: float = 2400.0, cap: int = 8,
                         horizon: float = 10.0,
                         packet_policy: str = "max_bits") -> Scenario:
    """sec6's plant, trigger and initial state on a constant channel of two equal slots."""
    doc = load_document(_SEC6_JSON)
    doc["channel"]["slots"] = [
        {"theta_start": lo, "theta_end": hi, "R": rate, "pi_bar": cap}
        for lo, hi in ((0.0, horizon / 2), (horizon / 2, horizon))]
    doc["sim"].update(mode="no_blackout", horizon=horizon, packet_policy=packet_policy)
    return build_scenario(doc)
