"""Scenario documents for the benchmark workloads.

``sec6`` is ``scenarios/sec6.json`` as shipped.  ``clear60`` is the
clear-channel preset's plant and channel stretched to 60 s, and
``jordan`` is a plant with a repeated, defective eigenvalue.  Seed 0
keeps each scenario's own ``x0``; any other seed rotates ``x0`` by a
uniform angle in [-5, +5] degrees, so the program sees a different but
admissible initial state.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("sec6", "clear60", "jordan")
MAX_ROTATION_DEG = 5.0

# Plant, trigger and initial data shared with presets.no_blackout_scenario.
_REFERENCE_PLANT = {
    "A": [[1, -2], [1, 4]], "B": [[0], [1]], "K": [[2, -8]], "Q": [[1, 0], [0, 1]],
    "a": 1.2, "beta_fraction": 0.8, "Vd0_factor": 1.2,
}
_TRIGGER = {"T_fraction_of_gamma1": 0.1, "sigma": 0.06, "sigma1": 0.8}


def _slots(edges, rate, cap):
    return [{"theta_start": lo, "theta_end": hi, "R": rate, "pi_bar": cap}
            for lo, hi in zip(edges, edges[1:])]


def _no_blackout_doc(plant, edges, horizon):
    return {
        "plant": plant,
        "channel": {"n": 2, "slots": _slots(edges, 2400, 8)},
        "trigger": dict(_TRIGGER),
        "sim": {"mode": "no_blackout", "x0": [6, -4], "xhat0": [0, 0],
                "de0_factor": 1.5, "delay_factor": 1.0, "packet_policy": "max_bits",
                "horizon": horizon, "sample_step": 0.01},
    }


def base_document(name: str, root: Path) -> dict:
    """Seed-independent scenario document of a workload."""
    if name == "sec6":
        return json.loads((root / "scenarios" / "sec6.json").read_text())
    if name == "clear60":
        # Two 30 s slots: every fire search scans to the end of its slot.
        return _no_blackout_doc(dict(_REFERENCE_PLANT), [0.0, 30.0, 60.0], 60.0)
    if name == "jordan":
        # A = [[1,1],[0,1]] has no eigenvector basis, so every exponential
        # of A and of the closed-loop block takes the Taylor fallback.
        plant = {"A": [[1, 1], [0, 1]], "B": [[0], [1]], "K": [[-9, -6]],
                 "Q": [[1, 0], [0, 1]], "a": 1.2, "beta_fraction": 0.8,
                 "Vd0_factor": 2.0}
        return _no_blackout_doc(plant, [0.0, 1.0, 2.0, 3.0, 4.0], 4.0)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def rotation_deg(seed: int) -> float:
    """Angle by which a seed rotates x0; seed 0 keeps it."""
    if seed == 0:
        return 0.0
    return random.Random(seed).uniform(-MAX_ROTATION_DEG, MAX_ROTATION_DEG)


def write_scenario(name: str, seed: int, root: Path, out_dir: Path) -> Path:
    """Write the workload's scenario for a seed to ``out_dir/<name>.json``."""
    path = out_dir / f"{name}.json"
    if name == "sec6" and seed == 0:
        path.write_bytes((root / "scenarios" / "sec6.json").read_bytes())
        return path
    doc = base_document(name, root)
    angle = math.radians(rotation_deg(seed))
    if angle:
        x, y = (float(v) for v in doc["sim"]["x0"])
        doc["sim"]["x0"] = [x * math.cos(angle) - y * math.sin(angle),
                            x * math.sin(angle) + y * math.cos(angle)]
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path
