"""Closed-loop run over a constant channel with no blackouts.

The event rule transmits whenever either trigger value approaches 1,
quantizes the state into 8-bit-per-dimension packets, and keeps the
Lyapunov function under its exponentially decaying budget.  An ASCII
strip chart shows the margin between V and its budget.
"""

from pathlib import Path

import numpy as np

from etcsim import run
from etcsim.scenario import load_scenario

scenario, _ = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / "clear10.json")
trace = run(scenario)

print("transmissions:", trace.stats["transmission_count"])
print("mean gap     :", round(trace.stats["mean_intertransmission"], 4))
print("min gap      :", round(trace.stats["min_intertransmission"], 4))
print("bits per unit:", round(trace.stats["bits_per_unit_time"], 2))
print("max V/Vd     :", round(trace.stats["max_h_pf"], 4))
print()

print("performance ratio V/Vd along the run (each row = 0.5 time units):")
width = 60
for lo in np.arange(0.0, trace.horizon, 0.5):
    sel = (trace.t >= lo) & (trace.t < lo + 0.5)
    if not np.any(sel):
        continue
    level = float(np.max(trace.h_pf[sel]))
    bar = "#" * int(round(level * width))
    print(f"t={lo:5.2f} |{bar:<{width}}| {level:.3f}")
print(f"{'':8}0{'':{width - 2}}1")
print()
print("transmission times and sizes:")
for tx in trace.transmissions:
    print(f"  t={tx.t_k:8.4f}  p={tx.p_k} bits/dim  delay={tx.r_k - tx.t_k:.5f}")
