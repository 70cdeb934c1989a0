"""The headline scenario: stabilization across three channel blackouts.

The channel disappears on (4.88, 6.88], (11.52, 13.52] and (17.05,
19.05].  The capacity-aware rule watches how many bits it still needs
before each blackout against the budget the channel can still deliver,
producing a burst of transmissions just before each outage; during the
outage the plant coasts open loop on a deliberately tiny encoding error.
Writes the three CSV/JSON artefacts next to this script when run.
"""

import json
from pathlib import Path

import numpy as np

from etcsim import blackout_entry_margin, run
from etcsim.cli import write_trace_csv, write_transmissions_csv
from etcsim.scenario import load_scenario

scn, _ = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / "sec6.json")
trace = run(scn)

print("stats:")
for key in ("transmission_count", "mean_intertransmission", "min_intertransmission",
            "bits_per_unit_time", "max_h_pf"):
    print(f"  {key:<24} {trace.stats[key]}")
print(f"  bits per window          {trace.stats['bits_per_window']}")
print()

print("blackout readiness (error ratio at each blackout start vs its margin):")
for b in scn.schedule.blackout_slots():
    tau_l = float(scn.schedule.theta[b])
    tau_u = float(scn.schedule.theta[b + 1])
    if tau_l >= trace.horizon:
        continue
    margin = blackout_entry_margin(scn.plant, tau_u - tau_l)
    idx = np.flatnonzero(trace.t == tau_l)[-1]
    print(f"  blackout ({tau_l}, {tau_u}]: eps = {trace.eps[idx]:.3e}"
          f"  <= margin {margin:.3e}")
print()

print("transmissions (note the bursts just before each blackout):")
for tx in trace.transmissions:
    print(f"  k={tx.k:<3} t={tx.t_k:9.5f}  p={tx.p_k} bits/dim"
          f"  update at {tx.r_tilde_k:9.5f}")

out = Path(__file__).resolve().parent / "out"
out.mkdir(exist_ok=True)
write_trace_csv(trace, out / "blackout_trace.csv")
write_transmissions_csv(trace, out / "blackout_transmissions.csv")
(out / "blackout_stats.json").write_text(json.dumps(trace.stats, indent=2) + "\n")
print(f"\nartefacts written to {out}/")
