"""Compare the three data-capacity routes on a small slotted channel.

``capacity_exact`` enumerates integer allocations (the certifying
oracle), ``capacity_lp_floor`` floors the relaxed optimum when no slot's
spillover can outlast its successor, and ``capacity_fallback`` keeps
every slot's bits in-slot.  A window is a ``ChannelSchedule``, the same
type the simulator transmits on.  The real-time bound, the capacity floor
of ``launch_budget``, then tracks how the remaining capacity decays inside
the first slot without re-solving.
"""

import numpy as np

from etcsim import (
    ChannelSchedule,
    capacity_exact,
    capacity_fallback,
    capacity_lp_floor,
    replay_allocation,
)
from etcsim.capacity import launch_budget

window = ChannelSchedule(
    theta=[0.0, 1.0, 2.5, 3.5, 4.5],
    rates=[2.0, 2.0, 4.0, 2.0],
    caps=[1, 1, 0, 3],      # the third slot is a blackout
    n=2,
)

print("window:", window.theta.tolist())
print("rates: ", window.rates.tolist())
print("caps:  ", window.caps.tolist(), "(zero = blackout)")
print()

exact = capacity_exact(window)
relaxed = capacity_lp_floor(window)
fallback = capacity_fallback(window)
for plan in (exact, relaxed, fallback):
    finish = replay_allocation(window, plan.phi)
    print(f"{plan.kind:<9} phi={plan.phi.tolist()}  value={plan.value_bits:>3} bits"
          f"  (replay finishes at t={finish:.3f})")
usable = int(np.sum(window.caps > 0))
print(f"\ncertified gap bound: exact - lp_floor <= n * usable slots = {window.n * usable}"
      f"   (actual gap {exact.value_bits - relaxed.value_bits})")
print()

print("real-time decay of the stored plan inside the first slot:")
for t in np.linspace(0.0, 0.99, 6):
    print(f"  t={t:.2f}  remaining capacity >= {launch_budget(relaxed, t)[1]:>3.0f} bits")
