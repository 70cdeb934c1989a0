"""Plan the data capacity of a slotted channel with a blackout.

A window is a ``ChannelSchedule``, the same type the simulator transmits
on.  ``capacity_lp_floor`` floors the relaxed optimum when no slot's
spillover can outlast its successor, and ``capacity_fallback`` keeps every
slot's bits in-slot.  ``slot_plans`` gives each slot with a blackout ahead
the plan of its window [slot start, blackout start), on the LP route unless
the window's spillover chains.  The real-time bound, the capacity floor of
``launch_budget``, then tracks how the remaining capacity decays inside the
first slot without re-solving.
"""

import numpy as np

from etcsim import ChannelSchedule, capacity_fallback, capacity_lp_floor, slot_plans
from etcsim.capacity import launch_budget

schedule = ChannelSchedule(
    theta=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
    rates=[2.0, 2.5, 1.5, 4.0, 2.0],
    caps=[3, 2, 1, 0, 2],   # the fourth slot is a blackout
    n=2,
)

print("schedule:", schedule.theta.tolist())
print("rates:   ", schedule.rates.tolist())
print("caps:    ", schedule.caps.tolist(), "(zero = blackout)")
print()

# Slot 0's 3 cap bits at R = 2 spill for 1.5, past the whole next slot: its window chains.
print("per-slot plans (window [slot start, blackout start)):")
plans = slot_plans(schedule)
for j, plan in enumerate(plans):
    if plan is None:
        print(f"  slot {j}: no blackout ahead, no plan")
    else:
        print(f"  slot {j}: window [{plan.problem.start}, {plan.problem.end})  {plan.kind:<9}"
              f" phi={plan.phi.tolist()}  value={plan.value_bits:>3} bits")
print()

# Slot 1's cap bits spill for 0.8 < 1, so its window takes the LP route, and moving
# fractional bits between slots gains a bit per dimension over the in-slot fallback.
window = plans[1].problem
relaxed, fallback = capacity_lp_floor(window), capacity_fallback(window)
print(f"slot 1's window {window.theta.tolist()}:")
print(f"  relaxed optimum phi={np.round(relaxed.lp_phi, 4).tolist()}")
for plan in (relaxed, fallback):
    print(f"  {plan.kind:<9} phi={plan.phi.tolist()}  value={plan.value_bits:>3} bits")
print()

print("real-time decay of slot 1's stored plan inside its first slot:")
for t in np.linspace(1.0, 1.99, 6):
    bits, floor = launch_budget(plans[1], t)
    print(f"  t={t:.2f}  bits to launch {bits:>2.0f}  remaining capacity >= {floor:>3.0f} bits")
