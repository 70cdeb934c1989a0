"""Compare the three data-capacity routes on a small slotted channel.

``capacity_exact`` enumerates integer allocations (the certifying
oracle), ``capacity_lp_floor`` floors the relaxed optimum when no slot's
spillover can outlast its successor, and ``capacity_fallback`` keeps
every slot's bits in-slot.  The real-time bound then tracks how the
remaining capacity decays inside the first slot without re-solving.
"""

import numpy as np

from etcsim import (
    AllocationProblem,
    capacity_exact,
    capacity_fallback,
    capacity_lp_floor,
    realtime_bound,
    replay_allocation,
)

problem = AllocationProblem(
    theta=[0.0, 1.0, 2.5, 3.5, 4.5],
    rates=[2.0, 2.0, 4.0, 2.0],
    caps=[1, 1, 0, 3],      # the third slot is a blackout
    n=2,
)

print("window:", problem.theta.tolist())
print("rates: ", problem.rates.tolist())
print("caps:  ", problem.caps.tolist(), "(zero = blackout)")
print()

exact = capacity_exact(problem)
relaxed = capacity_lp_floor(problem)
fallback = capacity_fallback(problem)
for plan in (exact, relaxed, fallback):
    finish = replay_allocation(problem, plan.phi)
    print(f"{plan.kind:<9} phi={plan.phi.tolist()}  value={plan.value_bits:>3} bits"
          f"  (replay finishes at t={finish:.3f})")
usable = int(np.sum(problem.caps > 0))
print(f"\ncertified gap bound: exact - lp_floor <= n * usable slots = {problem.n * usable}"
      f"   (actual gap {exact.value_bits - relaxed.value_bits})")
print()

print("real-time decay of the stored plan inside the first slot:")
for t in np.linspace(0.0, 0.99, 6):
    print(f"  t={t:.2f}  remaining capacity >= {realtime_bound(relaxed, t):>3.0f} bits")
