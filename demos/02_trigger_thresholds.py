"""Explore the threshold constants behind the event-triggering rules.

Shows the time a marginal state takes to violate performance, how the
per-bit-count delay floor grows with packet size, the resulting maximum
communication delays, and the error margin required before blackouts of
different lengths.
"""

from etcsim import blackout_entry_margin
from etcsim.presets import sec6_scenario

scenario = sec6_scenario()
plant = scenario.plant
rule = scenario.rule  # the scenario's event rule holds the constant table

print(f"unit-level violation time..... {rule.gamma1:.6f}")
print(f"lookahead horizon T........... {scenario.trigger.lookahead:.6f}  (10% of the above)")
print()
print("packet size p | delay floor T*(p) | max comm delay T_M(p) | min rate (p+2)/T_M")
for p in range(1, rule.pmax + 1):
    floor = rule.delay_floor[p]
    tm = rule.tm[p]
    print(f"{p:>13} | {floor:>17.6f} | {tm:>21.6f} | {(p + 2) / tm:>18.1f}")
print()
print("Any schedule rate above the last column supports packets of every")
print("size up to 8 bits per dimension in blackout mode.")
print()

print("blackout length | tolerable error ratio at its start")
for length in (0.5, 1.0, 2.0, 3.0):
    print(f"{length:>15.2f} | {blackout_entry_margin(plant, length):.6e}")
print()
print("A two-unit blackout requires the normalised error to be driven to")
print("~3.4e-5 before it starts; that is what causes the pre-blackout")
print("transmission bursts in the closed-loop demo.")
