"""Capped water-filling by example: where the power goes as the budget
grows, and why the common water level is the optimality certificate.

Run: python3 demos/water_filling.py
"""

import numpy as np

from dsapf.powerfill import water_fill_batch

gains = np.array([4.0, 2.0, 0.5, 0.1])
cap = 0.6
caps = np.full(gains.size, cap)
print(f"effective gains {gains}, per-band caps {caps}\n")


def water_fill(budget):
    # One problem is one row of the batch solver, with every band usable.
    return water_fill_batch(gains[None], np.ones((1, gains.size), bool),
                            budget, cap)[0]


print(f"{'budget':>8} | {'allocation':<34} | filled bands")
print("-" * 62)
for budget in (0.1, 0.4, 0.8, 1.6, 3.0):
    p = water_fill(budget)
    active = int((p > 1e-12).sum())
    cells = " ".join(f"{v:0.3f}" for v in p)
    print(f"{budget:>8.2f} | {cells:<34} | {active}")

print("\nwater level check at budget 1.6:")
p = water_fill(1.6)
levels = p + 1.0 / gains
for g, q, lvl in zip(gains, p, levels):
    state = "capped" if q >= cap - 1e-9 else ("idle" if q <= 1e-12 else "interior")
    print(f"  gain {g:>4}: power {q:0.4f}  power+1/gain {lvl:0.4f}  [{state}]")
print("interior bands share one level; idle bands sit above it;"
      " capped bands would exceed it if allowed.")
