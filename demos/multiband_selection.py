"""The multiband trade-off: letting every user transmit on more bands at
once first raises throughput (diversity, more parallel channels), then
lowers it (the fixed power budget spreads thin while co-channel
interference multiplies).

Run: python3 demos/multiband_selection.py  (about 20 s)
"""

import numpy as np

from dsapf.engine import run
from dsapf.system import SystemConfig, validate

print(f"{'bands/user':>10} | {'per-user throughput':>20} | profile")
rows = []
for ell in range(1, 7):
    thr = []
    for seed in (0, 1, 2):
        cfg = validate(SystemConfig(
            n_users=50, n_bands=8, max_bands_per_user=ell, n_particles=20,
            n_slots=120, bandwidth_hz=6e6, objective="sum", seed=seed))
        summary, _ = run(cfg)
        thr.append(summary.per_user_avg_throughput)
    rows.append(float(np.mean(thr)))

top = max(rows)
for ell, value in zip(range(1, 7), rows):
    bar = "#" * int(44 * value / top)
    print(f"{ell:>10} | {value:>16.0f} bps | {bar}")
best = int(np.argmax(rows)) + 1
print(f"\nthe sweet spot here is {best} bands per user; past it, extra bands"
      "\nmostly buy interference.")
