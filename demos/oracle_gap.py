"""Distributed filters versus the true optimum on a frozen toy network.

With four users, three bands, and a frozen channel, every joint assignment
can be enumerated.  The agents only see last slot's broadcasts, yet their
realized reward climbs to the exhaustive optimum within a few slots.

Run: python3 demos/oracle_gap.py
"""

from dsapf.engine import run
from dsapf.objectives import evaluate
from dsapf.oracle import TinyInstance, solve_exhaustive
from dsapf.system import SystemConfig, validate

cfg = validate(SystemConfig(
    n_users=4, n_bands=3, max_bands_per_user=1, n_particles=10, n_slots=12,
    doppler_coherence_product=0.0, objective="sum", seed=1))

snapshots = []
run(cfg, slot_hook=snapshots.append)

print("slot | achieved sum reward | exhaustive optimum | ratio")
for snap in snapshots:
    inst = TinyInstance(
        gains_sq=snap.gains_sq, availability=snap.availability,
        thresholds=snap.thresholds, bandwidth_hz=cfg.bandwidth_hz,
        noise_band_w=cfg.noise_band_w, p_total_w=cfg.p_total_max_w,
        p_band_cap_w=cfg.p_band_max_w, max_bands_per_user=1, beta=cfg.beta,
        power_rule="waterfill")
    _, best = solve_exhaustive(inst, "sum")
    achieved = evaluate("sum", snap.rewards)
    bar = "#" * int(30 * min(achieved / best, 1.0))
    print(f"{snap.slot:>4} | {achieved:>19.0f} | {best:>18.0f} | "
          f"{achieved / best:0.3f} {bar}")
print("\nagents coordinate through broadcasts alone: each slot they avoid"
      "\nthe collisions the last slot revealed.")
