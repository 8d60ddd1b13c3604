"""Throughput versus fairness under the four decision objectives.

Every agent scores its candidate band subsets against the same broadcast
snapshot, but what it maximizes differs: its own reward (intrinsic), the
network total (sum), the worst user (maxmin), or the log-sum
(proportional_fair).

Run: python3 demos/objective_tradeoffs.py
"""

from dsapf.engine import run
from dsapf.system import SystemConfig, validate

print(f"{'objective':<18} {'per-user throughput':>20} {'avg Jain':>10}")
for objective in ("intrinsic", "sum", "maxmin", "proportional_fair"):
    cfg = validate(SystemConfig(
        n_users=30, n_bands=8, max_bands_per_user=1, n_particles=10,
        n_slots=150, objective=objective, seed=4))
    summary, _ = run(cfg)
    print(f"{objective:<18} {summary.per_user_avg_throughput:>17.0f} bps"
          f" {summary.avg_jain:>10.3f}")

print("\nthe selfish and social objectives land within a percent of each"
      "\nother here (one band per head leaves little room to differ);"
      "\nmaxmin trades away a third of the throughput chasing its worst user.")
