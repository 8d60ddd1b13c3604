"""The three benchmark workloads.

Each workload is a ``SystemConfig`` recipe plus the run-shape facts the
harness needs.  The scenario seed is the benchmark's ``--seed``, so one seed
pins one trajectory of each workload.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    fields: dict            # SystemConfig overrides; everything else is the default
    oracle: bool            # run the oracle-check path after the trajectory
    random_draws: int       # uniform-random baseline draws per slot in the check
    oracle_sample: tuple = ()  # slot indices re-solved by the benchmark's own enumeration

    @property
    def tail_pct(self) -> float:
        """The highest percentile with at least ten slots beyond it."""
        return 100.0 * (1.0 - 10.0 / self.fields["n_slots"])


WORKLOADS = {
    w.name: w for w in (
        # Per-agent Python loop: predict/decide/update per agent, l=1 shortcut
        # (no water-filling), no primary users.
        Workload("ref-50",
                 dict(n_users=50, n_bands=10, max_bands_per_user=1,
                      n_particles=10, objective="sum", pu_busy_prob=0.0,
                      n_slots=200),
                 oracle=False, random_draws=4),
        # SystemConfig() defaults: the channel layer and set-up dominate.
        # 40 slots instead of the default 20, so a trajectory has a tail.
        Workload("default-200", dict(n_slots=40),
                 oracle=False, random_draws=2),
        # The oracle-check path: 7**5 water-filled joint assignments per slot.
        Workload("oracle-tiny",
                 dict(n_users=5, n_bands=4, max_bands_per_user=2,
                      n_slots=40),
                 oracle=True, random_draws=16,
                 oracle_sample=(0, 19, 39)),
    )
}
