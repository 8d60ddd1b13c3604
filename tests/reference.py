"""Scalar reference solvers the tests check the library against.

``water_fill`` solves one capped water-filling problem by bisection on the
water level.  It shares no code with ``dsapf.powerfill.water_fill_batch``,
which locates the level exactly between breakpoints, so agreement between
the two is a cross-check of both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WaterFillProblem:
    """One user's power split over its selected bands.

    ``effective_gains`` are per-band channel gains already divided by
    interference plus noise (1/W); ``p_total_w`` the power budget and
    ``p_caps_w`` the per-band caps, all in watts.
    """

    effective_gains: np.ndarray
    p_total_w: float
    p_caps_w: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.effective_gains, dtype=float)
        caps = np.asarray(self.p_caps_w, dtype=float)
        object.__setattr__(self, "effective_gains", g)
        object.__setattr__(self, "p_caps_w", caps)
        if g.ndim != 1 or caps.shape != g.shape:
            raise ValueError("gains and caps must be 1-D and congruent")
        if np.any(g <= 0.0):
            raise ValueError("effective gains must be > 0")
        if self.p_total_w < 0.0 or np.any(caps < 0.0):
            raise ValueError("powers must be >= 0")


def water_fill(problem: WaterFillProblem) -> np.ndarray:
    """Solve one capped water-filling problem by bisection on the level.

    The returned powers meet the budget min(p_total, sum caps) to a relative
    tolerance of 1e-9 and satisfy the optimality conditions: uncapped active
    bands share one water level, bands with 1/g above the level stay off,
    and capped bands sit at their cap.
    """
    g = problem.effective_gains
    caps = problem.p_caps_w
    m = g.size
    if m == 0:
        return np.zeros(0)
    target = min(problem.p_total_w, float(caps.sum()))
    if target <= 0.0:
        return np.zeros(m)
    if m == 1:
        return np.array([target])
    if target >= float(caps.sum()):
        return caps.copy()
    inv_g = 1.0 / g
    lo = float(inv_g.min())
    hi = float((inv_g + caps).max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.clip(mid - inv_g, 0.0, caps).sum() < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(hi)):
            break
    return np.clip(0.5 * (lo + hi) - inv_g, 0.0, caps)
