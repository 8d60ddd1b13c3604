"""Capped water-filling power allocation.

Given effective gains g_j (channel power over interference-plus-noise) a
user's optimal split of its power budget maximizes sum_j log(1 + P_j g_j)
subject to 0 <= P_j <= cap_j and sum_j P_j <= budget.  The optimum is the
water-filling profile

    P_j = clamp(mu - 1/g_j, 0, cap_j)

where the water level mu makes the powers sum to min(budget, sum caps).

``water_fill`` solves one problem by bisection on mu.  ``water_fill_batch``
solves many problems at once by locating the water level exactly between
breakpoints of the piecewise-linear total-power curve; it exists because the
per-agent decision loop needs one allocation per particle per slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .system import BUDGET_RTOL

# Stand-in inverse gain for bands that must never receive power.
_HUGE_INV_GAIN = 1e18
_MIN_GAIN = 1e-30


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


def water_fill_batch(gains: np.ndarray, active: np.ndarray, p_total_w: float,
                     p_cap_w) -> np.ndarray:
    """Water-fill every row of a (problems, bands) gain matrix at once.

    ``active`` masks the bands each row may use; inactive bands always get
    zero power.  The water level is found exactly: the total power allocated
    as a function of the level is piecewise linear with breakpoints at
    1/g_j and 1/g_j + cap_j, so locating the bracketing breakpoints and
    interpolating meets the budget to machine precision relative to the
    largest 1/g_j involved; a row that would still overshoot the budget by
    more than ``BUDGET_RTOL`` is scaled back onto it.
    """
    gains = np.asarray(gains, dtype=float)
    active = np.asarray(active, dtype=bool)
    rows, m = gains.shape
    caps = np.where(active, np.broadcast_to(np.asarray(p_cap_w, float), (rows, m)), 0.0)
    cap_sum = caps.sum(axis=1)
    target = np.minimum(p_total_w, cap_sum)

    inv_g = np.where(active & (gains > 0.0), 1.0 / np.maximum(gains, _MIN_GAIN),
                     _HUGE_INV_GAIN)
    breakpoints = np.concatenate([inv_g, inv_g + caps], axis=1)
    breakpoints.sort(axis=1)
    filled = np.clip(breakpoints[:, :, None] - inv_g[:, None, :],
                     0.0, caps[:, None, :]).sum(axis=2)

    # First breakpoint at which the filled power reaches the target; the
    # level lies in the linear segment just before it.
    idx = np.clip((filled < target[:, None]).sum(axis=1), 1, 2 * m - 1)
    flat = np.arange(rows) * (2 * m) + idx
    bp_flat = breakpoints.ravel()
    f_flat = filled.ravel()
    bp_hi = bp_flat[flat]
    bp_lo = bp_flat[flat - 1]
    f_hi = f_flat[flat]
    f_lo = f_flat[flat - 1]
    span = f_hi - f_lo
    on_segment = span > 0.0
    frac = np.divide(target - f_lo, span, out=np.zeros_like(span),
                     where=on_segment)
    level = np.where(on_segment, bp_lo + frac * (bp_hi - bp_lo), bp_hi)

    powers = np.clip(level[:, None] - inv_g, 0.0, caps)
    exhausted = cap_sum <= target
    if np.any(exhausted):
        powers[exhausted] = caps[exhausted]
    # Where 1/g dwarfs the budget (far below the noise floor), level - 1/g
    # meets the budget only to within the rounding of 1/g; scale such rows
    # back onto it.  (A matrix-vector product sums the short rows several
    # times faster than sum(axis=1).)
    total = powers @ np.ones(m)
    over = total > target * (1.0 + BUDGET_RTOL)
    if np.any(over):
        powers[over] *= (target[over] / total[over])[:, None]
    return powers
