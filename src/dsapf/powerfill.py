"""Capped water-filling power allocation.

Given effective gains g_j (channel power over interference-plus-noise) a
user's optimal split of its power budget maximizes sum_j log(1 + P_j g_j)
subject to 0 <= P_j <= cap_j and sum_j P_j <= budget.  The optimum is the
water-filling profile

    P_j = clamp(mu - 1/g_j, 0, cap_j)

where the water level mu makes the powers sum to min(budget, sum caps).

``water_fill_batch`` solves many problems at once by locating the water
level exactly between breakpoints of the piecewise-linear total-power curve:
the decision step needs one allocation per agent and particle every slot.
"""

from __future__ import annotations

import numpy as np

from .system import BUDGET_RTOL

# Stand-in inverse gain for bands that must never receive power.
_HUGE_INV_GAIN = 1e18
_MIN_GAIN = 1e-30


def water_fill_batch(gains: np.ndarray, active: np.ndarray, p_total_w: float,
                     p_cap_w: float) -> np.ndarray:
    """Water-fill every row of a (problems, bands) gain matrix at once.

    ``active`` masks the bands each row may use; inactive bands always get
    zero power.  The total power allocated is a nondecreasing, piecewise
    linear function of the level with breakpoints at 1/g_j and 1/g_j + cap_j,
    so binary lifting over each row's sorted breakpoints brackets the level
    in ceil(log2(2m - 1)) probes, and interpolating meets the budget to
    machine precision relative to the largest 1/g_j involved; a row that
    would still overshoot it by more than ``BUDGET_RTOL`` is scaled back.
    """
    gains = np.asarray(gains, dtype=float)
    active = np.asarray(active, dtype=bool)
    rows, m = gains.shape
    caps = np.where(active, p_cap_w, 0.0)
    cap_sum = caps.sum(axis=1)
    target = np.minimum(p_total_w, cap_sum)

    inv_g = np.where(active & (gains > 0.0), 1.0 / np.maximum(gains, _MIN_GAIN),
                     _HUGE_INV_GAIN)
    bp = np.sort(np.concatenate([inv_g, inv_g + caps], axis=1), axis=1).ravel()

    def filled(level):
        return np.minimum(np.maximum(level[:, None] - inv_g, 0.0), caps).sum(axis=1)

    # The level lies after the last of the row's first 2m - 1 breakpoints
    # whose filled power falls short of the target, or after its first.
    at = np.arange(rows) * (2 * m)
    last = at + 2 * m - 2
    for shift in range((2 * m - 2).bit_length() - 1, -1, -1):
        probe = np.minimum(at + (1 << shift), last)
        short = filled(bp[probe]) < target
        at[short] = probe[short]
    bp_lo, bp_hi = bp[at], bp[at + 1]
    f_lo, f_hi = filled(bp_lo), filled(bp_hi)
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
