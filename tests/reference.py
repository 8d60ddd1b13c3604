"""Reference solvers the tests check the library against.

``water_fill`` solves one capped water-filling problem by bisection on the
water level.  It shares no code with ``dsapf.powerfill.water_fill_batch``,
which locates the level exactly between breakpoints, so agreement between
the two is a cross-check of both.

``water_fill_breakpoints`` is the batch solver's former body, which
computes the filled power at every breakpoint in a (rows, 2m, m) tensor;
``water_fill_batch`` must return its powers bit for bit.

``solve_per_assignment`` is the exhaustive oracle that derives the powers
of every joint assignment afresh, water-filling one row per user and
assignment; ``dsapf.oracle.solve_exhaustive`` must return its allocation
and score bit for bit.

``resample_parents`` finds systematic resampling's parents by comparing
every position with every cumulative bin, in memory quadratic in the
particle count; ``dsapf.pfilter.systematic_resample`` must pick the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import dsapf.oracle as oracle
from dsapf.objectives import ObjectiveKind, evaluate_batch
from dsapf.phy import elastic_reward, user_rates
from dsapf.powerfill import _HUGE_INV_GAIN, _MIN_GAIN, water_fill_batch
from dsapf.system import BUDGET_RTOL

# Joint assignments ``solve_per_assignment`` scores at a time.
CHUNK = 16384


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


def water_fill_breakpoints(gains: np.ndarray, active: np.ndarray,
                           p_total_w: float, p_cap_w) -> np.ndarray:
    """``dsapf.powerfill.water_fill_batch`` as it was before binary lifting:
    the filled power at all 2m breakpoints of every row, in one
    (rows, 2m, m) tensor, and the level on the segment before the first
    breakpoint that reaches the target."""
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


def assignment_powers(inst, alloc: np.ndarray) -> np.ndarray:
    """Powers for a (batch, users, bands) allocation: each user water-fills
    against the interference of the others under a uniform split."""
    counts = alloc.sum(axis=2, keepdims=True)
    per_band = np.where(counts > 0,
                        np.minimum(inst.p_total_w / np.maximum(counts, 1),
                                   inst.p_band_cap_w), 0.0)
    uniform = per_band * alloc
    diag = np.einsum("iij->ij", inst.gains_sq)
    received = np.einsum("ikj,bkj->bij", inst.gains_sq, uniform)
    interference = np.maximum(received - diag[None] * uniform, 0.0)
    g_eff = diag[None] / (interference + inst.noise_band_w)
    b, n, m = alloc.shape
    filled = water_fill_batch(g_eff.reshape(b * n, m), alloc.reshape(b * n, m),
                              inst.p_total_w, inst.p_band_cap_w)
    return filled.reshape(b, n, m)


def solve_per_assignment(inst, objective) -> tuple[np.ndarray, float]:
    """``oracle.solve_exhaustive`` with every assignment's powers derived by
    ``assignment_powers``, in chunks of ``CHUNK`` assignments."""
    kind = ObjectiveKind(objective)
    n = inst.gains_sq.shape[0]
    m = inst.availability.size
    options = oracle.band_alphabet(inst.availability, inst.max_bands_per_user)
    n_options = len(options)
    total = n_options ** n
    table = np.zeros((n_options, m), dtype=bool)
    for idx, bands in enumerate(options):
        table[idx, list(bands)] = True
    weights = n_options ** np.arange(n - 1, -1, -1, dtype=np.int64)
    best_score = -np.inf
    best_alloc = np.zeros((n, m), dtype=bool)
    for start in range(0, total, CHUNK):
        indices = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
        alloc = table[(indices[:, None] // weights[None, :]) % n_options]
        power = assignment_powers(inst, alloc)
        rates = user_rates(alloc, power, inst.gains_sq, inst.availability,
                           inst.bandwidth_hz, inst.noise_band_w)
        scores = evaluate_batch(kind, elastic_reward(rates, inst.thresholds, inst.beta))
        pick = int(np.argmax(scores))
        if scores[pick] > best_score:
            best_score = float(scores[pick])
            best_alloc = alloc[pick].copy()
    return best_alloc, best_score


def resample_parents(weights: np.ndarray, u0: np.ndarray) -> np.ndarray:
    """Parent indices of systematic resampling for (rows, particles)
    weights and one offset per row: each position's first cumulative bin
    reaching it."""
    n_particles = weights.shape[1]
    positions = (u0[:, None] + np.arange(n_particles)) / n_particles
    cumulative = np.cumsum(weights, axis=1)
    cumulative[:, -1] = 1.0
    return (cumulative[:, None, :] < positions[:, :, None]).sum(axis=2)
