"""Reference solvers the tests check the library against.

``water_fill`` solves one capped water-filling problem by bisection on the
water level.  It shares no code with ``dsapf.powerfill.water_fill_batch``,
which locates the level exactly between breakpoints, so agreement between
the two is a cross-check of both.

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
from dsapf.powerfill import water_fill_batch

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
