"""Exhaustive joint-allocation search on frozen tiny instances.

Enumerates every joint band assignment (each user either idles or takes a
subset of the feasible size) on a fixed channel snapshot and scores it under
a chosen objective.  Useful only at toy scale, but there it certifies how
close the distributed filter gets to the true optimum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .objectives import ObjectiveKind, evaluate_batch
from .phy import elastic_reward, user_rates
from .powerfill import water_fill_batch

MAX_JOINT_ASSIGNMENTS = 10**6
_CHUNK = 16384


class InstanceTooLargeError(ValueError):
    """The joint assignment space is beyond exhaustive reach."""


@dataclass(frozen=True)
class TinyInstance:
    """A frozen snapshot small enough to brute-force.

    ``gains_sq`` is the realized squared-gain tensor (users, users, bands);
    ``power_rule`` fixes how per-assignment powers are derived: "uniform"
    splits the budget across selected bands, "waterfill" water-fills each
    user against the interference of the others under a uniform split.
    """

    gains_sq: np.ndarray
    availability: np.ndarray
    thresholds: np.ndarray
    bandwidth_hz: float
    noise_band_w: float
    p_total_w: float
    p_band_cap_w: float
    max_bands_per_user: int
    beta: float = 0.5
    power_rule: str = "uniform"

    def __post_init__(self):
        n = self.gains_sq.shape[0]
        m = self.availability.size
        if self.gains_sq.shape[:2] != (n, n) or self.gains_sq.shape[2] != m:
            raise ValueError("gains_sq must be (n_users, n_users, n_bands)")
        if n > 6:
            raise InstanceTooLargeError("at most 6 users are enumerable")
        if m > 4:
            raise InstanceTooLargeError("at most 4 bands are enumerable")
        if self.max_bands_per_user > 2:
            raise InstanceTooLargeError("at most 2 bands per user are enumerable")
        if self.power_rule not in ("uniform", "waterfill"):
            raise ValueError("power_rule must be 'uniform' or 'waterfill'")


def band_alphabet(availability: np.ndarray, max_bands_per_user: int) -> list[tuple[int, ...]]:
    """Idle plus every feasible-size subset of the available bands, in
    lexicographic order."""
    avail = np.flatnonzero(np.asarray(availability, bool)).tolist()
    k = min(max_bands_per_user, len(avail))
    options: list[tuple[int, ...]] = [()]
    if k > 0:
        options.extend(itertools.combinations(avail, k))
    return options


def _assignment_powers(inst: TinyInstance, alloc: np.ndarray) -> np.ndarray:
    """Powers for a (batch, users, bands) allocation under the power rule."""
    counts = alloc.sum(axis=2, keepdims=True)
    per_band = np.where(counts > 0,
                        np.minimum(inst.p_total_w / np.maximum(counts, 1),
                                   inst.p_band_cap_w), 0.0)
    uniform = per_band * alloc
    if inst.power_rule == "uniform":
        return uniform
    diag = np.einsum("iij->ij", inst.gains_sq)
    received = np.einsum("ikj,bkj->bij", inst.gains_sq, uniform)
    interference = np.maximum(received - diag[None] * uniform, 0.0)
    g_eff = diag[None] / (interference + inst.noise_band_w)
    b, n, m = alloc.shape
    filled = water_fill_batch(g_eff.reshape(b * n, m), alloc.reshape(b * n, m),
                              inst.p_total_w, inst.p_band_cap_w)
    return filled.reshape(b, n, m)


def _assignment_rewards(inst: TinyInstance, alloc: np.ndarray,
                        power: np.ndarray) -> np.ndarray:
    rates = user_rates(alloc, power, inst.gains_sq, inst.availability,
                       inst.bandwidth_hz, inst.noise_band_w)
    return elastic_reward(rates, inst.thresholds, inst.beta)


def solve_exhaustive(inst: TinyInstance, objective) -> tuple[np.ndarray, float]:
    """Best joint allocation and its score; ties break to the
    lexicographically first assignment.

    The intrinsic objective has no joint optimum, so it is scored as the
    reward sum here.  Refuses instances whose joint space tops a million
    assignments, reporting the size.
    """
    kind = ObjectiveKind(objective)
    if kind is ObjectiveKind.INTRINSIC:
        kind = ObjectiveKind.SUM
    n = inst.gains_sq.shape[0]
    m = inst.availability.size
    options = band_alphabet(inst.availability, inst.max_bands_per_user)
    n_options = len(options)
    total = n_options ** n
    if total > MAX_JOINT_ASSIGNMENTS:
        raise InstanceTooLargeError(
            f"{n_options}^{n} = {total} joint assignments exceed {MAX_JOINT_ASSIGNMENTS}")

    table = np.zeros((n_options, m), dtype=bool)
    for idx, bands in enumerate(options):
        table[idx, list(bands)] = True
    # Digit weights make assignment index == lexicographic rank.
    weights = n_options ** np.arange(n - 1, -1, -1, dtype=np.int64)

    best_score = -np.inf
    best_alloc = np.zeros((n, m), dtype=bool)
    for start in range(0, total, _CHUNK):
        indices = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        digits = (indices[:, None] // weights[None, :]) % n_options
        alloc = table[digits]
        power = _assignment_powers(inst, alloc)
        rewards = _assignment_rewards(inst, alloc, power)
        scores = evaluate_batch(kind, rewards)
        pick = int(np.argmax(scores))
        if scores[pick] > best_score:
            best_score = float(scores[pick])
            best_alloc = alloc[pick].copy()
    return best_alloc, best_score
