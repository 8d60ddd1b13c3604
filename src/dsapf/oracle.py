"""Exhaustive joint-allocation search on frozen tiny instances.

Enumerates every joint band assignment (each user either idles or takes a
subset of the feasible size) on a fixed channel snapshot and scores it under
a chosen objective, with powers set by one fixed rule.  Useful only at toy
scale; the result is the optimum over joint band choices under that power
rule, not an upper bound on what the filters reach.

Under the ``waterfill`` rule a user's powers depend only on its option and
on which other users share its bands, so each distinct per-user water-fill
is solved once per instance and gathered back to every joint assignment;
the scores match water-filling each assignment afresh bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .objectives import ObjectiveKind, evaluate_batch
from .phy import elastic_reward, user_rates
from .powerfill import water_fill_batch

_CHUNK = 16384


class InstanceTooLargeError(ValueError):
    """The joint assignment space is beyond exhaustive reach."""


def check_enumerable(n_users: int, n_bands: int, max_bands_per_user: int) -> None:
    """Refuse sizes beyond 6 users, 4 bands or 2 bands per user.

    These limits alone bound the search: a user has at most 7 options
    (idle or one of the 6 band pairs), so at most 7**6 = 117,649 joint
    assignments.
    """
    if n_users > 6:
        raise InstanceTooLargeError("at most 6 users are enumerable")
    if n_bands > 4:
        raise InstanceTooLargeError("at most 4 bands are enumerable")
    if max_bands_per_user > 2:
        raise InstanceTooLargeError("at most 2 bands per user are enumerable")


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
        check_enumerable(n, m, self.max_bands_per_user)
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


def _uniform_rows(inst: TinyInstance, table: np.ndarray) -> np.ndarray:
    """Each option's powers under the uniform split of the budget."""
    counts = table.sum(axis=1, keepdims=True)
    per_band = np.minimum(inst.p_total_w / np.maximum(counts, 1), inst.p_band_cap_w)
    return np.where(table, per_band, 0.0)


def _waterfill_rows(inst: TinyInstance, table: np.ndarray,
                    uniform: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Water-fill each distinct per-user problem once.

    Every non-idle option holds the same number k of bands, so every
    transmitter puts the same uniform power on each of its bands, and a
    user's water-fill reads only its own bands.  A user's powers thus depend
    only on the user, its option, and which other users occupy each of its
    bands: n * (options - 1) * 2**((n - 1) * k) problems.  ``uniform`` holds
    each option's uniform split (``_uniform_rows``).  Returns their
    powers, row 0 being an idle user's, and for each joint assignment (in
    lexicographic rank) and user the row that holds that user's powers.
    """
    n, _, m = inst.gains_sq.shape
    n_options = table.shape[0]
    k = int(table[-1].sum())
    # Effective gains of every user on every band under each on/off
    # pattern of the users, each transmitter at its uniform power.
    on = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1 == 1
    pattern_uniform = np.zeros((2 ** n, n, m))
    pattern_uniform[on] = uniform.max()
    diag = np.einsum("iij->ij", inst.gains_sq)
    received = np.einsum("ikj,pkj->pij", inst.gains_sq, pattern_uniform)
    interference = np.maximum(received - diag[None] * pattern_uniform, 0.0)
    g_eff = diag[None] / (interference + inst.noise_band_w)

    # User i's problems on option o fill one block of rows, numbered by
    # sum_j place[o, j] * q_j, where q_j is the (n - 1)-bit pattern of the
    # other users on its band j.
    size = 2 ** (n - 1)
    block = size ** k
    place = np.zeros((n_options, m), dtype=np.int64)
    gains = np.zeros((n, n_options - 1, block, m))
    q = np.arange(size)
    occupancy = np.indices((size,) * k).reshape(k, block)  # q_j of each row
    for o in range(1, n_options):
        bands = np.flatnonzero(table[o])
        place[o, bands] = size ** np.arange(k - 1, -1, -1)
        for i in range(n):
            # The on/off pattern of user i together with the others q.
            full = (q & ((1 << i) - 1)) | (1 << i) | ((q >> i) << (i + 1))
            gains[i, o - 1][:, bands] = g_eff[full[occupancy], i, bands[:, None]].T
    active = np.broadcast_to(table[None, 1:, None, :], gains.shape)
    filled = water_fill_batch(gains.reshape(-1, m), active.reshape(-1, m),
                              inst.p_total_w, inst.p_band_cap_w)
    rows = np.concatenate([np.zeros((1, m)), filled])

    # option[u] holds user u's option along axis u of the grid of joint
    # assignments.  User i's row is the start of its block plus, for each
    # other user, that user's bit in q_j times shared[o_i, o_other].
    shared = place @ table.T
    option = np.ix_(*[np.arange(n_options)] * n)
    row_of = np.empty((n_options ** n, n), dtype=np.int64)
    for i in range(n):
        row = np.where(option[i] > 0, 1 + (i * (n_options - 1) + option[i] - 1) * block, 0)
        for other in range(n):
            if other != i:
                row = row + (1 << (other - (other > i))) * shared[option[i], option[other]]
        row_of[:, i] = np.broadcast_to(row, (n_options,) * n).ravel()
    return rows, row_of


def _assignment_rewards(inst: TinyInstance, alloc: np.ndarray,
                        power: np.ndarray) -> np.ndarray:
    rates = user_rates(alloc, power, inst.gains_sq, inst.availability,
                       inst.bandwidth_hz, inst.noise_band_w)
    return elastic_reward(rates, inst.thresholds, inst.beta)


def solve_exhaustive(inst: TinyInstance, objective) -> tuple[np.ndarray, float]:
    """Best joint allocation and its score under ``evaluate_batch``; ties
    break to the lexicographically first assignment."""
    kind = ObjectiveKind(objective)
    n = inst.gains_sq.shape[0]
    m = inst.availability.size
    options = band_alphabet(inst.availability, inst.max_bands_per_user)
    n_options = len(options)
    total = n_options ** n

    table = np.zeros((n_options, m), dtype=bool)
    for idx, bands in enumerate(options):
        table[idx, list(bands)] = True
    # Digit weights make assignment index == lexicographic rank.
    weights = n_options ** np.arange(n - 1, -1, -1, dtype=np.int64)
    uniform = _uniform_rows(inst, table)
    if inst.power_rule == "waterfill":
        rows, row_of = _waterfill_rows(inst, table, uniform)

    best_score = -np.inf
    best_alloc = np.zeros((n, m), dtype=bool)
    for start in range(0, total, _CHUNK):
        indices = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        digits = (indices[:, None] // weights[None, :]) % n_options
        alloc = table[digits]
        if inst.power_rule == "uniform":
            power = uniform[digits]
        else:
            power = rows[row_of[start:start + _CHUNK]]
        rewards = _assignment_rewards(inst, alloc, power)
        scores = evaluate_batch(kind, rewards)
        pick = int(np.argmax(scores))
        if scores[pick] > best_score:
            best_score = float(scores[pick])
            best_alloc = alloc[pick].copy()
    return best_alloc, best_score
