"""Exhaustive joint-allocation search on frozen tiny instances.

Enumerates every joint band assignment (each user either idles or takes a
subset of the feasible size) on a fixed channel snapshot and scores it under
a chosen objective, each user water-filling against the others' uniform
split.  Useful only at toy scale; the result is the optimum over joint band
choices under that power rule, not an upper bound on what the filters reach.

A user's powers depend only on its option and on which other users share
its bands, so each distinct per-user water-fill is solved once per instance
and gathered back to every joint assignment.  Rates are then computed per
(user, option) slice of the joint assignments, only on that option's bands,
and all assignments are scored in one pass with no chunking.  The scores
match water-filling and rating each assignment afresh bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .objectives import ObjectiveKind, evaluate, evaluate_batch
from .phy import INV_LN2, elastic_reward
from .powerfill import water_fill_batch


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

    ``gains_sq`` is the realized squared-gain tensor (users, users, bands).
    ``power_rule`` names the one power rule, "waterfill"; the field stays
    because the benchmark (``perfbench/worker.py``) passes it, and any other
    value raises ``ValueError``.
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
    power_rule: str = "waterfill"

    def __post_init__(self):
        n = self.gains_sq.shape[0]
        m = self.availability.size
        if self.gains_sq.shape[:2] != (n, n) or self.gains_sq.shape[2] != m:
            raise ValueError("gains_sq must be (n_users, n_users, n_bands)")
        check_enumerable(n, m, self.max_bands_per_user)
        if self.power_rule != "waterfill":
            raise ValueError("power_rule must be 'waterfill'")


def band_alphabet(availability: np.ndarray, max_bands_per_user: int) -> list[tuple[int, ...]]:
    """Idle plus every feasible-size subset of the available bands, in
    lexicographic order."""
    avail = np.flatnonzero(np.asarray(availability, bool)).tolist()
    k = min(max_bands_per_user, len(avail))
    options: list[tuple[int, ...]] = [()]
    if k > 0:
        options.extend(itertools.combinations(avail, k))
    return options


def _waterfill_rows(inst: TinyInstance,
                    table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Water-fill each distinct per-user problem once.

    Every non-idle option holds the same number k of bands, so every
    transmitter puts the same uniform min(P / k, cap) on each of its bands,
    and a user's water-fill reads only its own bands.  A user's powers thus
    depend only on the user, its option, and which other users occupy each
    of its bands: n * (options - 1) * 2**((n - 1) * k) problems.  Returns
    their powers, row 0 being an idle user's, and for each joint assignment
    (in lexicographic rank) and user the row that holds that user's powers.
    """
    n, _, m = inst.gains_sq.shape
    n_options = table.shape[0]
    k = int(table[-1].sum())
    uniform = min(inst.p_total_w / max(k, 1), inst.p_band_cap_w)
    # Effective gains of every user on every band under each on/off
    # pattern of the users, each transmitter at its uniform power.
    on = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1 == 1
    pattern_uniform = np.where(on[:, :, None], uniform, np.zeros(m))
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


def _assignment_rates(inst: TinyInstance, table: np.ndarray, rows: np.ndarray,
                      row_of: np.ndarray) -> np.ndarray:
    """Every user's rate in every joint assignment, (assignments, users).

    An idle user's rate is 0, and a user on option o transmits only on o's
    bands, all of them open, so each (user, option) computes its rate on
    those bands alone, over the assignments where the user holds that
    option: ``row_of`` viewed as the grid of joint assignments, taken at o
    along the user's axis.  The received power is summed over transmitters
    k in ascending order, as the einsum in ``phy.sinr_matrix`` sums it, and
    a user's (at most two) band terms add to the same value whatever zero
    terms surround them, so every rate equals ``phy.user_rates`` on the
    full (assignments, users, bands) tensors bit for bit.
    """
    n = inst.gains_sq.shape[0]
    n_options = table.shape[0]
    grid = (n_options,) * n
    row_grid = row_of.reshape(grid + (n,))
    rates = np.zeros((n_options ** n, n))
    rate_grid = rates.reshape(grid + (n,))
    columns = np.ascontiguousarray(rows.T)
    scale = inst.bandwidth_hz * INV_LN2
    for i in range(n):
        for o in range(1, n_options):
            held = row_grid.take(o, axis=i)
            total = 0.0
            for j in np.flatnonzero(table[o]):
                power = columns[j][held]
                received = inst.gains_sq[i, 0, j] * power[..., 0]
                for k in range(1, n):
                    received += inst.gains_sq[i, k, j] * power[..., k]
                signal = inst.gains_sq[i, i, j] * power[..., i]
                interference = np.maximum(received - signal, 0.0)
                total = total + np.log1p(signal / (interference + inst.noise_band_w))
            rate_grid[(slice(None),) * i + (o, Ellipsis, i)] = scale * total
    return rates


def solve_exhaustive(inst: TinyInstance, objective) -> tuple[np.ndarray, float]:
    """Best joint allocation and its score under ``evaluate_batch``; ties
    break to the lexicographically first assignment."""
    kind = ObjectiveKind(objective)
    n = inst.gains_sq.shape[0]
    m = inst.availability.size
    options = band_alphabet(inst.availability, inst.max_bands_per_user)
    n_options = len(options)

    table = np.zeros((n_options, m), dtype=bool)
    for idx, bands in enumerate(options):
        table[idx, list(bands)] = True
    rows, row_of = _waterfill_rows(inst, table)
    rates = _assignment_rates(inst, table, rows, row_of)
    scores = evaluate_batch(kind, elastic_reward(rates, inst.thresholds, inst.beta))
    pick = int(np.argmax(scores))
    # Assignment index == lexicographic rank: user u's option is digit u.
    digits = pick // n_options ** np.arange(n - 1, -1, -1) % n_options
    return table[digits], float(scores[pick])


def compare(config, snapshots):
    """Score the slot snapshots of a run of the validated ``config`` against
    the exhaustive optimum of each slot under ``config.objective``.

    Yields ``(slot, achieved, optimum, ratio)``.  The ratio is achieved over
    optimum, except under ``proportional_fair``: its score is a sum of logs
    and can be <= 0, so the ratio there is that of the geometric means of
    the rewards, ``exp((achieved - optimum) / n_users)``.
    """
    for snap in snapshots:
        inst = TinyInstance(
            gains_sq=snap.gains_sq, availability=snap.availability,
            thresholds=snap.thresholds, bandwidth_hz=config.bandwidth_hz,
            noise_band_w=config.noise_band_w, p_total_w=config.p_total_max_w,
            p_band_cap_w=config.p_band_max_w,
            max_bands_per_user=config.max_bands_per_user, beta=config.beta)
        _, optimum = solve_exhaustive(inst, config.objective)
        achieved = evaluate(config.objective, snap.rewards)
        if config.objective == "proportional_fair":
            ratio = math.exp((achieved - optimum) / config.n_users)
        else:
            ratio = (achieved / optimum if optimum > 0
                     else 1.0 if achieved == optimum else float("nan"))
        yield snap.slot, achieved, optimum, ratio
