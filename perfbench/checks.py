"""Output checks the benchmark computes itself.

Nothing here calls the package's own rate, reward, fairness, water-filling
or objective code: each quantity is recomputed from the engine's per-slot
snapshot with the textbook formula and compared with what the program
reported.  No check compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import itertools
import math
import os

import numpy as np

RATE_RTOL = 1e-9        # recomputed rates and rewards vs. the engine's
POWER_RTOL = 1e-9       # slack on the power cap and budget
LOG_FLOOR = 1e-9        # the model's floor inside the proportional-fair log


def dbm_to_w(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) * 1e-3


def shannon_rates(gains_sq, power_w, alloc, availability, bandwidth_hz, noise_w):
    """Per-user Shannon rate [bit/s] summed over selected, available bands.

    ``gains_sq[i, k, j]`` is the power gain from transmitter k to receiver
    i on band j; interference is every other transmitter on the band.
    """
    gains_sq = np.asarray(gains_sq)
    n, _, m = gains_sq.shape
    tx = np.where(alloc, power_w, 0.0)
    rates = np.zeros(n)
    for j in range(m):
        cross = gains_sq[:, :, j].copy()
        direct = np.diagonal(cross).copy()
        np.fill_diagonal(cross, 0.0)
        sinr = direct * tx[:, j] / (cross @ tx[:, j] + noise_w)
        used = alloc[:, j] & availability[j]
        rates += np.where(used, np.log1p(sinr), 0.0)
    return bandwidth_hz * rates / math.log(2.0)


def elastic(rate, threshold, beta):
    """The rate above the threshold, rate * exp(-beta (thr - rate) / rate)
    below it, and 0 at zero rate."""
    rate = np.asarray(rate, float)
    safe = np.where(rate > 0.0, rate, 1.0)
    below = np.where(rate > 0.0, rate * np.exp(-beta * (threshold - rate) / safe), 0.0)
    return np.where(rate > threshold, rate, below)


def jain(values) -> float:
    values = np.asarray(values, float)
    square_sum = float(np.sum(values * values))
    if square_sum == 0.0:
        return 1.0
    return float(np.sum(values)) ** 2 / (values.size * square_sum)


def score(objective: str, rewards: np.ndarray) -> np.ndarray:
    """Objective value of each row of a (candidates, users) reward matrix;
    the intrinsic objective has no joint form and is scored as the sum."""
    if objective in ("sum", "intrinsic"):
        return rewards.sum(axis=-1)
    if objective == "maxmin":
        return rewards.min(axis=-1)
    if objective == "proportional_fair":
        return np.log(rewards + LOG_FLOOR).sum(axis=-1)
    raise ValueError(f"unknown objective {objective!r}")


def _close(got, want, rtol) -> bool:
    got, want = np.asarray(got, float), np.asarray(want, float)
    return bool(np.all(np.isfinite(got)) and
                np.all(np.abs(got - want) <= rtol * np.abs(want) + 1e-300))


class Scenario:
    """The facts of a scenario the checks need, in linear units."""

    def __init__(self, cfg, thresholds):
        self.n, self.m = cfg.n_users, cfg.n_bands
        self.ell = cfg.max_bands_per_user
        self.n_slots = cfg.n_slots
        self.objective = cfg.objective
        self.bandwidth = cfg.bandwidth_hz
        self.noise_w = dbm_to_w(cfg.noise_psd_dbm_hz) * cfg.bandwidth_hz
        self.p_total_w = dbm_to_w(cfg.p_total_max_dbm)
        self.p_cap_w = dbm_to_w(cfg.p_band_max_dbm)
        self.beta = cfg.beta
        self.thresholds = np.asarray(thresholds, float)


class TrajectoryChecker:
    """Checks one trajectory slot by slot (as its ``slot_hook``) and then
    as a whole.  ``errors`` collects every failed check by name."""

    def __init__(self, sc: Scenario, seed: int, random_draws: int):
        self.sc = sc
        self.random_draws = random_draws
        self.rng = np.random.default_rng([seed, 0xBE4C])
        self.errors: list[str] = []
        self.slot_means: list[float] = []
        self.random_means: list[float] = []
        self.jains: list[float] = []

    def fail(self, what: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(what)

    def hook(self, snap) -> None:
        sc = self.sc
        t = snap.slot
        if t != len(self.slot_means):
            self.fail(f"slot {t}: out of order")
        alloc, power = np.asarray(snap.alloc), np.asarray(snap.power_w)
        avail, gains = np.asarray(snap.availability, bool), np.asarray(snap.gains_sq)

        if alloc.dtype != bool or alloc.shape != (sc.n, sc.m):
            self.fail(f"slot {t}: allocation is not a boolean (n, m) matrix")
        if gains.shape != (sc.n, sc.n, sc.m) or not np.all(np.isfinite(gains)) \
                or np.any(gains < 0.0):
            self.fail(f"slot {t}: gains are not finite non-negative (n, n, m)")
        if np.any(alloc & ~avail[None, :]):
            self.fail(f"slot {t}: a user transmits on a band its owner occupies")
        if np.any(alloc.sum(axis=1) > sc.ell):
            self.fail(f"slot {t}: a user exceeds its band budget")
        if np.any(power < 0.0) or np.any((power > 0.0) & ~alloc):
            self.fail(f"slot {t}: negative or off-allocation power")
        if np.any(power > sc.p_cap_w * (1.0 + POWER_RTOL)):
            self.fail(f"slot {t}: per-band power cap exceeded")
        if np.any(power.sum(axis=1) > sc.p_total_w * (1.0 + POWER_RTOL)):
            self.fail(f"slot {t}: total power budget exceeded")

        rates = shannon_rates(gains, power, alloc, avail, sc.bandwidth, sc.noise_w)
        if not _close(snap.rates, rates, RATE_RTOL):
            worst = np.max(np.abs(snap.rates - rates) / np.maximum(np.abs(rates), 1e-300))
            self.fail(f"slot {t}: rates differ from SINR/Shannon by {worst:.3g} relative")
        if not _close(snap.rewards, elastic(snap.rates, sc.thresholds, sc.beta), RATE_RTOL):
            self.fail(f"slot {t}: rewards differ from the elastic reward of the rates")
        j = jain(snap.rewards)
        if not 1.0 / sc.n - 1e-12 <= j <= 1.0 + 1e-12:
            self.fail(f"slot {t}: Jain index {j} outside [1/n, 1]")
        self.jains.append(j)
        self.slot_means.append(float(np.mean(snap.rates)))
        self.random_means.append(self._random_mean(gains, avail))

    def _random_mean(self, gains, avail) -> float:
        """Mean user rate when every user takes a uniform random feasible
        band subset and spends its whole budget, split evenly and capped."""
        sc = self.sc
        open_bands = np.flatnonzero(avail)
        k = min(sc.ell, open_bands.size)
        if k == 0:
            return 0.0
        per_band = min(sc.p_total_w / k, sc.p_cap_w)
        total = 0.0
        for _ in range(self.random_draws):
            picks = np.argsort(self.rng.random((sc.n, open_bands.size)), axis=1)[:, :k]
            alloc = np.zeros((sc.n, sc.m), bool)
            np.put_along_axis(alloc, open_bands[picks], True, axis=1)
            rates = shannon_rates(gains, per_band * alloc, alloc, avail,
                                  sc.bandwidth, sc.noise_w)
            total += float(np.mean(rates))
        return total / self.random_draws

    def finish(self, summary, records, out_dir: str) -> dict:
        """Whole-trajectory checks; returns facts worth reporting."""
        sc = self.sc
        if len(records) != sc.n_slots or len(self.slot_means) != sc.n_slots:
            self.fail("trajectory did not run every slot")
            return {}
        for rec, j in zip(records, self.jains):
            if not _close(rec.jain, j, 1e-9):
                self.fail(f"slot {rec.slot}: recorded Jain {rec.jain} != {j}")
        thr = summary.per_user_avg_throughput
        if not (math.isfinite(thr) and thr > 0.0):
            self.fail(f"summary throughput {thr} is not finite and > 0")
        if not _close(thr, float(np.mean(self.slot_means)), 1e-12):
            self.fail("summary throughput is not the mean of the slot means")
        if not _close(summary.avg_jain, float(np.mean(self.jains)), 1e-9):
            self.fail("summary Jain is not the mean of the slot Jain indices")
        if summary.total_messages != sc.n * (sc.n - 1) * sc.n_slots:
            self.fail("summary message count is not n (n - 1) per slot")
        self._check_csv(summary, out_dir)

        ratio = float(np.mean(self.slot_means)) / max(float(np.mean(self.random_means)), 1e-300)
        if not ratio > 1.0:
            self.fail(f"filters' throughput is {ratio:.3f}x a uniform random choice")
        return {"throughput_vs_random": ratio}

    def _check_csv(self, summary, out_dir: str) -> None:
        with open(os.path.join(out_dir, "slots.csv"), newline="") as handle:
            rows = list(csv.DictReader(handle))
        means = [float(r["mean_rate_bps"]) for r in rows]
        if len(means) != self.sc.n_slots or not _close(means, self.slot_means, 1e-12):
            self.fail("slots.csv mean rates differ from the snapshots")
        with open(os.path.join(out_dir, "summary.csv"), newline="") as handle:
            (row,) = list(csv.DictReader(handle))
        if float(row["avg_throughput_bps"]) != summary.per_user_avg_throughput:
            self.fail("summary.csv throughput differs from the run summary")
        if not _close(float(row["avg_throughput_bps"]), float(np.mean(means)), 1e-12):
            self.fail("summary.csv throughput is not the mean of slots.csv")


# ---------------------------------------------------------------------------
# Exhaustive joint optimum, for the oracle-check workload
# ---------------------------------------------------------------------------

def _water_fill(inv_g, active, budget, cap, iterations=100):
    """Capped water-filling of every row by bisection on the water level:
    powers clip(level - 1/g, 0, cap) on active bands summing to
    min(budget, cap * active bands)."""
    caps = np.where(active, cap, 0.0)
    target = np.minimum(budget, caps.sum(axis=-1, keepdims=True))
    inv_g = np.where(active, inv_g, np.inf)
    lo = np.zeros_like(target)
    hi = np.where(active, inv_g, 0.0).max(axis=-1, keepdims=True) + cap + budget
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        low = np.clip(mid - inv_g, 0.0, caps).sum(axis=-1, keepdims=True) < target
        lo = np.where(low, mid, lo)
        hi = np.where(low, hi, mid)
    return np.clip(hi - inv_g, 0.0, caps)


def exhaustive_best(sc: Scenario, gains_sq, availability) -> float:
    """Best objective over every joint assignment (each user idles or takes
    a feasible-size subset of the open bands), each user water-filling its
    budget against the others' evenly split powers."""
    gains_sq = np.asarray(gains_sq, float)
    avail = np.asarray(availability, bool)
    n, m = sc.n, sc.m
    open_bands = np.flatnonzero(avail).tolist()
    k = min(sc.ell, len(open_bands))
    options = [()] + (list(itertools.combinations(open_bands, k)) if k else [])
    table = np.zeros((len(options), m), bool)
    for idx, bands in enumerate(options):
        table[idx, list(bands)] = True
    choice = np.indices((len(options),) * n).reshape(n, -1).T
    alloc = table[choice]                                   # (A, n, m)

    cross = gains_sq.copy()
    direct = np.einsum("iij->ij", cross).copy()
    for i in range(n):
        cross[i, i, :] = 0.0
    count = alloc.sum(axis=2, keepdims=True)
    even = np.where(alloc, np.minimum(sc.p_total_w / np.maximum(count, 1), sc.p_cap_w), 0.0)
    interference = np.einsum("ikj,akj->aij", cross, even)
    inv_g = (interference + sc.noise_w) / direct[None]
    power = _water_fill(inv_g, alloc, sc.p_total_w, sc.p_cap_w)

    interference = np.einsum("ikj,akj->aij", cross, power)
    sinr = direct[None] * power / (interference + sc.noise_w)
    rates = sc.bandwidth * np.where(alloc & avail, np.log1p(sinr), 0.0).sum(axis=2) / math.log(2.0)
    return float(score(sc.objective, elastic(rates, sc.thresholds, sc.beta)).max())
