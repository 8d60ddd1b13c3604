"""Per-agent particle filter over band selections.

Each agent tracks a population of candidate band subsets (particles).  Every
slot it perturbs them (prediction), scores each candidate against a snapshot
of the last broadcast network state plus the predicted channels, transmits
the best one (decision), and afterwards reweights the population by how well
each candidate's predicted reward explains the reward actually measured
(weighting), resampling when the weights degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objectives import ObjectiveKind, evaluate_batch
from .phy import elastic_reward, shannon_rates
from .powerfill import water_fill_batch
from .system import RngStream, ValidatedConfig


@dataclass
class ParticleSet:
    """One agent's particle population.

    ``selections`` is a boolean (n_particles, n_bands) matrix, ``weights``
    the matching probability simplex, and ``running_reward_mean`` an
    exponentially smoothed record of observed rewards that sets the scale of
    the reweighting likelihood.
    """

    selections: np.ndarray
    weights: np.ndarray
    max_bands: int
    running_reward_mean: float | None = None


@dataclass(frozen=True)
class NeighborView:
    """Information an agent may act on in one slot: everything broadcast at
    the end of the previous slot plus the current channel prediction and
    sensed availability.  All arrays are frozen; decisions made from the same
    view are order-independent across agents."""

    alloc: np.ndarray            # (n, m) bool, selections broadcast at t-1
    power_w: np.ndarray          # (n, m) transmit powers broadcast at t-1
    rewards: np.ndarray          # (n,) rewards broadcast at t-1
    gains_sq: np.ndarray         # (n, n, m) predicted |h|^2 for slot t
    diag_gains_sq: np.ndarray    # (n, m) direct-link rows of gains_sq
    rp_base: np.ndarray          # (n, m) received power at each rx under t-1 choices
    availability: np.ndarray     # (m,) bool sensed for slot t
    thresholds: np.ndarray       # (n,) demand thresholds
    bandwidth_hz: float
    noise_band_w: float
    beta: float
    p_total_w: float
    p_band_cap_w: float


@dataclass(frozen=True)
class DecideResult:
    """Outcome of one decision: the transmitted selection and power row plus
    the per-particle objective scores and hypothetical own rewards (the
    latter feed the weight update once the realized reward arrives)."""

    selection: np.ndarray
    power_w: np.ndarray
    scores: np.ndarray
    self_rewards: np.ndarray


def make_view(alloc, power_w, rewards, predicted_gains, availability, thresholds,
              bandwidth_hz, noise_band_w, beta, p_total_w, p_band_cap_w) -> NeighborView:
    """Assemble and freeze the per-slot information snapshot."""
    gains_sq = np.abs(predicted_gains) ** 2
    diag = np.ascontiguousarray(np.einsum("iij->ij", gains_sq))
    rp_base = np.einsum("ikj,kj->ij", gains_sq, power_w)
    view = NeighborView(
        alloc=alloc, power_w=power_w, rewards=rewards, gains_sq=gains_sq,
        diag_gains_sq=diag, rp_base=rp_base,
        availability=np.asarray(availability, bool), thresholds=thresholds,
        bandwidth_hz=float(bandwidth_hz), noise_band_w=float(noise_band_w),
        beta=float(beta), p_total_w=float(p_total_w),
        p_band_cap_w=float(p_band_cap_w),
    )
    for arr in (view.alloc, view.power_w, view.rewards, view.gains_sq,
                view.diag_gains_sq, view.rp_base, view.availability,
                view.thresholds):
        arr.flags.writeable = False
    return view


def _uniform_subsets(gen: np.random.Generator, n_rows: int,
                     availability: np.ndarray, subset_size: int) -> np.ndarray:
    """n_rows boolean rows, each a uniform subset_size-subset of the
    available bands (top-k of i.i.d. random keys)."""
    m = availability.size
    out = np.zeros((n_rows, m), dtype=bool)
    if subset_size == 0:
        return out
    keys = np.where(availability, gen.random((n_rows, m)), -1.0)
    top = np.argpartition(-keys, subset_size - 1, axis=1)[:, :subset_size]
    np.put_along_axis(out, top, True, axis=1)
    return out


def init_particles(config: ValidatedConfig, availability: np.ndarray,
                   rng: RngStream) -> ParticleSet:
    """Uniform particles over the feasible subsets, equal weights.

    Each particle holds min(max_bands_per_user, available bands) bands; with
    nothing available the particles are empty (the agent idles).
    """
    availability = np.asarray(availability, dtype=bool)
    k = min(config.max_bands_per_user, int(availability.sum()))
    gen = rng.generator()
    selections = _uniform_subsets(gen, config.n_particles, availability, k)
    weights = np.full(config.n_particles, 1.0 / config.n_particles)
    return ParticleSet(selections=selections, weights=weights,
                       max_bands=config.max_bands_per_user)


def predict(pset: ParticleSet, availability: np.ndarray, mutation_prob: float,
            rng: RngStream) -> ParticleSet:
    """Propagate particles one slot.

    Bands whose owner returned are dropped; each surviving band is dropped
    with the mutation probability; every particle is then refilled with
    uniform draws from the remaining available bands back to the feasible
    size.  With mutation probability 1 this is a fresh uniform restart.
    """
    availability = np.asarray(availability, dtype=bool)
    gen = rng.generator()
    keep = pset.selections & availability
    if mutation_prob > 0.0:
        keep &= gen.random(keep.shape) >= mutation_prob
    k = min(pset.max_bands, int(availability.sum()))
    n_rows, m = keep.shape
    if k == 0:
        pset.selections = np.zeros((n_rows, m), dtype=bool)
        return pset
    keys = np.where(availability, gen.random((n_rows, m)), -1.0)
    keys = np.where(keep, 2.0, keys)  # kept bands always survive the top-k cut
    top = np.argpartition(-keys, k - 1, axis=1)[:, :k]
    selections = np.zeros((n_rows, m), dtype=bool)
    np.put_along_axis(selections, top, True, axis=1)
    pset.selections = selections
    return pset


def decide(pset: ParticleSet, agent: int, view: NeighborView,
           objective) -> DecideResult:
    """Score every particle on the frozen view and transmit the best one.

    Each particle is evaluated as: this agent switches to the candidate
    subset with a water-filled power split, everyone else repeats their
    last broadcast selections and powers, channels follow the prediction.
    Ties go to the lowest particle index.
    """
    objective = ObjectiveKind(objective)
    sel = pset.selections
    avail = view.availability
    noise = view.noise_band_w
    i = agent

    direct = view.diag_gains_sq[i]
    own_prev = direct * view.power_w[i]
    interf_own = np.maximum(view.rp_base[i] - own_prev, 0.0)
    g_eff = direct / (interf_own + noise)
    if pset.max_bands == 1:
        # One band per particle: the whole budget (up to the cap) goes there.
        powers = sel * min(view.p_total_w, view.p_band_cap_w)
    else:
        powers = water_fill_batch(np.broadcast_to(g_eff, sel.shape), sel,
                                  view.p_total_w, view.p_band_cap_w)
    own_rate = shannon_rates(powers * g_eff, avail, view.bandwidth_hz)
    own_reward = elastic_reward(own_rate, view.thresholds[i], view.beta)

    if objective is ObjectiveKind.INTRINSIC:
        scores = own_reward
    else:
        signal = view.diag_gains_sq * view.power_w
        from_agent = view.gains_sq[:, i, :]                       # (n, m)
        base = view.rp_base - signal - from_agent * view.power_w[i]
        interf = np.maximum(base[None] + from_agent[None] * powers[:, None, :], 0.0)
        rates = shannon_rates(signal[None] / (interf + noise), avail,
                              view.bandwidth_hz)
        rewards = elastic_reward(rates, view.thresholds, view.beta)
        rewards[:, i] = own_reward
        scores = evaluate_batch(objective, rewards, i)

    best = int(np.argmax(scores))
    return DecideResult(selection=sel[best].copy(), power_w=powers[best].copy(),
                        scores=scores, self_rewards=own_reward)


def update_weights(pset: ParticleSet, observed_reward: float,
                   predicted_rewards: np.ndarray, sigma_r: float) -> ParticleSet:
    """Bayes step: scale weights by a Gaussian likelihood of the reward
    residual, then renormalize.  A fully underflowed population resets to
    uniform rather than dividing by zero."""
    if sigma_r <= 0.0:
        raise ValueError("sigma_r must be > 0")
    residual = observed_reward - np.asarray(predicted_rewards, dtype=float)
    w = pset.weights * np.exp(-0.5 * (residual / sigma_r) ** 2)
    total = w.sum()
    if not np.isfinite(total) or total <= 0.0:
        w = np.full_like(pset.weights, 1.0 / pset.weights.size)
    else:
        w = w / total
    pset.weights = w
    return pset


def effective_sample_size(pset: ParticleSet) -> float:
    """1 / sum(w^2): n_particles when uniform, 1 when degenerate."""
    return float(1.0 / np.square(pset.weights).sum())


def systematic_resample(pset: ParticleSet, rng: RngStream) -> ParticleSet:
    """Low-variance resampling with a single uniform offset.

    Offspring counts stay within one of each particle's expectation
    n_particles * weight; weights reset to uniform.
    """
    n = pset.weights.size
    u0 = rng.generator().random()
    positions = (u0 + np.arange(n)) / n
    cumulative = np.cumsum(pset.weights)
    cumulative[-1] = 1.0  # guard round-off so the last position always lands
    parents = np.searchsorted(cumulative, positions)
    pset.selections = pset.selections[parents].copy()
    pset.weights = np.full(n, 1.0 / n)
    return pset
