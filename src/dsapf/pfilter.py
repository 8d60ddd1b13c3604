"""Particle filters over band selections, one per agent, stepped together.

Each agent tracks a population of candidate band subsets (particles).  Every
slot it perturbs them (prediction), scores each candidate against the powers
everyone broadcast last slot plus the predicted channels, transmits the best
one (decision), and afterwards reweights the population by how well each
candidate's predicted reward explains the reward actually measured
(weighting), resampling when the weights degenerate.  All agents' filters
live in one ``ParticleSet`` and every step acts on all of them at once,
drawing for every agent from the one random substream the caller passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .objectives import ObjectiveKind, evaluate_batch
from .phy import INV_LN2, elastic_reward, shannon_rates
from .powerfill import water_fill_batch
from .system import RngStream, ValidatedConfig


@dataclass
class ParticleSet:
    """Every agent's particle population.

    ``selections`` is a boolean (agents, particles, bands) array and
    ``weights`` the matching (agents, particles) rows on the probability
    simplex.
    """

    selections: np.ndarray
    weights: np.ndarray
    max_bands: int


def _top_k(keys: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k largest keys along the last axis."""
    out = np.zeros(keys.shape, dtype=bool)
    top = np.argpartition(-keys, k - 1, axis=-1)[..., :k]
    np.put_along_axis(out, top, True, axis=-1)
    return out


def init_particles(config: ValidatedConfig, rng: RngStream) -> ParticleSet:
    """Uniform particles over the max_bands_per_user-subsets of all bands,
    equal weights; one (agents, particles, bands) draw from ``rng`` supplies
    every agent's keys."""
    shape = (config.n_users, config.n_particles, config.n_bands)
    return ParticleSet(selections=_top_k(rng.generator().random(shape),
                                         config.max_bands_per_user),
                       weights=np.full(shape[:2], 1.0 / config.n_particles),
                       max_bands=config.max_bands_per_user)


def predict(pset: ParticleSet, availability: np.ndarray, mutation_prob: float,
            rng: RngStream) -> ParticleSet:
    """Propagate every agent's particles one slot.

    Bands whose owner returned are dropped; each surviving band is dropped
    with the mutation probability; every particle is then refilled with
    uniform draws from the remaining available bands back to the feasible
    size min(max_bands, available bands).  With mutation probability 1 this
    is a fresh uniform restart.  ``rng`` supplies two (agents, particles,
    bands) draws: first the mutation draw (only with a mutation probability
    above 0), then the refill keys.
    """
    availability = np.asarray(availability, dtype=bool)
    gen = rng.generator()
    shape = pset.selections.shape
    keep = pset.selections & availability
    if mutation_prob > 0.0:
        keep &= gen.random(shape) >= mutation_prob
    k = min(pset.max_bands, int(availability.sum()))
    keys = np.where(availability, gen.random(shape), -1.0)
    # Kept bands always survive the top-k cut.
    pset.selections = _top_k(np.where(keep, 2.0, keys), k)
    return pset


def decide(pset: ParticleSet, config: ValidatedConfig, gains_sq: np.ndarray,
           power_w: np.ndarray, availability: np.ndarray,
           thresholds: np.ndarray):
    """Score every agent's particles and pick each agent's best one.

    Agent i evaluates a particle as: i switches to the candidate subset with
    a water-filled power split, everyone else repeats the powers ``power_w``
    broadcast last slot, and the channels are the predicted squared gains
    ``gains_sq[rx, tx, band]``.  The candidate is scored by
    ``config.objective``; ties go to the lowest particle index.  A particle
    holding a band whose licensed owner is busy neither transmits nor
    spends power there.  Another user's rate is computed only on the bands
    it transmits on in ``power_w``: elsewhere its signal is 0, which adds
    exactly 0, so the scores equal those of a sum over every band bit for
    bit.  Two terms sum alike in any order; three or more are summed at
    their places on the full band axis, where NumPy groups them as it would
    there.

    Returns ``(alloc, power, scores, self_rewards)``: the chosen (agents,
    bands) selections and powers, and the (agents, particles) scores and
    hypothetical own rewards (the latter feed the weight update once the
    realized rewards arrive).
    """
    objective = ObjectiveKind(config.objective)
    sel = pset.selections & availability
    n, n_particles, m = sel.shape
    noise = config.noise_band_w
    bandwidth = config.bandwidth_hz

    direct = np.einsum("iij->ij", gains_sq)
    signal = direct * power_w                      # each receiver's own last signal
    rest = np.einsum("ikj,kj->ij", gains_sq, power_w) - signal
    g_eff = direct / (np.maximum(rest, 0.0) + noise)
    if pset.max_bands == 1:
        # One band per particle: the whole budget (up to the cap) goes there.
        powers = sel * min(config.p_total_max_w, config.p_band_max_w)
    else:
        powers = water_fill_batch(
            np.broadcast_to(g_eff[:, None, :], sel.shape).reshape(-1, m),
            sel.reshape(-1, m), config.p_total_max_w,
            config.p_band_max_w).reshape(sel.shape)
    own_reward = elastic_reward(
        shannon_rates(powers * g_eff[:, None, :], availability, bandwidth),
        thresholds[:, None], config.beta)

    if objective is ObjectiveKind.INTRINSIC:
        scores = own_reward
    else:
        # bands[k]: receiver k's transmitting bands, padded with silent ones
        # to the widest receiver's count.
        on = power_w != 0.0
        bands = np.argsort(~on, axis=1, kind="stable")[:, :on.sum(axis=1).max()]
        rx = np.arange(n)
        # [agent i, receiver k, c] on band bands[k, c]: what k hears from
        # everyone but itself and i, and i's gain towards k.
        from_agent = gains_sq[rx[None, :, None], rx[:, None, None], bands[None]]
        base = (np.take_along_axis(rest, bands, axis=1)[None]
                - from_agent * power_w[:, bands])
        heard = np.take_along_axis(signal, bands, axis=1)
        band_avail = availability[bands]
        # Three or more terms go to their full-axis places (see above); the
        # places are the same on every pass, so the rest of buf stays 0.
        wide = bands.shape[1] > 2
        if wide:
            buf = np.zeros((n, n, m))
            at = (rx[:, None] * m + bands).ravel()
        scores = np.empty((n, n_particles))
        for p in range(n_particles):
            interf = np.maximum(base + from_agent * powers[:, p][:, bands], 0.0)
            terms = np.log1p(heard / (interf + noise)) * band_avail
            if wide:
                buf.reshape(n, -1)[:, at] = terms.reshape(n, -1)
                terms = buf
            rates = bandwidth * INV_LN2 * terms.sum(axis=-1)
            rewards = elastic_reward(rates, thresholds, config.beta)
            rewards[rx, rx] = own_reward[:, p]
            scores[:, p] = evaluate_batch(objective, rewards)

    best = np.argmax(scores, axis=1)
    rows = np.arange(n)
    return sel[rows, best], powers[rows, best], scores, own_reward


def update_weights(pset: ParticleSet, observed_rewards: np.ndarray,
                   predicted_rewards: np.ndarray,
                   sigma_r: np.ndarray) -> ParticleSet:
    """Bayes step per agent: scale weights by a Gaussian likelihood of the
    reward residual, then renormalize.  A fully underflowed row resets to
    uniform rather than dividing by zero; a row with sigma_r = 0 (no reward
    scale yet) keeps its weights."""
    sigma_r = np.asarray(sigma_r, dtype=float)
    if np.any(sigma_r < 0.0):
        raise ValueError("sigma_r must be >= 0")
    active = (sigma_r > 0.0)[:, None]
    residual = (np.asarray(observed_rewards, dtype=float)[:, None]
                - np.asarray(predicted_rewards, dtype=float))
    scale = np.where(active, sigma_r[:, None], 1.0)
    with np.errstate(over="ignore"):  # a residual beyond float range has likelihood 0
        w = pset.weights * np.exp(-0.5 * (residual / scale) ** 2)
    total = w.sum(axis=1, keepdims=True)
    finite = np.isfinite(total) & (total > 0.0)
    w = np.where(finite, w / np.where(finite, total, 1.0),
                 1.0 / pset.weights.shape[1])
    pset.weights = np.where(active, w, pset.weights)
    return pset


def effective_sample_size(pset: ParticleSet) -> np.ndarray:
    """Per agent 1 / sum(w^2): n_particles when uniform, 1 when degenerate."""
    return 1.0 / np.square(pset.weights).sum(axis=1)


def systematic_resample(pset: ParticleSet, agents: Sequence[int],
                        rng: RngStream) -> ParticleSet:
    """Low-variance resampling of the listed agents' populations; one draw
    of ``len(agents)`` uniforms from ``rng`` gives agent ``agents[j]`` its
    offset ``j``.

    Offspring counts stay within one of each particle's expectation
    n_particles * weight; the resampled rows' weights reset to uniform.
    Other agents' rows are left as they are.
    """
    n_particles = pset.weights.shape[1]
    u0 = rng.generator().random(len(agents))
    positions = (u0[:, None] + np.arange(n_particles)) / n_particles
    cumulative = np.cumsum(pset.weights[agents], axis=1)
    cumulative[:, -1] = 1.0  # guard round-off so the last position always lands
    # Position p's parent is the number of bins below it.  Merged stably after
    # the ascending positions, equal bins rank later: p lands at p + parent.
    order = np.argsort(np.hstack([positions, cumulative]), axis=1, kind="stable")
    ranks = np.nonzero(order < n_particles)[1].reshape(positions.shape)
    parents = ranks - np.arange(n_particles)
    # New arrays, so a caller holding the old population sees it unchanged.
    selections = pset.selections.copy()
    selections[agents] = np.take_along_axis(selections[agents],
                                            parents[:, :, None], axis=1)
    weights = pset.weights.copy()
    weights[agents] = 1.0 / n_particles
    pset.selections, pset.weights = selections, weights
    return pset
