"""Slot-by-slot simulation engine.

Per slot: sense licensed-user activity, let every agent predict/decide from
the powers broadcast last slot plus the channel prediction, advance the true
channels, realize rates and rewards under the simultaneous choices, then let
each agent reweight and resample its particles against its realized reward.
All agents' filters step together as one batched call per stage.  Every
random draw comes from a substream keyed by (domain, slot), shared by all
agents, so a (seed, config) pair pins the whole trajectory bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import ar_coefficients, init_channels, predict_channels, step_channels
from .phy import draw_rate_thresholds, elastic_reward, user_rates
from .pfilter import (decide, effective_sample_size, init_particles, predict,
                      systematic_resample, update_weights)
from .primary_user import occupancy, sample_availability
from .system import (Domain, RngStream, SystemConfig, ValidatedConfig,
                     derive_substream, validate_allocation, validate_power)

# Reweighting policy: the weight of the newest reward in each agent's running
# reward mean, the likelihood width as a fraction of that mean, and the ESS
# below which an agent resamples, as a fraction of the particle count.
REWARD_EMA_WEIGHT = 0.1
LIKELIHOOD_SIGMA_FRAC = 0.25
ESS_THRESHOLD_FRAC = 0.5


@dataclass(frozen=True)
class SlotRecord:
    """Realized outcome of one slot; ``alloc`` is the boolean (users, bands)
    selection of each user's bands.  A selected band can get zero power,
    which adds nothing to any rate."""

    slot: int
    realized_rates: np.ndarray
    realized_rewards: np.ndarray
    jain: float
    occupancy: float
    messages: int
    alloc: np.ndarray


@dataclass(frozen=True)
class RunSummary:
    """Whole-run aggregates."""

    per_user_avg_throughput: float
    avg_jain: float
    total_messages: int
    config: SystemConfig


@dataclass(frozen=True)
class SlotSnapshot:
    """Engine internals exposed to an optional per-slot hook (used by the
    oracle comparison): realized squared gains, availability, the users'
    demand thresholds, and the simultaneous choices with their outcome.
    Every array is the hook's own: writing into it changes neither the rest
    of the run nor the slot records."""

    slot: int
    gains_sq: np.ndarray
    availability: np.ndarray
    alloc: np.ndarray
    power_w: np.ndarray
    rates: np.ndarray
    rewards: np.ndarray
    thresholds: np.ndarray


def jain_index(rewards: np.ndarray) -> float:
    """Fairness in [1/n, 1]; an all-zero vector counts as perfectly fair."""
    rewards = np.asarray(rewards, dtype=float)
    total = rewards.sum()
    square_sum = np.square(rewards).sum()
    if square_sum == 0.0:
        return 1.0
    return float(total * total / (rewards.size * square_sum))


def run(config: ValidatedConfig,
        slot_hook: Callable[[SlotSnapshot], None] | None = None,
        ) -> tuple[RunSummary, list[SlotRecord]]:
    """Simulate one seeded trajectory; returns the summary and slot records."""
    cfg = config
    n, m, t_total = cfg.n_users, cfg.n_bands, cfg.n_slots
    root = RngStream(cfg.seed)

    coeffs = ar_coefficients(cfg.doppler_coherence_product)
    channels = init_channels(cfg, root)
    thresholds = draw_rate_thresholds(cfg, root)
    pset = init_particles(cfg, derive_substream(root, Domain.PARTICLE_INIT))

    power = np.zeros((n, m))
    messages_per_slot = n * (n - 1)
    records: list[SlotRecord] = []

    for t in range(t_total):
        available = sample_availability(
            cfg.pu_busy_prob, m, derive_substream(root, (Domain.AVAILABILITY, t)))
        predicted_sq = np.abs(predict_channels(channels, coeffs)) ** 2
        predict(pset, available, cfg.mutation_prob,
                derive_substream(root, (Domain.PARTICLE_PREDICT, t)))
        alloc, power, _, hypothetical = decide(pset, cfg, predicted_sq, power,
                                               available, thresholds)

        validate_allocation(alloc, available, cfg.max_bands_per_user)
        validate_power(power, alloc, cfg.p_total_max_w, cfg.p_band_max_w)

        step_channels(channels, coeffs, derive_substream(root, (Domain.CHANNEL_STEP, t)))
        gains_sq = np.abs(channels.current) ** 2
        rates = user_rates(alloc, power, gains_sq, available,
                           cfg.bandwidth_hz, cfg.noise_band_w)
        rewards = elastic_reward(rates, thresholds, cfg.beta)

        reward_mean = (rewards.copy() if t == 0 else
                       (1.0 - REWARD_EMA_WEIGHT) * reward_mean
                       + REWARD_EMA_WEIGHT * rewards)
        update_weights(pset, rewards, hypothetical,
                       LIKELIHOOD_SIGMA_FRAC * reward_mean)
        low = np.flatnonzero(effective_sample_size(pset)
                             < ESS_THRESHOLD_FRAC * cfg.n_particles)
        if low.size:
            systematic_resample(
                pset, low, derive_substream(root, (Domain.PARTICLE_RESAMPLE, t)))

        records.append(SlotRecord(
            slot=t, realized_rates=rates, realized_rewards=rewards,
            jain=jain_index(rewards), occupancy=occupancy(available),
            messages=messages_per_slot, alloc=alloc))
        if slot_hook is not None:
            slot_hook(SlotSnapshot(slot=t, gains_sq=gains_sq,
                                   availability=available.copy(),
                                   alloc=alloc.copy(),
                                   power_w=power.copy(), rates=rates.copy(),
                                   rewards=rewards.copy(),
                                   thresholds=thresholds.copy()))

    summary = RunSummary(
        per_user_avg_throughput=float(np.mean([r.realized_rates.mean() for r in records])),
        avg_jain=float(np.mean([r.jain for r in records])),
        total_messages=messages_per_slot * t_total,
        config=cfg.base,
    )
    return summary, records

