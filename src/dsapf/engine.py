"""Slot-by-slot simulation engine.

Per slot: sense licensed-user activity, let every agent predict/decide from
the same frozen snapshot of last slot's broadcasts plus the channel
prediction, advance the true channels, realize rates and rewards under the
simultaneous choices, then let each agent reweight and resample its
particles against its realized reward.  Every random draw comes from a
substream keyed by (domain, agent, slot), so a (seed, config) pair pins the
whole trajectory bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .channel import ar_coefficients, init_channels, predict_channels, step_channels
from .objectives import ObjectiveKind
from .phy import draw_rate_thresholds, elastic_reward, user_rates
from .pfilter import (decide, effective_sample_size, init_particles, make_view,
                      predict, systematic_resample, update_weights)
from .primary_user import occupancy, sample_availability
from .system import (Domain, RngStream, SystemConfig, ValidatedConfig,
                     derive_substream, validate, validate_allocation,
                     validate_power)

# Weight of the newest observation in the running reward mean that scales
# the reweighting likelihood.
REWARD_EMA_WEIGHT = 0.1


@dataclass(frozen=True)
class SlotRecord:
    """Realized outcome of one slot."""

    slot: int
    realized_rates: np.ndarray
    realized_rewards: np.ndarray
    jain: float
    occupancy: float
    messages: int
    per_user_selected_bands: list[tuple[int, ...]]


@dataclass(frozen=True)
class RunSummary:
    """Whole-run aggregates."""

    per_user_avg_throughput: float
    avg_jain: float
    total_messages: int
    config: SystemConfig
    seed: int


@dataclass(frozen=True)
class SlotSnapshot:
    """Engine internals exposed to an optional per-slot hook (used by the
    oracle comparison): realized squared gains, availability, the users'
    demand thresholds, and the simultaneous choices with their outcome."""

    slot: int
    gains_sq: np.ndarray
    availability: np.ndarray
    alloc: np.ndarray
    power_w: np.ndarray
    rates: np.ndarray
    rewards: np.ndarray
    thresholds: np.ndarray


@dataclass(frozen=True)
class ReplicateResult:
    """Per-seed summaries plus mean/std aggregates across seeds."""

    summaries: list[RunSummary]
    mean: dict
    std: dict


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
    kind = ObjectiveKind(cfg.objective)
    root = RngStream(cfg.seed)

    coeffs = ar_coefficients(cfg.doppler_coherence_product)
    channels = init_channels(cfg, root)
    thresholds = draw_rate_thresholds(cfg, root)
    psets = [init_particles(cfg, np.ones(m, dtype=bool),
                            derive_substream(root, (Domain.PARTICLE_INIT, i)))
             for i in range(n)]

    alloc_prev = np.zeros((n, m), dtype=bool)
    power_prev = np.zeros((n, m))
    rewards_prev = np.zeros(n)
    messages_per_slot = n * (n - 1)
    records: list[SlotRecord] = []

    for t in range(t_total):
        available = sample_availability(
            cfg.pu_busy_prob, m, derive_substream(root, (Domain.AVAILABILITY, t)))
        predicted = predict_channels(channels, coeffs)
        view = make_view(alloc_prev, power_prev, rewards_prev, predicted,
                         available, thresholds, cfg.bandwidth_hz,
                         cfg.noise_band_w, cfg.beta, cfg.p_total_max_w,
                         cfg.p_band_max_w)

        alloc = np.zeros((n, m), dtype=bool)
        power = np.zeros((n, m))
        hypothetical = np.zeros((n, cfg.n_particles))
        for i in range(n):
            predict(psets[i], available, cfg.mutation_prob,
                    derive_substream(root, (Domain.PARTICLE_PREDICT, i, t)))
            outcome = decide(psets[i], i, view, kind)
            alloc[i] = outcome.selection
            power[i] = outcome.power_w
            hypothetical[i] = outcome.self_rewards

        validate_allocation(alloc, available, cfg.max_bands_per_user)
        validate_power(power, alloc, cfg.p_total_max_w, cfg.p_band_max_w)

        step_channels(channels, coeffs, derive_substream(root, (Domain.CHANNEL_STEP, t)))
        gains_sq = np.abs(channels.current) ** 2
        rates = user_rates(alloc, power, gains_sq, available,
                           cfg.bandwidth_hz, cfg.noise_band_w)
        rewards = elastic_reward(rates, thresholds, cfg.beta)

        for i in range(n):
            ps = psets[i]
            if ps.running_reward_mean is None:
                ps.running_reward_mean = float(rewards[i])
            else:
                ps.running_reward_mean = ((1.0 - REWARD_EMA_WEIGHT) * ps.running_reward_mean
                                          + REWARD_EMA_WEIGHT * float(rewards[i]))
            sigma_r = cfg.likelihood_sigma_frac * ps.running_reward_mean
            if sigma_r > 0.0:
                update_weights(ps, float(rewards[i]), hypothetical[i], sigma_r)
            if effective_sample_size(ps) < cfg.ess_threshold_frac * cfg.n_particles:
                systematic_resample(
                    ps, derive_substream(root, (Domain.PARTICLE_RESAMPLE, i, t)))

        records.append(SlotRecord(
            slot=t, realized_rates=rates, realized_rewards=rewards,
            jain=jain_index(rewards), occupancy=occupancy(available),
            messages=messages_per_slot,
            per_user_selected_bands=[tuple(np.flatnonzero(alloc[i]).tolist())
                                     for i in range(n)]))
        if slot_hook is not None:
            slot_hook(SlotSnapshot(slot=t, gains_sq=gains_sq,
                                   availability=available.copy(), alloc=alloc,
                                   power_w=power, rates=rates, rewards=rewards,
                                   thresholds=thresholds))
        alloc_prev, power_prev, rewards_prev = alloc, power, rewards

    summary = RunSummary(
        per_user_avg_throughput=float(np.mean([r.realized_rates.mean() for r in records])),
        avg_jain=float(np.mean([r.jain for r in records])),
        total_messages=messages_per_slot * t_total,
        config=cfg.base,
        seed=cfg.seed,
    )
    return summary, records


SUMMARY_METRICS = ("avg_throughput_bps", "avg_jain", "total_messages")


def summary_metric(summary: RunSummary, name: str) -> float:
    """One of ``SUMMARY_METRICS`` read off a run summary."""
    if name == "avg_throughput_bps":
        return summary.per_user_avg_throughput
    if name == "avg_jain":
        return summary.avg_jain
    return float(summary.total_messages)


def replicate(config: SystemConfig, seeds: Sequence[int]) -> ReplicateResult:
    """Run the scenario once per seed and aggregate the summary metrics."""
    summaries = [run(validate(replace(config, seed=int(s))))[0] for s in seeds]
    mean = {}
    std = {}
    for name in SUMMARY_METRICS:
        values = np.array([summary_metric(s, name) for s in summaries])
        mean[name] = float(values.mean())
        std[name] = float(values.std())
    return ReplicateResult(summaries=summaries, mean=mean, std=std)
