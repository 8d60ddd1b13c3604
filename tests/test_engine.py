"""Slot loop: metrics, compliance, determinism, replication."""

import numpy as np
import pytest

from dsapf.engine import (ReplicateResult, jain_index, replicate, run)
from dsapf.phy import draw_rate_thresholds, elastic_reward
from dsapf.system import RngStream, SystemConfig, validate


def make_config(**kw):
    base = dict(n_users=5, n_bands=4, max_bands_per_user=2, n_particles=8,
                n_slots=12, seed=21)
    base.update(kw)
    return validate(SystemConfig(**base))


# ---------------------------------------------------------------- jain


def test_jain_spot_values():
    assert jain_index(np.array([1.0, 2.0, 3.0])) == pytest.approx(6.0 / 7.0,
                                                                  abs=1e-12)
    assert jain_index(np.full(7, 3.3)) == pytest.approx(1.0, abs=1e-12)
    one_hot = np.zeros(5)
    one_hot[2] = 9.0
    assert jain_index(one_hot) == pytest.approx(0.2, abs=1e-12)


def test_jain_all_zero_is_one():
    # nobody transmitted: equal (zero) outcomes count as perfectly fair
    assert jain_index(np.zeros(4)) == 1.0


def test_jain_within_bounds_on_random_vectors():
    gen = np.random.default_rng(2)
    for _ in range(100):
        n = int(gen.integers(1, 30))
        j = jain_index(gen.uniform(0.0, 5.0, size=n))
        assert 1.0 / n - 1e-12 <= j <= 1.0 + 1e-12


# ---------------------------------------------------------------- run


def test_single_user_rates_match_channel_snapshot():
    # one user, frozen fading: recompute every slot's rate from the
    # snapshot gains and the transmitted powers
    cfg = make_config(n_users=1, n_bands=3, max_bands_per_user=1,
                      doppler_coherence_product=0.0, n_slots=8)
    snaps = []
    summary, records = run(cfg, slot_hook=snaps.append)
    for snap, rec in zip(snaps, records):
        g = snap.gains_sq[0, 0]
        want = (cfg.bandwidth_hz
                * np.log2(1.0 + snap.power_w[0] * g / cfg.noise_band_w)
                * snap.availability).sum()
        assert rec.realized_rates[0] == pytest.approx(want, rel=1e-12)
        assert rec.jain == 1.0
    assert summary.total_messages == 0


def test_all_bands_busy_yields_silence():
    cfg = make_config(pu_busy_prob=1.0, n_slots=6)
    summary, records = run(cfg)
    for rec in records:
        assert not rec.realized_rates.any()
        assert not rec.realized_rewards.any()
        assert rec.jain == 1.0
        assert rec.occupancy == 1.0
        assert rec.per_user_selected_bands == [()] * 5
    assert summary.per_user_avg_throughput == 0.0
    assert summary.total_messages == 6 * 5 * 4


def test_message_count_is_exact():
    cfg = make_config(n_users=5, n_slots=7)
    summary, records = run(cfg)
    assert summary.total_messages == 7 * 5 * 4
    assert all(rec.messages == 20 for rec in records)


def test_reruns_are_bit_identical():
    cfg = make_config(n_slots=10)
    s1, r1 = run(cfg)
    s2, r2 = run(cfg)
    assert s1 == s2
    for a, b in zip(r1, r2):
        assert np.array_equal(a.realized_rates, b.realized_rates)
        assert np.array_equal(a.realized_rewards, b.realized_rewards)
        assert a.per_user_selected_bands == b.per_user_selected_bands
        assert a.jain == b.jain


def test_seed_changes_trajectory():
    s1, _ = run(make_config(seed=1))
    s2, _ = run(make_config(seed=2))
    assert s1.per_user_avg_throughput != s2.per_user_avg_throughput


def test_compliance_fuzz_no_violations():
    # two scenarios totaling 1000 slots; every slot must respect the sensed
    # availability, the per-user band limit, and both power constraints
    scenarios = [
        make_config(n_users=5, n_bands=6, max_bands_per_user=3,
                    pu_busy_prob=0.4, n_slots=500, seed=3),
        make_config(n_users=4, n_bands=3, max_bands_per_user=2,
                    pu_busy_prob=0.7, n_slots=500, seed=4),
    ]
    total = 0
    for cfg in scenarios:
        snaps = []
        run(cfg, slot_hook=snaps.append)
        for snap in snaps:
            total += 1
            assert not snap.alloc[:, ~snap.availability].any()
            assert (snap.alloc.sum(axis=1) <= cfg.max_bands_per_user).all()
            assert (snap.power_w >= 0.0).all()
            assert not snap.power_w[~snap.alloc].any()
            assert (snap.power_w <= cfg.p_band_max_w * (1 + 1e-9)).all()
            assert (snap.power_w.sum(axis=1)
                    <= cfg.p_total_max_w * (1 + 1e-9)).all()
    assert total == 1000


def test_slot_hook_sees_every_slot_in_order():
    cfg = make_config(n_slots=9)
    snaps = []
    _, records = run(cfg, slot_hook=snaps.append)
    assert [s.slot for s in snaps] == list(range(9))
    thresholds = draw_rate_thresholds(cfg, RngStream(cfg.seed))
    for snap, rec in zip(snaps, records):
        assert np.array_equal(snap.thresholds, thresholds)
        assert np.array_equal(snap.rewards,
                              elastic_reward(snap.rates, thresholds, cfg.beta))
        assert np.array_equal(snap.rates, rec.realized_rates)
        bands = [tuple(np.flatnonzero(row).tolist()) for row in snap.alloc]
        assert bands == rec.per_user_selected_bands


def test_summary_aggregates_match_records():
    cfg = make_config(n_slots=15)
    summary, records = run(cfg)
    assert summary.avg_jain == pytest.approx(
        np.mean([r.jain for r in records]), abs=1e-12)
    assert summary.per_user_avg_throughput == pytest.approx(
        np.mean([r.realized_rates.mean() for r in records]), rel=1e-12)
    assert summary.seed == 21
    assert summary.config.n_users == 5


# ---------------------------------------------------------------- replicate


def test_replicate_matches_manual_mean_std():
    cfg = SystemConfig(n_users=4, n_bands=3, max_bands_per_user=1,
                       n_particles=6, n_slots=8, seed=0)
    result = replicate(cfg, [0, 1, 2])
    assert isinstance(result, ReplicateResult)
    assert len(result.summaries) == 3
    thr = np.array([s.per_user_avg_throughput for s in result.summaries])
    assert result.mean["avg_throughput_bps"] == pytest.approx(thr.mean(),
                                                              rel=1e-12)
    assert result.std["avg_throughput_bps"] == pytest.approx(thr.std(),
                                                             rel=1e-12)
    assert result.mean["total_messages"] == 8 * 4 * 3


def test_replicate_same_seed_has_zero_spread():
    cfg = SystemConfig(n_users=4, n_bands=3, max_bands_per_user=1,
                       n_particles=6, n_slots=8, seed=0)
    result = replicate(cfg, [5, 5])
    assert result.std["avg_throughput_bps"] == 0.0
    assert result.std["avg_jain"] == 0.0
    assert (result.summaries[0].per_user_avg_throughput
            == result.summaries[1].per_user_avg_throughput)
