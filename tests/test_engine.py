"""Slot loop: metrics, compliance, determinism."""

import numpy as np
import pytest

from dsapf.channel import ar_coefficients
from dsapf.engine import jain_index, run
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
        assert np.array_equal(rec.alloc, np.zeros((5, cfg.n_bands), bool))
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
        assert np.array_equal(a.alloc, b.alloc)
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
        assert np.array_equal(snap.alloc, rec.alloc)


def test_availability_is_sampled_once_per_slot_by_its_engine_name(monkeypatch):
    # The benchmark replaces dsapf.engine.sample_availability to mark where
    # set-up ends, so the slot loop must call it by that name, once a slot.
    import dsapf.engine as engine
    inner = engine.sample_availability
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(engine, "sample_availability", counting)
    run(make_config(n_slots=7))
    assert len(calls) == 7


def _select_busy_bands(alloc, power, available):
    alloc[:, ~available] = True
    return alloc, power


def _overspend_budget(alloc, power, available):
    return alloc, 1.01 * power


@pytest.mark.parametrize("spoil, kw, message", [
    (_select_busy_bands, dict(pu_busy_prob=0.5),
     "band the licensed owner occupies"),
    # a cap above the budget, so the water-fill spends the whole budget and
    # only the budget check can fire
    (_overspend_budget, dict(p_band_max_dbm=9.0), "total power budget exceeded"),
], ids=["busy-band", "over-budget"])
def test_run_rejects_a_decision_that_breaks_an_invariant(monkeypatch, spoil,
                                                          kw, message):
    import dsapf.engine as engine
    inner = engine.decide

    def spoiled(pset, config, gains_sq, power_w, availability, thresholds):
        alloc, power, scores, own = inner(pset, config, gains_sq, power_w,
                                          availability, thresholds)
        return (*spoil(alloc, power, availability), scores, own)

    monkeypatch.setattr(engine, "decide", spoiled)
    with pytest.raises(ValueError, match=message):
        run(make_config(**kw))


def test_reweighting_and_prediction_follow_their_rules(monkeypatch):
    # (a) the likelihood width is LIKELIHOOD_SIGMA_FRAC times the running
    # mean of the realized rewards, seeded with slot 0's; (b) exactly the
    # agents whose reweighted ESS is below the threshold resample, in
    # ascending order; (c) decide sees a1^2 times the last realized gains.
    import dsapf.engine as engine
    cfg = make_config(n_users=8, n_bands=4, max_bands_per_user=2, n_slots=12)
    real = {name: getattr(engine, name) for name in (
        "decide", "update_weights", "effective_sample_size",
        "systematic_resample")}
    seen = {"gains": [], "sigma": [], "weights": [], "ess": [], "resampled": {}}

    def decide(pset, config, gains_sq, *args):
        seen["gains"].append(gains_sq.copy())
        return real["decide"](pset, config, gains_sq, *args)

    def update_weights(pset, observed, predicted, sigma_r):
        seen["sigma"].append(np.array(sigma_r))
        out = real["update_weights"](pset, observed, predicted, sigma_r)
        seen["weights"].append(pset.weights.copy())
        return out

    def effective_sample_size(pset):
        ess = real["effective_sample_size"](pset)
        seen["ess"].append(ess.copy())
        return ess

    def systematic_resample(pset, agents, rng):
        slot = len(seen["gains"]) - 1
        assert slot not in seen["resampled"]
        seen["resampled"][slot] = list(agents)
        return real["systematic_resample"](pset, agents, rng)

    for fn in (decide, update_weights, effective_sample_size,
               systematic_resample):
        monkeypatch.setattr(engine, fn.__name__, fn)
    snaps = []
    _, records = run(cfg, slot_hook=snaps.append)
    assert len(seen["sigma"]) == len(seen["ess"]) == cfg.n_slots

    mean = records[0].realized_rewards
    for t, rec in enumerate(records):
        if t:
            mean = ((1.0 - engine.REWARD_EMA_WEIGHT) * mean
                    + engine.REWARD_EMA_WEIGHT * rec.realized_rewards)
        assert np.array_equal(seen["sigma"][t],
                              engine.LIKELIHOOD_SIGMA_FRAC * mean)

    want = {}
    for t, weights in enumerate(seen["weights"]):
        ess = 1.0 / np.square(weights).sum(axis=1)
        assert np.allclose(seen["ess"][t], ess, rtol=1e-12)
        low = np.flatnonzero(ess < engine.ESS_THRESHOLD_FRAC * cfg.n_particles)
        if low.size:
            want[t] = low.tolist()
    assert seen["resampled"] == want
    assert 0 < len(want) < cfg.n_slots   # the run both resamples and skips

    a1 = ar_coefficients(cfg.doppler_coherence_product).a1
    for t in range(1, cfg.n_slots):
        assert np.allclose(seen["gains"][t], a1 * a1 * snaps[t - 1].gains_sq,
                           rtol=1e-12, atol=0.0)


def test_slot_outputs_are_writeable():
    # the engine hands out its per-slot arrays as plain arrays; none of them
    # is frozen behind the caller's back, on any slot
    cfg = make_config(n_users=4, n_slots=3)
    snaps = []
    _, records = run(cfg, slot_hook=snaps.append)
    for rec in records:
        assert rec.realized_rates.flags.writeable
        assert rec.realized_rewards.flags.writeable
    for snap in snaps:
        assert snap.alloc.flags.writeable
        assert snap.power_w.flags.writeable
        assert snap.thresholds.flags.writeable


def test_hook_writes_leave_the_run_unchanged():
    # the snapshot arrays are the hook's own: zeroing every one of them on
    # every slot changes neither the summary nor any slot record
    cfg = make_config(n_users=4, n_bands=3, n_slots=5, seed=3,
                      rate_threshold_range_bps=(1e5, 5e6))
    arrays = ("gains_sq", "availability", "alloc", "power_w", "rates",
              "rewards", "thresholds")

    def vandal(snap):
        for name in arrays:
            getattr(snap, name)[...] = 0

    clean_summary, clean = run(cfg)
    summary, records = run(cfg, slot_hook=vandal)
    assert summary == clean_summary
    for rec, want in zip(records, clean, strict=True):
        assert rec.realized_rates.tobytes() == want.realized_rates.tobytes()
        assert rec.realized_rewards.tobytes() == want.realized_rewards.tobytes()
        assert (rec.jain, rec.occupancy, rec.messages) == (
            want.jain, want.occupancy, want.messages)
        assert np.array_equal(rec.alloc, want.alloc)


def test_summary_aggregates_match_records():
    cfg = make_config(n_slots=15)
    summary, records = run(cfg)
    assert summary.avg_jain == pytest.approx(
        np.mean([r.jain for r in records]), abs=1e-12)
    assert summary.per_user_avg_throughput == pytest.approx(
        np.mean([r.realized_rates.mean() for r in records]), rel=1e-12)
    assert summary.config.seed == 21
    assert summary.config.n_users == 5

