"""Particle filters over band subsets, all agents at once: proposal, scoring,
weighting, resampling."""

import math
import tracemalloc

import numpy as np
import pytest

from dsapf.pfilter import (ParticleSet, decide, effective_sample_size,
                           init_particles, predict, systematic_resample,
                           update_weights)
from dsapf.objectives import ObjectiveKind, evaluate, evaluate_batch
from dsapf.phy import elastic_reward, shannon_rates
from dsapf.powerfill import water_fill_batch
from dsapf.system import (Domain, RngStream, SystemConfig, validate,
                          validate_allocation, validate_power)

from reference import WaterFillProblem, resample_parents, water_fill


def small_config(**kw):
    base = dict(n_users=3, n_bands=4, max_bands_per_user=2, n_particles=8,
                n_slots=5, seed=11)
    base.update(kw)
    return validate(SystemConfig(**base))


def init_stream(seed, *tags):
    return RngStream(seed, (int(Domain.PARTICLE_INIT),) + tags)


# ---------------------------------------------------------------- init


def test_init_sizes_weights_and_feasibility():
    cfg = small_config()
    pset = init_particles(cfg, init_stream(cfg.seed))
    assert pset.selections.shape == (3, 8, 4)
    assert pset.selections.dtype == bool
    # every particle of every agent: exactly l bands
    assert (pset.selections.sum(axis=2) == 2).all()
    assert pset.weights.shape == (3, 8)
    assert np.allclose(pset.weights, 1.0 / 8)
    assert pset.max_bands == 2
    assert pset.running_reward_mean is None


def test_init_is_deterministic_per_stream():
    cfg = small_config()
    a = init_particles(cfg, init_stream(cfg.seed))
    b = init_particles(cfg, init_stream(cfg.seed))
    assert np.array_equal(a.selections, b.selections)
    assert not np.array_equal(a.selections[0], a.selections[1])


def test_init_draw_layout_is_pinned():
    # one (agents, particles, bands) draw; each row keeps its l largest keys
    cfg = small_config(n_users=4, n_bands=6, max_bands_per_user=3)
    keys = init_stream(cfg.seed).generator().random((4, 8, 6))
    want = keys >= np.sort(keys, axis=2)[:, :, -3, None]
    pset = init_particles(cfg, init_stream(cfg.seed))
    assert np.array_equal(pset.selections, want)


def test_init_subsets_are_uniform():
    # m=10, l=2: all 45 pairs should come up equally often
    cfg = validate(SystemConfig(n_users=2, n_bands=10, max_bands_per_user=2,
                                n_particles=10_000, n_slots=1, seed=5))
    pset = init_particles(cfg, init_stream(cfg.seed))
    pairs = [tuple(np.flatnonzero(row)) for row in pset.selections[0]]
    counts = np.zeros((10, 10))
    for a, b in pairs:
        counts[a, b] += 1
    got = counts[np.triu_indices(10, k=1)]
    # binomial 3-sigma band around 10_000/45
    p = 1.0 / 45.0
    sigma = math.sqrt(10_000 * p * (1 - p))
    assert (np.abs(got - 10_000 * p) < 3 * sigma).all()


# ---------------------------------------------------------------- predict


def test_predict_respects_availability_and_size():
    cfg = small_config()
    pset = init_particles(cfg, init_stream(cfg.seed))
    avail = np.array([True, True, False, True])
    predict(pset, avail, cfg.mutation_prob, RngStream(cfg.seed, (2,)))
    assert (pset.selections.sum(axis=2) == 2).all()
    assert not pset.selections[:, :, 2].any()


def test_predict_shrinks_to_available_bands():
    cfg = small_config(n_users=2, max_bands_per_user=3)
    pset = init_particles(cfg, init_stream(cfg.seed))
    avail = np.array([False, True, False, False])
    predict(pset, avail, cfg.mutation_prob, RngStream(cfg.seed, (2,)))
    assert (pset.selections.sum(axis=2) == 1).all()
    assert pset.selections[:, :, 1].all()


def test_predict_zero_mutation_keeps_selections():
    cfg = small_config()
    pset = init_particles(cfg, init_stream(cfg.seed))
    before = pset.selections.copy()
    predict(pset, np.ones(4, bool), 0.0, RngStream(cfg.seed, (3,)))
    assert np.array_equal(pset.selections, before)


def test_predict_full_mutation_forgets_history():
    # with mutation 1 the proposal is a fresh uniform restart: two different
    # populations fed the same stream must land on identical selections
    cfg = small_config()
    a = init_particles(cfg, init_stream(cfg.seed))
    b = init_particles(cfg, init_stream(cfg.seed, 1))
    assert not np.array_equal(a.selections, b.selections)
    predict(a, np.ones(4, bool), 1.0, RngStream(7, (4, 0)))
    predict(b, np.ones(4, bool), 1.0, RngStream(7, (4, 0)))
    assert np.array_equal(a.selections, b.selections)


def test_predict_empty_availability_idles():
    cfg = small_config()
    pset = init_particles(cfg, init_stream(cfg.seed))
    predict(pset, np.zeros(4, bool), cfg.mutation_prob, RngStream(1, (4,)))
    assert not pset.selections.any()


@pytest.mark.parametrize("mutation_prob", [0.0, 0.4])
def test_predict_draw_layout_is_pinned(mutation_prob):
    # one stream for every agent: the (agents, particles, bands) mutation
    # draw, made only when the probability is above 0, then the refill keys
    cfg = small_config(n_bands=6, max_bands_per_user=3)
    avail = np.array([True, False, True, True, True, False])
    pset = init_particles(cfg, init_stream(cfg.seed))
    before = pset.selections.copy()
    stream = RngStream(3, (8, 5))
    gen = stream.generator()
    keep = before & avail
    if mutation_prob > 0.0:
        keep &= gen.random(before.shape) >= mutation_prob
    keys = gen.random(before.shape)
    predict(pset, avail, mutation_prob, stream)
    for a, p in np.ndindex(before.shape[:2]):
        kept = np.flatnonzero(keep[a, p])
        fresh = [j for j in np.argsort(-keys[a, p]) if avail[j] and not keep[a, p, j]]
        assert set(np.flatnonzero(pset.selections[a, p])) == (
            set(kept) | set(fresh[:3 - kept.size]))


def test_predict_fuzz_always_feasible():
    cfg = small_config(n_bands=6, max_bands_per_user=3, n_particles=16)
    gen = np.random.default_rng(99)
    pset = init_particles(cfg, init_stream(cfg.seed))
    for step in range(1000):
        avail = gen.random(6) < 0.7
        predict(pset, avail, 0.3, RngStream(17, (5, step)))
        k = min(3, int(avail.sum()))
        assert (pset.selections.sum(axis=2) == k).all()
        assert not pset.selections[:, :, ~avail].any()


# ---------------------------------------------------------------- decide

P_TOTAL_W = 0.1
P_CAP_W = 0.05


def decide_config(n, m, max_bands, objective="sum", beta=1.0):
    # 1 MHz bands at -100 dBm/Hz: noise 1e-7 W per band
    return validate(SystemConfig(
        n_users=n, n_bands=m, max_bands_per_user=max_bands, bandwidth_hz=1e6,
        noise_psd_dbm_hz=-100.0, beta=beta,
        p_total_max_dbm=10.0 * math.log10(P_TOTAL_W * 1e3),
        p_band_max_dbm=10.0 * math.log10(P_CAP_W * 1e3), objective=objective))


def pset_of(rows, max_bands):
    """Every agent's particle rows; a 2-D matrix is one agent's."""
    sel = np.asarray(rows, bool)
    if sel.ndim == 2:
        sel = sel[None]
    n, p, _ = sel.shape
    return ParticleSet(selections=sel, weights=np.full((n, p), 1.0 / p),
                       max_bands=max_bands)


def decide_on(pset, gains, power_w, objective="sum", thresholds=None,
              availability=None):
    gains_sq = np.abs(np.asarray(gains, complex)) ** 2
    n, _, m = gains_sq.shape
    cfg = decide_config(n, m, pset.max_bands, objective)
    if thresholds is None:
        thresholds = np.zeros(n)
    if availability is None:
        availability = np.ones(m, bool)
    return decide(pset, cfg, gains_sq, np.asarray(power_w, float),
                  availability, np.asarray(thresholds, float))


def test_decide_single_user_takes_best_band():
    gains = np.zeros((1, 1, 3), complex)
    gains[0, 0] = [1.0, 3.0, 2.0]
    pset = pset_of(np.eye(3), max_bands=1)
    alloc, power, scores, _ = decide_on(pset, gains, np.zeros((1, 3)),
                                        "intrinsic")
    assert np.array_equal(alloc[0], [False, True, False])
    # single selected band gets the whole budget up to the cap
    assert np.allclose(power[0], [0.0, 0.05, 0.0])
    assert scores.shape == (1, 3)
    assert np.argmax(scores[0]) == 1


def test_decide_skips_unavailable_bands_in_rate():
    gains = np.zeros((1, 1, 2), complex)
    gains[0, 0] = [10.0, 1.0]
    avail = np.array([False, True])
    # a particle sitting on the busy band earns nothing
    pset = pset_of(np.eye(2), max_bands=1)
    alloc, _, scores, _ = decide_on(pset, gains, np.zeros((1, 2)), "intrinsic",
                                    availability=avail)
    assert scores[0, 0] == 0.0
    assert np.array_equal(alloc[0], [False, True])


def test_decide_spends_no_power_on_a_held_busy_band():
    # both particles hold busy band 1, the strongest one; the power goes to
    # their available bands and the chosen selection drops band 1
    gains = np.zeros((1, 1, 3), complex)
    gains[0, 0] = [1.0, 10.0, 2.0]
    avail = np.array([True, False, True])
    pset = pset_of([[True, True, False], [False, True, True]], max_bands=2)
    alloc, power, _, _ = decide_on(pset, gains, np.zeros((1, 3)), "sum",
                                   availability=avail)
    assert power[0, 1] == 0.0
    assert np.array_equal(alloc[0], [False, False, True])
    assert power[0, 2] == pytest.approx(P_CAP_W, rel=1e-12)
    validate_allocation(alloc, avail, 2)
    validate_power(power, alloc, P_TOTAL_W, P_CAP_W)


def test_decide_breaks_ties_to_first_particle():
    gains = np.zeros((1, 1, 3), complex)
    gains[0, 0] = [2.0, 2.0, 2.0]
    pset = pset_of([[False, False, True],
                    [False, True, False],
                    [True, False, False]], max_bands=1)
    alloc, _, scores, _ = decide_on(pset, gains, np.zeros((1, 3)), "sum")
    assert np.allclose(scores, scores[0, 0])
    assert np.array_equal(alloc[0], [False, False, True])


def test_decide_avoids_strong_interferer():
    # band 0 carries a loud neighbor; a selfish agent should step to band 1
    gains = np.zeros((2, 2, 2), complex)
    gains[0, 0] = [2.0, 2.0]
    gains[1, 1] = [2.0, 2.0]
    gains[0, 1] = [3.0, 3.0]   # neighbor tx -> agent rx
    gains[1, 0] = [3.0, 3.0]
    power = np.array([[0.0, 0.0], [0.05, 0.0]])
    pset = pset_of([np.eye(2), np.eye(2)], max_bands=1)
    alloc, _, _, _ = decide_on(pset, gains, power, "intrinsic")
    assert np.array_equal(alloc[0], [False, True])


def loop_scores(rows, max_bands, agent, gains_sq, power_w, availability,
                thresholds, cfg, objective):
    """Plain-python re-derivation of one agent's particle scores."""
    n, _, m = gains_sq.shape
    g = gains_sq
    noise = cfg.noise_band_w
    scores, own_rewards = [], []
    for row in rows:
        chosen = np.flatnonzero(row & availability)
        interf = np.array([
            sum(g[agent, k, j] * power_w[k, j] for k in range(n)
                if k != agent) for j in range(m)])
        g_eff = g[agent, agent] / (interf + noise)
        powers = np.zeros(m)
        if chosen.size:
            if max_bands == 1:
                powers[chosen] = min(cfg.p_total_max_w, cfg.p_band_max_w)
            else:
                sub = water_fill(WaterFillProblem(
                    g_eff[chosen], cfg.p_total_max_w,
                    np.full(chosen.size, cfg.p_band_max_w)))
                powers[chosen] = sub
        rewards = np.zeros(n)
        for k in range(n):
            rate = 0.0
            for j in range(m):
                if not availability[j]:
                    continue
                p_of = {l: power_w[l, j] for l in range(n)}
                p_of[agent] = powers[j]
                sig = g[k, k, j] * p_of[k]
                inter = sum(g[k, l, j] * p_of[l] for l in range(n) if l != k)
                rate += cfg.bandwidth_hz * math.log2(1.0 + sig / (inter + noise))
            rewards[k] = elastic_reward(rate, float(thresholds[k]), cfg.beta)
        scores.append(rewards[agent] if objective == "intrinsic"
                      else evaluate(objective, rewards))
        own_rewards.append(rewards[agent])
    return np.array(scores), np.array(own_rewards)


@pytest.mark.parametrize("objective", ["intrinsic", "sum", "maxmin",
                                       "proportional_fair"])
@pytest.mark.parametrize("max_bands", [1, 2])
def test_decide_matches_loop_reference(objective, max_bands):
    # one call scores every agent of the population; band 2 is busy
    gen = np.random.default_rng(31)
    n, m = 4, 3
    gains = (gen.normal(size=(n, n, m)) + 1j * gen.normal(size=(n, n, m)))
    gains *= gen.lognormal(sigma=1.0, size=(n, n, m))
    gains_sq = np.abs(gains) ** 2
    alloc = gen.random((n, m)) < 0.5
    power = np.where(alloc, gen.uniform(0.0, 0.04, size=(n, m)), 0.0)
    thresholds = gen.uniform(0.0, 1e4, size=n)
    avail = np.array([True, True, False])
    rows = [[True, False, False], [False, True, False], [False, False, True],
            [True, True, False], [False, True, True]]
    rows = np.array([r for r in rows if sum(r) <= max_bands])
    # each agent holds the same candidates in its own order
    pset = pset_of([rows[gen.permutation(len(rows))] for _ in range(n)],
                   max_bands=max_bands)
    cfg = decide_config(n, m, max_bands, objective)

    chosen, chosen_power, scores, own = decide(pset, cfg, gains_sq, power,
                                               avail, thresholds)
    assert scores.shape == own.shape == (n, len(rows))
    for agent in range(n):
        want_scores, want_own = loop_scores(
            pset.selections[agent], max_bands, agent, gains_sq, power, avail,
            thresholds, cfg, objective)
        assert np.allclose(scores[agent], want_scores, rtol=1e-9, atol=1e-6)
        assert np.allclose(own[agent], want_own, rtol=1e-9, atol=1e-6)
        best = int(np.argmax(want_scores))
        assert np.array_equal(chosen[agent],
                              pset.selections[agent, best] & avail)
        assert not chosen_power[agent, ~chosen[agent]].any()


def full_tensor_decide(pset, cfg, gains_sq, power_w, availability,
                       thresholds):
    """``decide`` scoring every receiver on every band, one (agents,
    receivers, bands) tensor per particle."""
    objective = ObjectiveKind(cfg.objective)
    sel = pset.selections & availability
    n, n_particles, m = sel.shape
    noise, bandwidth = cfg.noise_band_w, cfg.bandwidth_hz
    direct = np.einsum("iij->ij", gains_sq)
    signal = direct * power_w
    rest = np.einsum("ikj,kj->ij", gains_sq, power_w) - signal
    g_eff = direct / (np.maximum(rest, 0.0) + noise)
    if pset.max_bands == 1:
        powers = sel * min(cfg.p_total_max_w, cfg.p_band_max_w)
    else:
        powers = water_fill_batch(
            np.broadcast_to(g_eff[:, None, :], sel.shape).reshape(-1, m),
            sel.reshape(-1, m), cfg.p_total_max_w,
            cfg.p_band_max_w).reshape(sel.shape)
    own_reward = elastic_reward(
        shannon_rates(powers * g_eff[:, None, :], availability, bandwidth),
        thresholds[:, None], cfg.beta)
    if objective is ObjectiveKind.INTRINSIC:
        scores = own_reward
    else:
        from_agent = gains_sq.transpose(1, 0, 2)
        base = rest[None] - from_agent * power_w[:, None, :]
        agents = np.arange(n)
        scores = np.empty((n, n_particles))
        for p in range(n_particles):
            interf = np.maximum(base + from_agent * powers[:, p, None, :], 0.0)
            rates = shannon_rates(signal / (interf + noise), availability,
                                  bandwidth)
            rewards = elastic_reward(rates, thresholds, cfg.beta)
            rewards[agents, agents] = own_reward[:, p]
            scores[:, p] = evaluate_batch(objective, rewards)
    best = np.argmax(scores, axis=1)
    rows = np.arange(n)
    return sel[rows, best], powers[rows, best], scores, own_reward


# case -> (users, bands, max_bands, bands each receiver transmits on, busy bands)
EXACT_CASES = {
    "one-band-receivers": (5, 6, 1, [1, 1, 0, 1, 1], [2]),
    "pairwise-sum-regrouping": (5, 12, 4, [3, 4, 5, 3, 8], []),
    "wider-than-max-bands": (4, 9, 2, [7, 2, 1, 0], [0, 5]),
    "slot-zero-silence": (4, 10, 3, [0, 0, 0, 0], []),
    "busy-bands": (6, 8, 3, [3, 3, 2, 4, 1, 3], [1, 6]),
    "one-user": (1, 9, 4, [5], [3]),
}


@pytest.mark.parametrize("objective", ["intrinsic", "sum", "maxmin",
                                       "proportional_fair"])
@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_decide_matches_full_tensor_bit_for_bit(case, objective):
    n, m, max_bands, on_bands, busy = EXACT_CASES[case]
    gen = np.random.default_rng(sorted(EXACT_CASES).index(case))
    gains = gen.normal(size=(n, n, m)) + 1j * gen.normal(size=(n, n, m))
    # gains spread over decades, so regrouping a band sum changes its rounding
    gains_sq = np.abs(gains) ** 2 * 10.0 ** gen.uniform(-3.0, 1.0, size=(n, n, m))
    power = np.zeros((n, m))
    for k, count in enumerate(on_bands):
        on = gen.choice(m, size=count, replace=False)
        power[k, on] = gen.uniform(0.001, 0.05, size=count)
    thresholds = gen.uniform(0.0, 4e6, size=n)
    avail = np.ones(m, bool)
    avail[busy] = False
    keys = gen.random((n, 10, m))
    sel = keys >= np.sort(keys, axis=2)[:, :, -max_bands, None]
    pset = pset_of(sel, max_bands=max_bands)
    cfg = decide_config(n, m, max_bands, objective)

    got = decide(pset, cfg, gains_sq, power, avail, thresholds)
    want = full_tensor_decide(pset, cfg, gains_sq, power, avail, thresholds)
    for got_part, want_part in zip(got, want, strict=True):
        assert got_part.shape == want_part.shape
        assert np.array_equal(got_part, want_part)


def test_decide_result_is_a_copy():
    gains = np.zeros((1, 1, 2), complex)
    gains[0, 0] = [1.0, 2.0]
    pset = pset_of(np.eye(2), max_bands=1)
    alloc, power, _, _ = decide_on(pset, gains, np.zeros((1, 2)), "sum")
    alloc[:] = False
    power[:] = 0.0
    assert pset.selections.any()


# ---------------------------------------------------------------- weights


def test_update_weights_gaussian_spot():
    pset = pset_of(np.eye(2), max_bands=1)
    sigma = 0.7
    update_weights(pset, np.array([2.0]), np.array([[2.0, 2.0 - sigma]]),
                   np.array([sigma]))
    assert np.allclose(pset.weights[0],
                       [0.6224593312018546, 0.37754066879814546],
                       rtol=0, atol=1e-15)
    assert pset.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_update_weights_underflow_resets_only_its_row():
    pset = pset_of([np.eye(3)] * 3, max_bands=1)
    pset.weights[1] = [0.5, 0.3, 0.2]
    sigma = 0.7
    predicted = np.array([[1e12] * 3, [2.0, 2.0 - sigma, 2.0],
                          [0.0, 0.0, 0.0]])
    update_weights(pset, np.array([0.0, 2.0, 0.0]), predicted,
                   np.full(3, sigma))
    assert np.allclose(pset.weights[0], 1.0 / 3)
    like = np.array([1.0, math.exp(-0.5), 1.0]) * [0.5, 0.3, 0.2]
    assert np.allclose(pset.weights[1], like / like.sum(), rtol=1e-15)
    assert np.allclose(pset.weights[2], 1.0 / 3)


def test_update_weights_zero_sigma_keeps_row_and_rejects_negative():
    pset = pset_of([np.eye(2)] * 2, max_bands=1)
    pset.weights = np.array([[0.9, 0.1], [0.9, 0.1]])
    update_weights(pset, np.array([1.0, 1.0]), np.array([[0.0, 1.0]] * 2),
                   np.array([0.0, 0.5]))
    assert np.array_equal(pset.weights[0], [0.9, 0.1])
    assert pset.weights[1, 1] > 0.1
    with pytest.raises(ValueError):
        update_weights(pset, np.array([1.0, 1.0]), np.zeros((2, 2)),
                       np.array([0.5, -1.0]))


def test_weights_stay_on_simplex():
    gen = np.random.default_rng(13)
    pset = pset_of([np.eye(6)[:, :4]] * 5, max_bands=1)
    for _ in range(200):
        update_weights(pset, gen.normal(size=5), gen.normal(size=(5, 6)),
                       np.full(5, 0.5))
        assert (pset.weights >= 0.0).all()
        assert np.abs(pset.weights.sum(axis=1) - 1.0).max() < 1e-9


def test_effective_sample_size_spots():
    pset = pset_of([np.eye(3)] * 3, max_bands=1)
    pset.weights = np.array([[0.5, 0.25, 0.25],
                             [1.0 / 3, 1.0 / 3, 1.0 / 3],
                             [1.0, 0.0, 0.0]])
    assert np.allclose(effective_sample_size(pset),
                       [2.6666666666666665, 3.0, 1.0], rtol=0, atol=1e-12)


# ---------------------------------------------------------------- resample


def test_systematic_resample_offspring_counts():
    # weights 0.5/0.3/0.2 with 10 slots: counts are pinned at 5/3/2 for any
    # offset because each cumulative bin spans an exact multiple of 1/10
    sel = np.zeros((10, 4), dtype=bool)
    sel[np.arange(10), np.arange(10) % 4] = True
    for seed in range(5):
        pset = pset_of(sel, max_bands=1)
        pset.weights = np.array([[0.5, 0.3, 0.2] + [0.0] * 7])
        systematic_resample(pset, [0], RngStream(seed, (9, 0)))
        parents = (pset.selections[0, :, None, :] == sel[None, :3, :]).all(-1)
        counts = parents.sum(axis=0)
        assert np.array_equal(counts, [5, 3, 2])
        assert np.allclose(pset.weights, 0.1)


def test_systematic_resample_point_mass():
    pset = pset_of(np.eye(4), max_bands=1)
    pset.weights = np.array([[0.0, 0.0, 1.0, 0.0]])
    systematic_resample(pset, [0], RngStream(3, (9, 1)))
    assert pset.selections[0, :, 2].all()


def test_systematic_resample_is_unbiased():
    weights = np.array([0.05, 0.1, 0.15, 0.2, 0.25, 0.25])
    sel = np.eye(6, dtype=bool)
    totals = np.zeros(6)
    n_trials = 2000
    for t in range(n_trials):
        pset = pset_of(sel, max_bands=1)
        pset.weights = weights[None].copy()
        systematic_resample(pset, [0], RngStream(t, (9, 2)))
        totals += pset.selections[0].sum(axis=0)
    fractions = totals / (n_trials * 6)
    assert np.abs(fractions - weights).max() < 0.02


def test_resample_preserves_feasibility():
    cfg = small_config()
    pset = init_particles(cfg, init_stream(cfg.seed))
    pset.weights[:] = [0.7, 0.1, 0.1, 0.1] + [0.0] * 4
    systematic_resample(pset, [0, 1, 2], RngStream(8, (9, 3)))
    assert (pset.selections.sum(axis=2) == 2).all()


def test_resample_leaves_other_agents_untouched():
    cfg = small_config()
    pset = init_particles(cfg, init_stream(cfg.seed))
    pset.weights[1] = [0.0, 0.0, 0.0, 1.0] + [0.0] * 4
    pset.weights[2] = [0.3, 0.1, 0.1, 0.1] + [0.1] * 4
    sel_before, w_before = pset.selections.copy(), pset.weights.copy()
    held = pset.selections
    systematic_resample(pset, [1], RngStream(8, (9, 4)))
    for a in (0, 2):
        assert np.array_equal(pset.selections[a], sel_before[a])
        assert np.array_equal(pset.weights[a], w_before[a])
    assert (pset.selections[1] == sel_before[1, 3]).all()
    assert np.allclose(pset.weights[1], 1.0 / 8)
    # the resampled population is a new array; the old one is unchanged
    assert np.array_equal(held, sel_before)


def test_resample_draw_layout_is_pinned():
    # one draw of len(agents) offsets from the one stream, in list order
    cfg = small_config()
    gen = np.random.default_rng(4)
    weights = gen.dirichlet(np.ones(8), size=3)
    pset = init_particles(cfg, init_stream(cfg.seed))
    before = pset.selections.copy()
    pset.weights = weights.copy()
    stream = RngStream(8, (9, 5))
    offsets = stream.generator().random(2)
    systematic_resample(pset, [2, 0], stream)
    for a, u0 in zip([2, 0], offsets):
        cumulative = np.cumsum(weights[a])
        cumulative[-1] = 1.0
        parents = np.searchsorted(cumulative, (u0 + np.arange(8)) / 8)
        assert np.array_equal(pset.selections[a], before[a, parents])
    assert np.array_equal(pset.selections[1], before[1])


class FixedOffsets:
    """Stands in for a resampling stream whose one draw is ``offsets``."""

    def __init__(self, offsets):
        self.offsets = np.asarray(offsets, dtype=float)

    def generator(self):
        return self

    def random(self, size):
        assert size == len(self.offsets)
        return self.offsets


@pytest.mark.parametrize("n_particles", [1, 2, 3, 10, 64])
def test_resample_matches_quadratic_reference(n_particles):
    # Dirichlet rows, rows with zero weights, one-particle spikes and
    # near-zero rows whose cumulative sum ends far from 1, at offsets
    # including 0 and the largest double below 1.
    gen = np.random.default_rng(n_particles)
    rows = 600
    weights = gen.dirichlet(np.full(n_particles, 0.3), size=rows)
    weights[::3] *= gen.random(weights[::3].shape) > 0.5
    weights[1::5] = np.eye(n_particles)[gen.integers(0, n_particles, rows // 5)]
    weights[2::7] *= 1e-300
    u0 = gen.random(rows)
    u0[::4] = np.nextafter(1.0, 0.0)
    u0[1::9] = 0.0
    pset = pset_of(np.broadcast_to(np.eye(n_particles, dtype=bool),
                                   (rows, n_particles, n_particles)), max_bands=1)
    pset.weights = weights.copy()
    systematic_resample(pset, list(range(rows)), FixedOffsets(u0))
    assert np.array_equal(pset.selections.argmax(axis=2),
                          resample_parents(weights, u0))


def test_resample_memory_is_linear_in_particles():
    # A (particles, particles) comparison would peak at 16 MB here.
    n_particles = 4000
    pset = pset_of(np.eye(4, dtype=bool)[np.arange(n_particles) % 4], max_bands=1)
    pset.weights = np.random.default_rng(0).dirichlet(np.ones(n_particles))[None]
    tracemalloc.start()
    try:
        systematic_resample(pset, [0], RngStream(0, (9, 6)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
