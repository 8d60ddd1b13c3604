"""Brute-force joint allocation search on frozen tiny instances."""

import itertools
import math

import numpy as np
import pytest

import dsapf.oracle as oracle
from dsapf.cli import main
from dsapf.objectives import evaluate
from dsapf.oracle import (InstanceTooLargeError, TinyInstance, band_alphabet,
                          solve_exhaustive)
from dsapf.phy import elastic_reward
from dsapf.powerfill import water_fill_batch

from reference import WaterFillProblem, solve_per_assignment, water_fill


def make_instance(gains_sq, *, availability=None, l=1, rule="uniform",
                  thresholds=None, beta=0.5):
    gains_sq = np.asarray(gains_sq, float)
    n, _, m = gains_sq.shape
    if availability is None:
        availability = np.ones(m, bool)
    if thresholds is None:
        thresholds = np.zeros(n)
    return TinyInstance(
        gains_sq=gains_sq, availability=np.asarray(availability, bool),
        thresholds=np.asarray(thresholds, float), bandwidth_hz=1e5,
        noise_band_w=1e-9, p_total_w=0.1, p_band_cap_w=0.06,
        max_bands_per_user=l, beta=beta, power_rule=rule)


def random_gains(gen, n, m):
    g = gen.lognormal(mean=0.0, sigma=1.0, size=(n, n, m)) * 1e-7
    di = np.arange(n)
    g[di, di] = gen.lognormal(mean=0.0, sigma=0.5, size=(n, m)) * 1e-6
    return g


# ---------------------------------------------------------------- alphabet


def test_alphabet_single_band_choices():
    got = band_alphabet(np.array([True, True, True]), 1)
    assert got == [(), (0,), (1,), (2,)]


def test_alphabet_exact_size_subsets():
    got = band_alphabet(np.ones(4, bool), 2)
    assert got == [(), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_alphabet_respects_availability():
    got = band_alphabet(np.array([True, False, True, False]), 2)
    assert got == [(), (0, 2)]
    assert band_alphabet(np.zeros(3, bool), 2) == [()]


def test_alphabet_shrinks_subset_size():
    # only one band open: a two-band user still gets singletons
    got = band_alphabet(np.array([False, True, False]), 2)
    assert got == [(), (1,)]


# ---------------------------------------------------------------- guards


def test_instance_size_guards():
    ok = random_gains(np.random.default_rng(0), 2, 2)
    with pytest.raises(InstanceTooLargeError):
        make_instance(random_gains(np.random.default_rng(0), 7, 2))
    with pytest.raises(InstanceTooLargeError):
        make_instance(np.ones((2, 2, 5)))
    with pytest.raises(InstanceTooLargeError):
        make_instance(ok, l=3)
    with pytest.raises(ValueError):
        make_instance(ok, rule="nearest")
    with pytest.raises(ValueError):
        TinyInstance(gains_sq=np.ones((2, 3, 2)),
                     availability=np.ones(2, bool), thresholds=np.zeros(2),
                     bandwidth_hz=1e5, noise_band_w=1e-9, p_total_w=0.1,
                     p_band_cap_w=0.06, max_bands_per_user=1)


# ---------------------------------------------------------------- solutions


def test_single_user_picks_best_band():
    g = np.zeros((1, 1, 3))
    g[0, 0] = [1e-6, 5e-6, 2e-6]
    inst = make_instance(g)
    alloc, score = solve_exhaustive(inst, "sum")
    assert np.array_equal(alloc, [[False, True, False]])
    want = 1e5 * math.log2(1.0 + 0.06 * 5e-6 / 1e-9)
    assert score == pytest.approx(want, rel=1e-9)


def test_two_users_go_orthogonal():
    # cross gains rival direct gains: sharing a band is ruinous
    g = np.full((2, 2, 2), 1e-6)
    inst = make_instance(g)
    alloc, _ = solve_exhaustive(inst, "sum")
    assert alloc.sum() == 2
    assert not (alloc[0] & alloc[1]).any()


def test_busy_band_never_assigned():
    g = random_gains(np.random.default_rng(5), 3, 3)
    g[:, :, 0] *= 100.0   # tempting but closed
    inst = make_instance(g, availability=np.array([False, True, True]))
    alloc, _ = solve_exhaustive(inst, "sum")
    assert not alloc[:, 0].any()


def test_all_zero_gains_tie_breaks_to_idle():
    inst = make_instance(np.zeros((3, 3, 2)))
    alloc, score = solve_exhaustive(inst, "sum")
    assert not alloc.any()
    assert score == 0.0


def test_maxmin_with_deaf_user_idles_everyone():
    g = random_gains(np.random.default_rng(6), 3, 2)
    g[1, 1] = 0.0   # user 1 can never earn reward
    inst = make_instance(g)
    alloc, score = solve_exhaustive(inst, "maxmin")
    assert score == 0.0
    assert not alloc.any()


def test_intrinsic_scored_as_reward_sum():
    g = random_gains(np.random.default_rng(7), 3, 2)
    inst = make_instance(g)
    a1, s1 = solve_exhaustive(inst, "intrinsic")
    a2, s2 = solve_exhaustive(inst, "sum")
    assert np.array_equal(a1, a2)
    assert s1 == s2


def test_band_relabeling_keeps_score():
    gen = np.random.default_rng(8)
    g = random_gains(gen, 3, 3)
    perm = [2, 0, 1]
    inst = make_instance(g)
    inst_p = make_instance(g[:, :, perm])
    _, s = solve_exhaustive(inst, "sum")
    _, s_p = solve_exhaustive(inst_p, "sum")
    assert s == pytest.approx(s_p, rel=1e-12)


def test_waterfill_equals_uniform_for_single_band_users():
    g = random_gains(np.random.default_rng(9), 3, 3)
    _, s_uni = solve_exhaustive(make_instance(g, rule="uniform"), "sum")
    _, s_wf = solve_exhaustive(make_instance(g, rule="waterfill"), "sum")
    assert s_wf == pytest.approx(s_uni, rel=1e-9)


def test_chunking_does_not_change_result(monkeypatch):
    g = random_gains(np.random.default_rng(10), 3, 3)
    inst = make_instance(g)
    alloc_big, score_big = solve_exhaustive(inst, "proportional_fair")
    monkeypatch.setattr(oracle, "_CHUNK", 7)
    alloc_small, score_small = solve_exhaustive(inst, "proportional_fair")
    assert np.array_equal(alloc_big, alloc_small)
    assert score_big == score_small


# ---------------------------------------------------------------- reference


def loop_solve(inst, objective):
    """Plain-python enumeration of every joint assignment."""
    n, _, m = inst.gains_sq.shape
    options = band_alphabet(inst.availability, inst.max_bands_per_user)
    best_alloc, best_score = None, -np.inf
    for combo in itertools.product(options, repeat=n):
        alloc = np.zeros((n, m), dtype=bool)
        for i, bands in enumerate(combo):
            alloc[i, list(bands)] = True
        power = np.zeros((n, m))
        for i, bands in enumerate(combo):
            if not bands:
                continue
            per = min(inst.p_total_w / len(bands), inst.p_band_cap_w)
            power[i, list(bands)] = per
        if inst.power_rule == "waterfill":
            uniform = power.copy()
            for i, bands in enumerate(combo):
                if not bands:
                    continue
                idx = list(bands)
                interf = np.array([
                    sum(inst.gains_sq[i, k, j] * uniform[k, j]
                        for k in range(n) if k != i) for j in idx])
                g_eff = inst.gains_sq[i, i, idx] / (interf + inst.noise_band_w)
                power[i] = 0.0
                power[i, idx] = water_fill(WaterFillProblem(
                    g_eff, inst.p_total_w,
                    np.full(len(idx), inst.p_band_cap_w)))
        rewards = np.zeros(n)
        for i in range(n):
            rate = 0.0
            for j in range(m):
                if not inst.availability[j]:
                    continue
                sig = inst.gains_sq[i, i, j] * power[i, j]
                interf = sum(inst.gains_sq[i, k, j] * power[k, j]
                             for k in range(n) if k != i)
                rate += inst.bandwidth_hz * math.log2(
                    1.0 + sig / (interf + inst.noise_band_w))
            rewards[i] = elastic_reward(rate, float(inst.thresholds[i]),
                                        inst.beta)
        score = evaluate(objective, rewards)
        if score > best_score:
            best_alloc, best_score = alloc, score
    return best_alloc, best_score


@pytest.mark.parametrize("objective", ["sum", "maxmin", "proportional_fair"])
@pytest.mark.parametrize("rule", ["uniform", "waterfill"])
def test_matches_loop_reference(objective, rule):
    gen = np.random.default_rng(12)
    g = random_gains(gen, 3, 3)
    inst = make_instance(g, rule=rule,
                         thresholds=gen.uniform(0.0, 1e4, size=3))
    alloc, score = solve_exhaustive(inst, objective)
    want_alloc, want_score = loop_solve(inst, objective)
    assert score == pytest.approx(want_score, rel=1e-9)
    assert np.array_equal(alloc, want_alloc)


def test_matches_loop_reference_two_band_users():
    gen = np.random.default_rng(14)
    g = random_gains(gen, 2, 3)
    inst = make_instance(g, l=2, rule="waterfill")
    alloc, score = solve_exhaustive(inst, "sum")
    want_alloc, want_score = loop_solve(inst, "sum")
    assert score == pytest.approx(want_score, rel=1e-9)
    assert np.array_equal(alloc, want_alloc)


@pytest.mark.parametrize("rule", ["uniform", "waterfill"])
@pytest.mark.parametrize("n_users", range(1, 7))
def test_matches_per_assignment_reference_bit_for_bit(n_users, rule, monkeypatch):
    # Powers derived once per distinct per-user problem must give the very
    # allocation and score of powers derived afresh for every assignment,
    # also when the enumeration runs in chunks of 7 assignments.
    gen = np.random.default_rng([n_users, rule == "waterfill"])
    for objective in ("sum", "maxmin", "proportional_fair", "intrinsic"):
        m = int(gen.integers(1, 5))
        random_shape = (m, gen.random(m) > 0.25, int(gen.integers(1, 3)))
        # The largest shape: four bands, two per user, at most one busy.
        full_shape = (4, np.arange(4) != gen.integers(0, 8), 2)
        for m, availability, l in (random_shape, full_shape):
            inst = make_instance(random_gains(gen, n_users, m),
                                 availability=availability, l=l, rule=rule,
                                 thresholds=gen.uniform(0.0, 2e6, size=n_users))
            chunks = [oracle._CHUNK]
            options = band_alphabet(inst.availability, inst.max_bands_per_user)
            if len(options) ** n_users <= 2500:
                chunks.append(7)
            for chunk in chunks:
                monkeypatch.setattr(oracle, "_CHUNK", chunk)
                alloc, score = solve_exhaustive(inst, objective)
                want_alloc, want_score = solve_per_assignment(inst, objective)
                assert score == want_score, (objective, chunk, inst)
                assert np.array_equal(alloc, want_alloc), (objective, chunk, inst)
            monkeypatch.undo()


def test_waterfill_solves_each_distinct_problem_once(monkeypatch):
    rows = []

    def counting(gains, *args):
        rows.append(len(gains))
        return water_fill_batch(gains, *args)

    monkeypatch.setattr(oracle, "water_fill_batch", counting)
    inst = make_instance(random_gains(np.random.default_rng(15), 5, 4), l=2,
                         rule="waterfill")
    solve_exhaustive(inst, "sum")
    # Each user idles or holds one of 6 band pairs, each band shared with
    # any of 2**4 sets of other users; one row per joint assignment and
    # user would be 7**5 * 5 = 84,035.
    assert 0 < sum(rows) <= 5 * (1 + 6 * 2 ** 8)


# ---------------------------------------------------------------- oracle-check


def test_filters_can_beat_the_waterfill_oracle(tmp_path, capsys):
    # The oracle optimises band choices under one fixed power rule, so it is
    # a reference, not an upper bound: on this seeded scenario the filters'
    # water-filling against the powers actually broadcast beats it on slot 1.
    scenario = tmp_path / "tiny.scn"
    scenario.write_text("n_users = 4\nn_bands = 3\nmax_bands_per_user = 2\n"
                        "n_particles = 6\nobjective = sum\npu_busy_prob = 0.2\n"
                        "rate_threshold_range_bps = 2e5, 2e6\nseed = 13\n")
    assert main(["oracle-check", "--config", str(scenario), "--slots", "2"]) == 0
    slots = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("slot=")]
    assert slots[1].startswith("slot=1 ")
    assert slots[1].endswith(" ratio=1.118502")
