"""End-to-end acceptance: trend reproductions at desk scale plus property
suites, one printed PASS/FAIL line per criterion (run with ``-s`` to see the
lines for passing criteria too).

The trend checks drive full simulations and take several minutes combined;
everything is seeded, so results are bit-stable across reruns.
"""

import math
import time

import numpy as np
import pytest

import dsapf.channel as channel
from dsapf.engine import jain_index, run
from dsapf.oracle import compare
from dsapf.pfilter import (ParticleSet, effective_sample_size,
                           systematic_resample, update_weights)
from dsapf.phy import elastic_reward
from dsapf.system import (Domain, RngStream, SystemConfig, derive_substream,
                          validate)

from reference import WaterFillProblem, water_fill

TREND_SEEDS = range(5)
_CACHE: dict = {}


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def one_run(seed: int, **kw):
    key = (seed, tuple(sorted(kw.items())))
    if key not in _CACHE:
        summary, _ = run(validate(SystemConfig(seed=seed, **kw)))
        _CACHE[key] = (summary.per_user_avg_throughput, summary.avg_jain)
    return _CACHE[key]


def mean_thr(**kw) -> float:
    return float(np.mean([one_run(s, **kw)[0] for s in TREND_SEEDS]))


@pytest.fixture(scope="module")
def objective_matrix():
    """Throughput and fairness per seed for the three compared objectives
    at the reference setup (50 users, 10 bands, single-band selection,
    10 particles, 200 slots)."""
    setup = dict(n_users=50, n_bands=10, max_bands_per_user=1,
                 n_particles=10, n_slots=200)
    t0 = time.monotonic()
    rows = {(s, obj): one_run(s, objective=obj, **setup)
            for s in range(10)
            for obj in ("sum", "proportional_fair", "maxmin")}
    return rows, time.monotonic() - t0


def test_objective_ordering(objective_matrix):
    rows, elapsed = objective_matrix
    hits = sum(rows[s, "sum"][0] >= rows[s, "proportional_fair"][0]
               >= rows[s, "maxmin"][0] for s in range(10))
    ok = hits >= 8 and elapsed < 120.0
    report("objective ordering", ok,
           f"sum >= proportional_fair >= maxmin on {hits}/10 seeds "
           f"in {elapsed:.0f}s")
    assert hits >= 8
    assert elapsed < 120.0


def test_fairness(objective_matrix):
    rows, _ = objective_matrix
    jains = np.array([[rows[s, o][1] for o in ("proportional_fair", "sum")]
                      for s in range(10)])
    assert (jains >= 1.0 / 50 - 1e-12).all()
    assert (jains <= 1.0 + 1e-12).all()
    hits = int(((jains[:, 0] >= 0.90) & (jains[:, 0] > jains[:, 1])).sum())
    detail = (f"Jain(pf) >= 0.90 and > Jain(sum) on {hits}/10 seeds; "
              f"pf jains: {np.round(jains[:, 0], 3).tolist()}")
    report("fairness", hits >= 8, detail)
    assert hits >= 8, detail


def test_particle_saturation():
    setup = dict(n_users=50, n_bands=10, max_bands_per_user=1, n_slots=200,
                 objective="sum")
    thr = {ns: mean_thr(n_particles=ns, **setup) for ns in (2, 5, 10, 20, 50)}
    near = abs(thr[20] - thr[50]) <= 0.05 * thr[50]
    low = thr[2] <= 0.90 * thr[20]
    ok = near and low
    report("particle saturation", ok,
           "mean throughput by particle count: "
           + str({k: round(v) for k, v in thr.items()}))
    assert near, f"20 vs 50 particles differ by more than 5%: {thr}"
    assert low, f"2 particles not at least 10% below 20: {thr}"


def test_multiband_unimodality():
    setup = dict(n_users=50, n_bands=8, n_particles=20, n_slots=200,
                 bandwidth_hz=6e6)
    failures = []
    detail = []
    for obj in ("sum", "maxmin", "proportional_fair"):
        vals = [mean_thr(max_bands_per_user=l, objective=obj, **setup)
                for l in range(1, 7)]
        interior = max(vals[1:5])
        humped = interior > vals[0] and interior > vals[5]
        detail.append(f"{obj} {'rises then falls' if humped else 'no interior peak'} "
                      + str([round(v / 1e6, 2) for v in vals]))
        if not humped:
            failures.append(obj)
    report("multiband unimodality", not failures, "; ".join(detail))
    assert not failures, f"no interior throughput peak under: {failures}"


def test_primary_activity_monotonic():
    setup = dict(n_users=50, n_bands=8, max_bands_per_user=2, n_particles=20,
                 n_slots=200, bandwidth_hz=6e6, objective="sum")
    thr = [mean_thr(pu_busy_prob=p, **setup) for p in (0.0, 0.25, 0.5)]
    ok = thr[1] <= 0.98 * thr[0] and thr[2] <= 0.98 * thr[1]
    report("primary-activity monotonicity", ok,
           f"mean throughput over busy prob 0/0.25/0.5: "
           + str([round(v) for v in thr]))
    assert ok, f"not strictly decreasing beyond the 2% tie band: {thr}"


def test_band_count_monotonic():
    setup = dict(n_users=50, max_bands_per_user=2, n_particles=20,
                 n_slots=200, bandwidth_hz=6e6, pu_busy_prob=0.25,
                 objective="sum")
    thr = [mean_thr(n_bands=m, **setup) for m in (4, 8, 12)]
    ok = thr[0] <= thr[1] <= thr[2]
    report("band-count monotonicity", ok,
           "mean throughput over 4/8/12 bands: "
           + str([round(v) for v in thr]))
    assert ok, f"throughput not nondecreasing in the band count: {thr}"


def test_power_effect():
    setup = dict(n_users=50, n_bands=8, n_particles=20, n_slots=200,
                 bandwidth_hz=6e6, pu_busy_prob=0.25, objective="sum")
    curves = {}
    for l in (2, 5):
        curves[l] = [mean_thr(max_bands_per_user=l, p_total_max_dbm=p, **setup)
                     for p in (-3.0, 3.0, 9.0)]
    rising = curves[2][0] < curves[2][1] < curves[2][2]
    gain2 = curves[2][2] / curves[2][0]
    gain5 = curves[5][2] / curves[5][0]
    ok = rising and gain5 < gain2
    report("power effect", ok,
           f"2-band curve {[round(v) for v in curves[2]]} rising={rising}; "
           f"power gain x{gain2:.2f} (2 bands) vs x{gain5:.2f} (5 bands)")
    assert rising, f"throughput not increasing in power at 2 bands: {curves[2]}"
    assert gain5 < gain2, (
        f"raising power helped more at 5 bands ({gain5:.2f}) than at 2 "
        f"({gain2:.2f})")


def test_oracle_gap():
    t0 = time.monotonic()
    hits = 0
    worst = 1.0
    for seed in range(10):
        cfg = validate(SystemConfig(
            n_users=4, n_bands=3, max_bands_per_user=1, n_particles=10,
            n_slots=50, doppler_coherence_product=0.0, objective="sum",
            seed=seed))
        snaps = []
        run(cfg, slot_hook=snaps.append)
        best_ratio = max(ratio for *_, ratio in compare(cfg, snaps))
        hits += best_ratio >= 0.90
        worst = min(worst, best_ratio)
    elapsed = time.monotonic() - t0
    ok = hits == 10 and elapsed < 5.0
    report("oracle gap", ok,
           f"90% of the exhaustive optimum reached on {hits}/10 frozen "
           f"scenarios (worst peak ratio {worst:.3f}) in {elapsed:.1f}s")
    assert hits == 10
    assert elapsed < 5.0


def test_property_suite():
    results = []

    # weight simplex stays normalized through arbitrary updates
    gen = np.random.default_rng(41)
    pset = ParticleSet(selections=np.eye(8, dtype=bool)[None],
                       weights=np.full((1, 8), 1.0 / 8), max_bands=1)
    drift = 0.0
    for _ in range(300):
        update_weights(pset, [float(gen.normal())], gen.normal(size=(1, 8)), [0.4])
        drift = max(drift, abs(pset.weights.sum() - 1.0))
        assert (pset.weights >= 0.0).all()
    results.append(("weight simplex", drift < 1e-9, f"max drift {drift:.1e}"))

    # systematic resampling is unbiased within 2%
    weights = np.array([0.05, 0.1, 0.15, 0.2, 0.25, 0.25])
    totals = np.zeros(6)
    trials = 1500
    for t in range(trials):
        ps = ParticleSet(selections=np.eye(6, dtype=bool)[None],
                         weights=weights[None].copy(), max_bands=1)
        systematic_resample(ps, [0], RngStream(t, (9, 7)))
        totals += ps.selections[0].sum(axis=0)
    bias = np.abs(totals / (trials * 6) - weights).max()
    results.append(("resample unbiasedness", bias < 0.02, f"max bias {bias:.4f}"))

    # water-filling: budget, KKT conditions, and dominance on 100 instances
    gen = np.random.default_rng(42)
    wf_ok = True
    for _ in range(100):
        m = int(gen.integers(1, 9))
        gains = gen.lognormal(sigma=1.5, size=m)
        caps = gen.uniform(0.05, 2.0, size=m)
        p_total = float(gen.uniform(0.01, 1.2 * caps.sum()))
        out = water_fill(WaterFillProblem(gains, p_total, caps))
        spend = min(p_total, caps.sum())
        wf_ok &= abs(out.sum() - spend) < 1e-9
        wf_ok &= (out >= -1e-12).all() and (out <= caps + 1e-9).all()
        inv = 1.0 / gains
        interior = (out > 1e-9) & (out < caps - 1e-9)
        if interior.any():
            mu = (out[interior] + inv[interior]).mean()
            wf_ok &= np.abs(out[interior] + inv[interior] - mu).max() < 1e-9
        else:
            mu = (out + inv).max()
        wf_ok &= (inv[out <= 1e-9] >= mu - 1e-9).all()
        full = out >= caps - 1e-9
        wf_ok &= (inv[full] + caps[full] <= mu + 1e-9).all()
        best = np.log1p(out * gains).sum()
        for _ in range(20):
            alt = gen.dirichlet(np.ones(m)) * spend
            alt = np.minimum(alt, caps)
            wf_ok &= np.log1p(alt * gains).sum() <= best + 1e-9
    results.append(("water-fill optimality", wf_ok, "100 random instances"))

    # fading autocorrelation matches the configured coefficient
    cfg = validate(SystemConfig(n_users=1, n_bands=100, max_bands_per_user=1,
                                n_particles=2, n_slots=1, seed=3))
    coeffs = channel.ar_coefficients(cfg.doppler_coherence_product)
    tensor = channel.init_channels(cfg, RngStream(3))
    steps = 10_000
    seq = np.empty((steps, 100), dtype=complex)
    for t in range(steps):
        seq[t] = tensor.current[0, 0]
        channel.step_channels(tensor, coeffs,
                              derive_substream(RngStream(3), (Domain.CHANNEL_STEP, t)))
    x = seq.real
    corr = np.corrcoef(x[:-1].ravel(), x[1:].ravel())[0, 1]
    results.append(("fading autocorrelation",
                    abs(corr - coeffs.a1) < 0.01,
                    f"lag-1 {corr:.4f} vs {coeffs.a1:.4f}"))

    # availability compliance over 1000 slots
    cfg = validate(SystemConfig(n_users=5, n_bands=6, max_bands_per_user=3,
                                n_particles=8, n_slots=1000,
                                pu_busy_prob=0.4, seed=6))
    violations = 0

    def check(snap):
        nonlocal violations
        if snap.alloc[:, ~snap.availability].any():
            violations += 1
        if (snap.alloc.sum(axis=1) > 3).any():
            violations += 1
        if ((snap.power_w.sum(axis=1) > cfg.p_total_max_w * (1 + 1e-9)).any()
                or (snap.power_w > cfg.p_band_max_w * (1 + 1e-9)).any()):
            violations += 1

    summary, _ = run(cfg, slot_hook=check)
    results.append(("availability compliance", violations == 0,
                    f"{violations} violations in 1000 slots"))

    # signaling overhead is exactly T * N * (N - 1)
    results.append(("message count", summary.total_messages == 1000 * 5 * 4,
                    f"{summary.total_messages} messages"))

    # reruns are bit-identical
    small = validate(SystemConfig(n_users=6, n_bands=4, max_bands_per_user=2,
                                  n_particles=6, n_slots=40, seed=9))
    s1, r1 = run(small)
    s2, r2 = run(small)
    same = s1 == s2 and all(
        np.array_equal(a.realized_rates, b.realized_rates)
        and np.array_equal(a.alloc, b.alloc)
        for a, b in zip(r1, r2))
    results.append(("bit-identical reruns", same, "40-slot scenario"))

    ok = all(flag for _, flag, _ in results)
    report("property suite", ok,
           "; ".join(f"{name} {'ok' if flag else 'FAILED'} ({note})"
                     for name, flag, note in results))
    assert ok, [name for name, flag, _ in results if not flag]


def test_formula_spot_values():
    elastic = elastic_reward(2000.0, 4000.0, 1.0)
    ok_elastic = math.isclose(elastic, 2000.0 * math.exp(-1.0), rel_tol=1e-6)
    jain = jain_index(np.array([1.0, 2.0, 3.0]))
    ok_jain = abs(jain - 6.0 / 7.0) <= 1e-12
    pset = ParticleSet(selections=np.eye(3, dtype=bool)[None],
                       weights=np.array([[0.5, 0.25, 0.25]]), max_bands=1)
    ess = effective_sample_size(pset)[0]
    ok_ess = abs(ess - 8.0 / 3.0) <= 1e-12
    ok = ok_elastic and ok_jain and ok_ess
    report("formula spot values", ok,
           f"elastic {elastic:.6f}, jain {jain:.12f}, ess {ess:.12f}")
    assert ok_elastic and ok_jain and ok_ess
