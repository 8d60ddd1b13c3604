"""Fast self-tests of the benchmark's own checks and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from checks import (Scenario, TrajectoryChecker, exhaustive_best,  # noqa: E402
                    shannon_rates)
from tracer import Tracer  # noqa: E402

import dsapf  # noqa: E402
from dsapf.metrics_io import write_run  # noqa: E402
from dsapf.phy import draw_rate_thresholds, throughput  # noqa: E402

TINY = dsapf.SystemConfig(n_users=4, n_bands=3, max_bands_per_user=2,
                          n_slots=6, pu_busy_prob=0.3, seed=5)


def _trajectory(cfg, corrupt=None):
    vcfg = dsapf.validate(cfg)
    sc = Scenario(cfg, draw_rate_thresholds(vcfg, dsapf.RngStream(cfg.seed)))
    checker = TrajectoryChecker(sc, seed=0, random_draws=2)
    snaps = []

    def hook(snap):
        snaps.append(snap)
        checker.hook(corrupt(snap) if corrupt else snap)
    summary, records = dsapf.run(vcfg, slot_hook=hook)
    return sc, checker, summary, records, snaps


def test_shannon_rates_match_the_scalar_reference():
    gen = np.random.default_rng(1)
    n, m = 4, 3
    gains = gen.lognormal(size=(n, n, m)) * 1e-6
    alloc = gen.random((n, m)) < 0.6
    power = np.where(alloc, gen.uniform(1e-4, 2e-3, (n, m)), 0.0)
    avail = np.array([True, False, True])
    got = shannon_rates(gains, power, alloc, avail, 1e6, 1e-7)
    want = [throughput(i, alloc, power, gains, avail, 1e6, 1e-7) for i in range(n)]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_checker_passes_the_engine_and_flags_a_perturbed_rate(tmp_path):
    sc, checker, summary, records, _ = _trajectory(TINY)
    write_run(records, summary, str(tmp_path))
    checker.finish(summary, records, str(tmp_path))
    assert checker.errors == []

    def nudge(snap):
        return dataclasses.replace(snap, rates=snap.rates * (1.0 + 1e-7))
    _, bad, _, _, _ = _trajectory(TINY, corrupt=nudge)
    assert any("rates differ" in e for e in bad.errors)


def test_checker_flags_power_over_budget():
    def boost(snap):
        return dataclasses.replace(snap, power_w=snap.power_w * 1.01)
    _, bad, _, _, _ = _trajectory(dataclasses.replace(TINY, max_bands_per_user=1),
                                  corrupt=boost)
    assert any("power" in e for e in bad.errors)


def test_own_enumeration_matches_the_oracle():
    cfg = dataclasses.replace(TINY, n_users=3, pu_busy_prob=0.0)
    sc, _, _, _, snaps = _trajectory(cfg)
    vcfg = dsapf.validate(cfg)
    snap = snaps[-1]
    inst = dsapf.TinyInstance(
        gains_sq=snap.gains_sq, availability=snap.availability,
        thresholds=sc.thresholds, bandwidth_hz=vcfg.bandwidth_hz,
        noise_band_w=vcfg.noise_band_w, p_total_w=vcfg.p_total_max_w,
        p_band_cap_w=vcfg.p_band_max_w, max_bands_per_user=2, beta=vcfg.beta,
        power_rule="waterfill")
    best = dsapf.solve_exhaustive(inst, "sum")[1]
    assert abs(exhaustive_best(sc, snap.gains_sq, snap.availability) - best) <= 1e-9 * best


def test_self_time_excludes_child_spans():
    tr = Tracer()
    tr.spans[:] = [["outer", 0.0, 1.0, -1], ["inner", 0.2, 0.5, 0], ["inner", 0.6, 0.7, 0]]
    ms = tr.self_ms()
    assert abs(ms["outer"] - 600.0) < 1e-9 and abs(ms["inner"] - 400.0) < 1e-9
