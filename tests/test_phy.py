"""Link physics: SINR, Shannon rates, elastic rewards, threshold draws."""

import math

import numpy as np
import pytest

from dsapf.phy import (draw_rate_thresholds, elastic_reward, sinr,
                       sinr_matrix, throughput, user_rates)
from dsapf.system import RngStream, SystemConfig, validate


def test_sinr_single_link():
    alloc = np.array([[True]])
    power = np.array([[2.0]])
    gains = np.full((1, 1, 1), 3.0)
    # signal 2 * 3 over noise 0.5, nobody else transmitting
    assert sinr(0, 0, alloc, power, gains, 0.5) == pytest.approx(12.0, rel=1e-15)


def test_sinr_with_interference():
    alloc = np.array([[True], [True]])
    power = np.array([[2.0], [4.0]])
    gains = np.zeros((2, 2, 1))
    gains[0, 0, 0] = 3.0   # direct link of user 0
    gains[0, 1, 0] = 0.25  # leakage from user 1 into receiver 0
    gains[1, 1, 0] = 1.0
    gains[1, 0, 0] = 0.5
    got = sinr(0, 0, alloc, power, gains, 1.0)
    assert got == pytest.approx((2.0 * 3.0) / (4.0 * 0.25 + 1.0), rel=1e-15)
    got1 = sinr(1, 0, alloc, power, gains, 1.0)
    assert got1 == pytest.approx(4.0 / (2.0 * 0.5 + 1.0), rel=1e-15)


def test_throughput_spot_value():
    # SNR 10 over 1 MHz: 1e6 * log2(11) bit/s
    alloc = np.array([[True]])
    power = np.array([[10.0]])
    gains = np.ones((1, 1, 1))
    avail = np.array([True])
    rate = throughput(0, alloc, power, gains, avail, 1e6, 1.0)
    assert rate == pytest.approx(3459431.6186372973, rel=1e-12)


def test_throughput_skips_busy_bands():
    alloc = np.array([[True, True]])
    power = np.array([[10.0, 10.0]])
    gains = np.ones((1, 1, 2))
    only_first = throughput(0, alloc, power, gains,
                            np.array([True, False]), 1e6, 1.0)
    assert only_first == pytest.approx(3459431.6186372973, rel=1e-12)


def test_vectorized_rates_match_scalar_route():
    # The per-user loop (sinr/throughput) and the batched einsum route must
    # agree on a messy random instance.
    rng = np.random.default_rng(0)
    n, m = 4, 3
    alloc = rng.random((n, m)) < 0.6
    power = np.where(alloc, rng.uniform(0.1, 2.0, (n, m)), 0.0)
    gains = rng.lognormal(sigma=1.5, size=(n, n, m))
    avail = np.array([True, False, True])
    noise = 0.3

    vec = user_rates(alloc, power, gains, avail, 2e6, noise)
    for i in range(n):
        assert vec[i] == pytest.approx(
            throughput(i, alloc, power, gains, avail, 2e6, noise), rel=1e-12)

    # a batch of allocations is the same as one call per allocation
    batch = np.stack([alloc, ~alloc])
    batch_power = np.stack([power, np.where(~alloc, 1.0, 0.0)])
    batched = user_rates(batch, batch_power, gains, avail, 2e6, noise)
    assert np.array_equal(batched[0], vec)
    assert np.array_equal(batched[1], user_rates(batch[1], batch_power[1], gains,
                                                 avail, 2e6, noise))

    snr = sinr_matrix(alloc, power, gains, noise)
    for i in range(n):
        for j in range(m):
            if alloc[i, j]:
                assert snr[i, j] == pytest.approx(
                    sinr(i, j, alloc, power, gains, noise), rel=1e-12)
            else:
                assert snr[i, j] == 0.0


def test_elastic_reward_above_threshold_is_identity():
    assert elastic_reward(5000.0, 4000.0, 0.5) == 5000.0
    rates = np.array([1e6, 2e6])
    out = elastic_reward(rates, np.array([10.0, 20.0]), 0.5)
    assert np.array_equal(out, rates)


def test_elastic_reward_below_threshold_spot_value():
    # decay exp(-beta (thr - r) / r) with beta=1, r=2000, thr=4000 -> r / e
    got = elastic_reward(2000.0, 4000.0, 1.0)
    assert isinstance(got, float)
    assert got == pytest.approx(735.7588823428847, rel=1e-12)


def test_elastic_reward_zero_rate_is_zero():
    assert elastic_reward(0.0, 0.0, 0.5) == 0.0
    assert elastic_reward(0.0, 1000.0, 0.5) == 0.0
    out = elastic_reward(np.array([0.0, 10.0]), 5.0, 0.5)
    assert out[0] == 0.0 and out[1] == 10.0


def test_elastic_reward_beta_zero_removes_penalty():
    assert elastic_reward(2000.0, 4000.0, 0.0) == pytest.approx(2000.0)


def test_elastic_reward_continuous_at_threshold():
    thr = 4000.0
    below = elastic_reward(thr * (1 - 1e-12), thr, 0.5)
    assert below == pytest.approx(thr, rel=1e-9)


def test_elastic_reward_monotone_in_rate():
    rates = np.linspace(1.0, 9000.0, 400)
    out = elastic_reward(rates, 4000.0, 0.7)
    assert np.all(np.diff(out) > 0.0)
    assert np.all(out <= rates + 1e-12)


def test_draw_rate_thresholds_range_and_determinism():
    cfg = validate(SystemConfig(n_users=500,
                                rate_threshold_range_bps=(100.0, 900.0)))
    a = draw_rate_thresholds(cfg, RngStream(4))
    b = draw_rate_thresholds(cfg, RngStream(4))
    assert a.shape == (500,)
    assert np.array_equal(a, b)
    assert np.all((a >= 100.0) & (a <= 900.0))
    # spread should cover the interval, not collapse
    assert a.min() < 200.0 and a.max() > 800.0
