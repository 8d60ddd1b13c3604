"""Fading dynamics: AR coefficients, geometry, stationarity, prediction."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dsapf
from dsapf.channel import (AREA_SIDE_FACTOR, DIRECT_GAIN_ADVANTAGE_DB,
                           ArCoefficients, ChannelTensor, _j0,
                           ar_coefficients, init_channels, mean_gain_matrix,
                           predict_channels, step_channels)
from dsapf.system import Domain, RngStream, SystemConfig, derive_substream, validate


def bessel_j0_series(x: float) -> float:
    """Independent J0 route: the defining power series, 25 terms."""
    total = 0.0
    half = x / 2.0
    for k in range(25):
        total += (-1) ** k * half ** (2 * k) / math.factorial(k) ** 2
    return total


def test_ar_coefficient_matches_bessel_series():
    coeffs = ar_coefficients(0.05)
    expected = bessel_j0_series(2.0 * math.pi * 0.05)
    assert coeffs.a1 == pytest.approx(expected, rel=1e-13)
    assert coeffs.a1 == pytest.approx(0.9754777740752495, rel=1e-14)


def test_j0_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    grid = np.concatenate([np.linspace(0.0, 60.0, 601), np.logspace(-8, 30, 77)])
    with mpmath.workdps(40):
        for x in grid:
            exact = mpmath.besselj(0, mpmath.mpf(float(x)))
            assert abs(mpmath.mpf(_j0(float(x))) - exact) <= 1e-15, x


def test_j0_matches_scipy():
    special = pytest.importorskip("scipy.special")
    grid = np.concatenate([np.linspace(0.0, 100.0, 1001), np.logspace(-8, 4, 241)])
    for x in grid:
        assert _j0(float(x)) == pytest.approx(float(special.j0(x)), abs=1e-14), x


def test_j0_at_zero_is_exactly_one():
    # so that a doppler product of 0 freezes the channel
    assert _j0(0.0) == 1.0


def test_import_leaves_scipy_out():
    # A fresh interpreter, pointed at the package these tests import.
    src = str(Path(dsapf.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, dsapf, dsapf.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_ar_innovation_preserves_unit_power():
    for product in (0.01, 0.05, 0.2):
        c = ar_coefficients(product)
        assert c.a1 ** 2 + c.xi ** 2 == pytest.approx(1.0, rel=1e-12)
    assert ar_coefficients(0.05).xi == pytest.approx(0.2200979606566051, rel=1e-12)


def test_ar_zero_doppler_freezes():
    c = ar_coefficients(0.0)
    assert c.a1 == 1.0
    assert c.xi == 0.0


def test_ar_rejects_negative_product():
    with pytest.raises(ValueError):
        ar_coefficients(-0.1)


def test_mean_gain_geometry_properties():
    cfg = validate(SystemConfig(n_users=40, n_bands=2))
    gain = mean_gain_matrix(cfg, RngStream(3))
    assert gain.shape == (40, 40)
    off = gain[~np.eye(40, dtype=bool)]
    # distances clamp at the reference distance, so raw gains never top 1
    assert np.all(off <= 1.0) and np.all(off > 0.0)
    # direct links sit exactly 3 dB above the mean cross link
    advantage = 10.0 ** (DIRECT_GAIN_ADVANTAGE_DB / 10.0)
    assert np.allclose(np.diag(gain), advantage * off.mean(), rtol=1e-12)
    # regenerating with the same stream reproduces the layout
    again = mean_gain_matrix(cfg, RngStream(3))
    assert np.array_equal(gain, again)
    assert not np.array_equal(gain, mean_gain_matrix(cfg, RngStream(4)))


def test_mean_gain_single_user():
    cfg = validate(SystemConfig(n_users=1, n_bands=1))
    gain = mean_gain_matrix(cfg, RngStream(0))
    # one pair, zero distance, clamped to the reference distance
    assert gain.shape == (1, 1)
    assert gain[0, 0] == pytest.approx(1.0, rel=1e-12)


def test_init_channels_stationary_power():
    # Many bands give many i.i.d. fading draws per link; the sample mean
    # squared gain must sit on the geometric mean gain (3-sigma ~ 4.7%).
    cfg = validate(SystemConfig(n_users=2, n_bands=4000))
    tensor = init_channels(cfg, RngStream(11))
    power = np.abs(tensor.current) ** 2
    ratio = power.mean(axis=2) / tensor.mean_gain
    assert np.allclose(ratio, 1.0, atol=0.05)


def test_init_channels_is_the_stationary_draw():
    # Slot 0 sees the CHANNEL_INIT draw itself, bit for bit: no AR step runs.
    cfg = validate(SystemConfig(n_users=3, n_bands=5))
    root = RngStream(4)
    tensor = init_channels(cfg, root)
    gen = derive_substream(root, Domain.CHANNEL_INIT).generator()
    re = gen.standard_normal((3, 3, 5)) * (1.0 / math.sqrt(2.0))
    im = gen.standard_normal((3, 3, 5)) * (1.0 / math.sqrt(2.0))
    scale = np.sqrt(mean_gain_matrix(cfg, root))[:, :, None]
    assert np.array_equal(tensor.current.real, re * scale)
    assert np.array_equal(tensor.current.imag, im * scale)


def test_init_channels_deterministic():
    cfg = validate(SystemConfig(n_users=3, n_bands=5))
    a = init_channels(cfg, RngStream(2)).current
    b = init_channels(cfg, RngStream(2)).current
    assert np.array_equal(a, b)


def test_frozen_channel_never_moves():
    cfg = validate(SystemConfig(n_users=2, n_bands=3,
                                doppler_coherence_product=0.0))
    coeffs = ar_coefficients(0.0)
    tensor = init_channels(cfg, RngStream(5))
    before = tensor.current.copy()
    for t in range(4):
        step_channels(tensor, coeffs, RngStream(5, (99, t)))
    assert np.array_equal(tensor.current, before)
    assert np.array_equal(predict_channels(tensor, coeffs), before)


def test_prediction_is_conditional_mean():
    cfg = validate(SystemConfig(n_users=2, n_bands=3))
    coeffs = ar_coefficients(cfg.doppler_coherence_product)
    tensor = init_channels(cfg, RngStream(8))
    before = tensor.current.copy()
    predicted = predict_channels(tensor, coeffs)
    assert np.allclose(predicted, coeffs.a1 * before, rtol=1e-12)
    # prediction must not advance the state
    assert np.array_equal(tensor.current, before)


def test_lag_one_autocorrelation_matches_coefficient():
    # 100 parallel unit-power links stepped 10^4 times; the pooled lag-1
    # autocorrelation estimate must land within 0.01 of a1.
    cfg = validate(SystemConfig(n_users=1, n_bands=100))
    coeffs = ar_coefficients(cfg.doppler_coherence_product)
    tensor = init_channels(cfg, RngStream(13))
    num = 0.0
    den = 0.0
    for t in range(10_000):
        prev = tensor.current.copy()
        step_channels(tensor, coeffs, RngStream(13, (5, t)))
        num += float(np.real(tensor.current * np.conj(prev)).sum())
        den += float((np.abs(prev) ** 2).sum())
    assert num / den == pytest.approx(coeffs.a1, abs=0.01)


def test_innovation_variance_matches_prediction_error():
    # E|h(t) - a1 h(t-1)|^2 should equal xi^2 * mean_gain per link.
    cfg = validate(SystemConfig(n_users=2, n_bands=2000))
    coeffs = ar_coefficients(cfg.doppler_coherence_product)
    tensor = init_channels(cfg, RngStream(21))
    predicted = predict_channels(tensor, coeffs)
    step_channels(tensor, coeffs, RngStream(21, (5, 0)))
    err = np.abs(tensor.current - predicted) ** 2
    ratio = err.mean(axis=2) / (coeffs.xi ** 2 * tensor.mean_gain)
    assert np.allclose(ratio, 1.0, atol=0.1)


def test_long_run_power_stays_stationary():
    # After thousands of steps the process must neither blow up nor decay.
    cfg = validate(SystemConfig(n_users=1, n_bands=500))
    coeffs = ar_coefficients(cfg.doppler_coherence_product)
    tensor = init_channels(cfg, RngStream(17))
    for t in range(3000):
        step_channels(tensor, coeffs, RngStream(17, (5, t)))
    power = (np.abs(tensor.current) ** 2).mean()
    assert power == pytest.approx(tensor.mean_gain[0, 0], rel=0.15)


def test_state_is_one_gain_tensor():
    cfg = validate(SystemConfig(n_users=3, n_bands=4))
    tensor = init_channels(cfg, RngStream(1))
    assert isinstance(tensor, ChannelTensor)
    assert tensor.current.shape == (3, 3, 4)
    assert tensor.mean_gain.shape == (3, 3)
    assert AREA_SIDE_FACTOR > 0.0
