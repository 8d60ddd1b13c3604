"""Link-level physics: SINR, Shannon throughput, and the elastic reward.

Conventions: ``gains_sq[i, k, j]`` is the squared channel magnitude from
transmitter k to receiver i on band j; ``alloc`` is a boolean (users, bands)
selection matrix; ``power_w`` the matching transmit powers in watts; and
``availability`` a boolean per-band vector that is False while the licensed
owner occupies the band.
"""

from __future__ import annotations

import numpy as np

from .system import Domain, RngStream, ValidatedConfig, derive_substream

_INV_LN2 = 1.0 / np.log(2.0)


def sinr(user: int, band: int, alloc: np.ndarray, power_w: np.ndarray,
         gains_sq: np.ndarray, noise_band_w: float) -> float:
    """Signal-to-interference-plus-noise ratio of one user on one band."""
    direct = power_w[user, band] * gains_sq[user, user, band]
    received = alloc[:, band] * power_w[:, band] * gains_sq[user, :, band]
    interference = received.sum() - received[user]
    return float(direct / (interference + noise_band_w))


def throughput(user: int, alloc: np.ndarray, power_w: np.ndarray,
               gains_sq: np.ndarray, availability: np.ndarray,
               bandwidth_hz: float, noise_band_w: float) -> float:
    """Shannon rate summed over the user's selected, available bands [bit/s]."""
    total = 0.0
    for band in np.flatnonzero(alloc[user] & availability):
        total += bandwidth_hz * np.log2(
            1.0 + sinr(user, band, alloc, power_w, gains_sq, noise_band_w))
    return float(total)


def sinr_matrix(alloc: np.ndarray, power_w: np.ndarray, gains_sq: np.ndarray,
                noise_band_w: float) -> np.ndarray:
    """All users' per-band SINR at once; zero on unselected bands.

    ``alloc`` and ``power_w`` may carry leading batch axes, (..., n, m).
    """
    tx = power_w * alloc
    received = np.einsum("ikj,...kj->...ij", gains_sq, tx)
    signal = np.einsum("iij->ij", gains_sq) * tx
    interference = np.maximum(received - signal, 0.0)
    return signal / (interference + noise_band_w)


def shannon_rates(snr: np.ndarray, availability: np.ndarray,
                  bandwidth_hz: float) -> np.ndarray:
    """Shannon rate B*log2(1+snr) summed over the available bands (last
    axis) [bit/s]."""
    return bandwidth_hz * _INV_LN2 * (np.log1p(snr) * availability).sum(axis=-1)


def user_rates(alloc: np.ndarray, power_w: np.ndarray, gains_sq: np.ndarray,
               availability: np.ndarray, bandwidth_hz: float,
               noise_band_w: float) -> np.ndarray:
    """Realized throughputs, one entry per user [bit/s]; batched like
    ``sinr_matrix``."""
    snr = sinr_matrix(alloc, power_w, gains_sq, noise_band_w)
    return shannon_rates(snr, availability, bandwidth_hz)


def elastic_reward(rate, threshold, beta: float):
    """Rate-elastic reward: the rate itself above the demand threshold,
    exponentially discounted below it, and exactly 0 at zero rate."""
    rate_arr = np.asarray(rate, dtype=float)
    thr = np.asarray(threshold, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        decay = np.exp(-beta * (thr - rate_arr) / rate_arr)
    decay = np.where(rate_arr > 0.0, decay, 0.0)
    out = np.where(rate_arr > thr, rate_arr, rate_arr * decay)
    if out.ndim == 0:
        return float(out)
    return out


def draw_rate_thresholds(config: ValidatedConfig, rng: RngStream) -> np.ndarray:
    """Per-user demand thresholds, uniform over the configured range."""
    lo, hi = config.rate_threshold_range_bps
    gen = derive_substream(rng, Domain.THRESHOLDS).generator()
    return gen.uniform(lo, hi, size=config.n_users)
