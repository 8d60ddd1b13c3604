"""Autoregressive Rayleigh fading over an interference network.

Each directed link (transmitter k -> receiver i) carries one complex gain
per band.  Gains evolve as a first-order autoregression

    h(t) = a1 * h(t-1) + xi * w(t),      w(t) ~ CN(0, 1) i.i.d.,

whose lag-one correlation a1 is the zeroth-order Bessel function of
2*pi*f_d*T_b and whose innovation scale keeps the stationary power at the
geometric mean gain of the link.  One-step prediction is the AR mean, i.e.
the deterministic part of the recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import j0

from .system import Domain, RngStream, ValidatedConfig, derive_substream

# Deployment square side, in units of the reference distance.  Chosen so the
# default scenario sits in the mixed noise/interference regime where both
# power and band choices matter.
AREA_SIDE_FACTOR = 175.0

# AR steps run after the stationary draw before slot 0 is observed.
BURN_IN_STEPS = 50


@dataclass(frozen=True)
class ArCoefficients:
    """Fading recursion coefficients for a unit-power link.

    ``a1`` is the AR(1) tap; ``xi`` is the innovation scale that keeps a
    unit-variance process stationary (per link it is multiplied by the square
    root of that link's mean gain).
    """

    a1: float
    xi: float


def ar_coefficients(doppler_coherence_product: float) -> ArCoefficients:
    """Clarke-model AR(1) tap a1 = J0(2*pi*fd*Tb) and its innovation scale."""
    if doppler_coherence_product < 0.0:
        raise ValueError("doppler_coherence_product must be >= 0")
    a1 = float(j0(2.0 * np.pi * doppler_coherence_product))
    xi = float(np.sqrt(max(0.0, 1.0 - a1 * a1)))
    return ArCoefficients(a1=a1, xi=xi)


@dataclass
class ChannelTensor:
    """Realized link gains of the most recent slot.

    ``current[i, k, j]`` is the complex gain from transmitter k to receiver i
    on band j; ``mean_gain[i, k]`` is the long-run power of that link.
    """

    current: np.ndarray
    mean_gain: np.ndarray


def mean_gain_matrix(config: ValidatedConfig, rng: RngStream) -> np.ndarray:
    """Average link power gains from random pair geometry.

    Pairs are dropped uniformly in a square of side AREA_SIDE_FACTOR times
    the reference distance; the gain of the link between pair k's transmitter
    and pair i's receiver follows (d0 / max(d_ik, d0))**eta.  Direct links
    (the diagonal) are then set so their mean sits exactly
    ``direct_gain_advantage_db`` above the mean cross-link gain.
    """
    n = config.n_users
    d0 = config.reference_distance_m
    gen = derive_substream(rng, Domain.GEOMETRY).generator()
    points = gen.uniform(0.0, AREA_SIDE_FACTOR * d0, size=(n, 2))
    delta = points[:, None, :] - points[None, :, :]
    dist = np.maximum(np.hypot(delta[..., 0], delta[..., 1]), d0)
    gain = (d0 / dist) ** config.path_loss_exponent
    if n > 1:
        off_diag = gain[~np.eye(n, dtype=bool)]
        advantage = 10.0 ** (config.direct_gain_advantage_db / 10.0)
        np.fill_diagonal(gain, advantage * off_diag.mean())
    return gain


def _complex_normal(gen: np.random.Generator, shape) -> np.ndarray:
    return (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2.0)


def init_channels(config: ValidatedConfig, rng: RngStream) -> ChannelTensor:
    """Stationary draw of every link gain, then a burn-in of AR steps."""
    coeffs = ar_coefficients(config.doppler_coherence_product)
    mean_gain = mean_gain_matrix(config, rng)
    shape = (config.n_users, config.n_users, config.n_bands)
    scale = np.sqrt(mean_gain)[:, :, None]
    gen = derive_substream(rng, Domain.CHANNEL_INIT).generator()
    tensor = ChannelTensor(current=scale * _complex_normal(gen, shape),
                           mean_gain=mean_gain)
    for k in range(BURN_IN_STEPS):
        step_channels(tensor, coeffs, derive_substream(rng, (Domain.CHANNEL_BURNIN, k)))
    return tensor


def step_channels(tensor: ChannelTensor, coeffs: ArCoefficients,
                  rng: RngStream) -> ChannelTensor:
    """Advance every link one slot (in place); engine-exclusive."""
    gen = rng.generator()
    new = coeffs.a1 * tensor.current
    if coeffs.xi != 0.0:
        new += (coeffs.xi * np.sqrt(tensor.mean_gain)[:, :, None]
                * _complex_normal(gen, new.shape))
    tensor.current = new
    return tensor


def predict_channels(tensor: ChannelTensor, coeffs: ArCoefficients) -> np.ndarray:
    """One-step-ahead conditional mean of the gain tensor (no mutation)."""
    return coeffs.a1 * tensor.current
