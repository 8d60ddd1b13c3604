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

import math
from dataclasses import dataclass

import numpy as np

from .system import Domain, RngStream, ValidatedConfig, derive_substream

# Deployment square side, in units of the reference distance.  Chosen so the
# default scenario sits in the mixed noise/interference regime where both
# power and band choices matter.
AREA_SIDE_FACTOR = 175.0
# The path-loss exponent and the mean direct-link gain over the mean
# cross-link gain [dB] that AREA_SIDE_FACTOR is calibrated for.
PATH_LOSS_EXPONENT = 3.0
DIRECT_GAIN_ADVANTAGE_DB = 3.0

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class ArCoefficients:
    """Fading recursion coefficients for a unit-power link.

    ``a1`` is the AR(1) tap; ``xi`` is the innovation scale that keeps a
    unit-variance process stationary (per link it is multiplied by the square
    root of that link's mean gain).
    """

    a1: float
    xi: float


def _j0(x: float) -> float:
    """Bessel function J0 of a real argument, to about 5e-16 absolute.

    Up to x = 25: the midpoint rule on J0(x) = (1/pi) int_0^pi cos(x sin t) dt
    with int(x) + 40 nodes, which converges exponentially for this periodic
    integrand once the node count passes x; J0(0) is exactly 1.  Beyond:
    the Hankel expansion sqrt(2/(pi x)) (P cos(x - pi/4) - Q sin(x - pi/4)),
    written on cos x and sin x so that no rounded x - pi/4 is formed.
    """
    x = abs(x)
    if x <= 25.0:
        nodes = int(x) + 40
        theta = (np.arange(nodes) + 0.5) * (math.pi / nodes)
        return math.fsum(np.cos(x * np.sin(theta))) / nodes
    # series[0] is P, series[1] is Q; term k is prod_{j<=k} (2j-1)^2 / (8 j x)
    # and enters with the signs + - - + + - - ... (k = 0, 1, 2, ...).
    series = [1.0, 0.0]
    term, k = 1.0, 0
    while term > 1e-18:
        k += 1
        term *= (2 * k - 1) ** 2 / (8.0 * k * x)
        series[k % 2] += term if k % 4 in (0, 3) else -term
    p, q = series
    return (math.sqrt(1.0 / (math.pi * x))
            * ((p + q) * math.cos(x) + (p - q) * math.sin(x)))


def ar_coefficients(doppler_coherence_product: float) -> ArCoefficients:
    """Clarke-model AR(1) tap a1 = J0(2*pi*fd*Tb) and its innovation scale."""
    if doppler_coherence_product < 0.0:
        raise ValueError("doppler_coherence_product must be >= 0")
    a1 = _j0(2.0 * math.pi * doppler_coherence_product)
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

    Pairs are dropped uniformly in a square of side AREA_SIDE_FACTOR, in
    units of the reference distance; the gain of the link between pair k's
    transmitter and pair i's receiver follows
    (1 / max(d_ik, 1))**PATH_LOSS_EXPONENT.  Only the ratio of distance to
    reference distance enters the gain, so the reference distance itself is
    not a parameter.  Direct links (the diagonal) are then set so their mean
    sits exactly DIRECT_GAIN_ADVANTAGE_DB above the mean cross-link gain.
    """
    n = config.n_users
    gen = derive_substream(rng, Domain.GEOMETRY).generator()
    points = gen.uniform(0.0, AREA_SIDE_FACTOR, size=(n, 2))
    delta = points[:, None, :] - points[None, :, :]
    dist = np.maximum(np.hypot(delta[..., 0], delta[..., 1]), 1.0)
    gain = (1.0 / dist) ** PATH_LOSS_EXPONENT
    if n > 1:
        off_diag = gain[~np.eye(n, dtype=bool)]
        advantage = 10.0 ** (DIRECT_GAIN_ADVANTAGE_DB / 10.0)
        np.fill_diagonal(gain, advantage * off_diag.mean())
    return gain


def _complex_normal(gen: np.random.Generator, scale: np.ndarray,
                    shape: tuple) -> np.ndarray:
    """``scale`` times CN(0, 1) draws of ``shape`` as float64 (re, im)
    pairs on a trailing axis; all real parts are drawn before all imaginary
    parts.  These real products are the ones complex arithmetic would
    form, so viewing the pairs as complex gives its result bit for bit."""
    out = np.empty(shape + (2,))
    for part in range(2):
        np.multiply(gen.standard_normal(shape), _INV_SQRT2, out=out[..., part])
    out *= scale[..., None]
    return out


def init_channels(config: ValidatedConfig, rng: RngStream) -> ChannelTensor:
    """Stationary draw of every link gain: CN(0, mean gain) per link and
    band, the law an AR(1) step preserves, so slot 0 sees it directly."""
    mean_gain = mean_gain_matrix(config, rng)
    shape = (config.n_users, config.n_users, config.n_bands)
    gen = derive_substream(rng, Domain.CHANNEL_INIT).generator()
    current = _complex_normal(gen, np.sqrt(mean_gain)[:, :, None], shape)
    return ChannelTensor(current=current.view(np.complex128)[..., 0],
                         mean_gain=mean_gain)


def step_channels(tensor: ChannelTensor, coeffs: ArCoefficients,
                  rng: RngStream) -> ChannelTensor:
    """Advance every link one slot (in place); engine-exclusive.  Runs in
    real arithmetic on the (re, im) pairs of the complex state."""
    gen = rng.generator()
    shape = tensor.current.shape
    new = coeffs.a1 * tensor.current.view(np.float64).reshape(shape + (2,))
    if coeffs.xi != 0.0:
        new += _complex_normal(gen, coeffs.xi * np.sqrt(tensor.mean_gain)[:, :, None],
                               shape)
    tensor.current = new.view(np.complex128)[..., 0]
    return tensor


def predict_channels(tensor: ChannelTensor, coeffs: ArCoefficients) -> np.ndarray:
    """One-step-ahead conditional mean of the gain tensor (no mutation)."""
    return coeffs.a1 * tensor.current
