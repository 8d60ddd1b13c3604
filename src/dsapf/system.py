"""Scenario configuration, validation, unit conversions, and the
deterministic random-substream contract shared by every other module."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .objectives import OBJECTIVE_NAMES


class ConfigError(ValueError):
    """A scenario parameter violates its documented range."""


def dbm_to_watt(dbm: float) -> float:
    """Convert a dBm power level to linear watts."""
    return 10.0 ** (dbm / 10.0) * 1e-3


@dataclass(frozen=True)
class SystemConfig:
    """Full description of one simulated scenario.

    Power-like quantities are configured in dBm (per-Hz for the noise
    density) and converted to linear watts exactly once, by ``validate``.
    """

    n_users: int = 200              # transmitter-receiver pairs contending for spectrum
    n_bands: int = 15               # licensed bands
    max_bands_per_user: int = 1     # bands a user may occupy simultaneously
    n_particles: int = 10           # particles per agent filter
    bandwidth_hz: float = 1e6       # bandwidth of each band [Hz]
    p_total_max_dbm: float = 3.0    # per-user total transmit power budget [dBm]
    p_band_max_dbm: float = 3.0     # per-band transmit power cap [dBm]
    noise_psd_dbm_hz: float = -100.0  # noise power spectral density [dBm/Hz]
    beta: float = 0.5               # reward decay below the rate threshold
    rate_threshold_range_bps: tuple[float, float] = (0.0, 1e4)  # per-user demand draw
    doppler_coherence_product: float = 0.05  # doppler frequency x slot duration
    pu_busy_prob: float = 0.0       # per-band chance the licensed owner is active
    objective: str = "sum"          # intrinsic | sum | maxmin | proportional_fair
    mutation_prob: float = 0.2      # per-band particle mutation probability
    n_slots: int = 20               # simulated time slots
    seed: int = 0                   # root seed; one seed == one trajectory


@dataclass(frozen=True)
class ValidatedConfig:
    """A checked ``SystemConfig`` plus cached linear-unit derivations.

    Scenario fields are reachable directly (``vcfg.n_users``); derived
    quantities are stored once so hot loops never re-convert units.
    """

    base: SystemConfig
    p_total_max_w: float
    p_band_max_w: float
    noise_band_w: float

    def __getattr__(self, name: str):
        return getattr(object.__getattribute__(self, "base"), name)


# dBm levels stay within +-MAX_LEVEL_DB and magnitudes (bandwidth,
# doppler product) within MAX_MAGNITUDE of their unit, so every
# linear power, gain and bandwidth lies in [1e-30, 1e30] and no product of
# them formed during a run can overflow or underflow float64.
MAX_LEVEL_DB = 300.0
MAX_MAGNITUDE = 1e30

# Cap on n_users**2 * n_bands, the entries of one (receiver, transmitter,
# band) link tensor.  A slot keeps about seven float64 arrays of that size
# alive at once: the complex fading state (two), the two noise planes of
# its AR(1) step, gains_sq, predicted_sq and decide's buffer, so 56 bytes
# per entry.  At the cap that is 2.8 GB, which a workstation holds; the
# default 200-user, 15-band scenario sits 83 times below it.  Beyond it the
# first allocations fail with a MemoryError instead of a named field.
MAX_LINK_ENTRIES = 50_000_000


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def validate(config: SystemConfig) -> ValidatedConfig:
    """Check every invariant and cache the linear-unit conversions.

    Raises ``ConfigError`` naming the first offending field.  NaN fails
    every check, and so does an infinite float.
    """

    c = config

    def fail(msg: str) -> None:
        raise ConfigError(msg)

    def within(name: str, low: float, high: float) -> None:
        if not low <= getattr(c, name) <= high:
            fail(f"{name} must be in [{low:g}, {high:g}]")

    if not _is_int(c.n_users) or c.n_users < 1:
        fail("n_users must be an integer >= 1")
    if not _is_int(c.n_bands) or c.n_bands < 1:
        fail("n_bands must be an integer >= 1")
    if c.n_users ** 2 * c.n_bands > MAX_LINK_ENTRIES:
        fail(f"n_users**2 * n_bands must be <= {MAX_LINK_ENTRIES:,} "
             "(one n_users x n_users x n_bands link tensor)")
    if not _is_int(c.max_bands_per_user) or c.max_bands_per_user < 1:
        fail("max_bands_per_user must be an integer >= 1")
    if c.max_bands_per_user > c.n_bands:
        fail("max_bands_per_user exceeds n_bands")
    if not _is_int(c.n_particles) or c.n_particles < 1:
        fail("n_particles must be an integer >= 1")
    within("bandwidth_hz", 1.0 / MAX_MAGNITUDE, MAX_MAGNITUDE)
    within("p_total_max_dbm", -MAX_LEVEL_DB, MAX_LEVEL_DB)
    within("p_band_max_dbm", -MAX_LEVEL_DB, MAX_LEVEL_DB)
    within("noise_psd_dbm_hz", -MAX_LEVEL_DB, MAX_LEVEL_DB)
    if not (c.beta >= 0.0 and math.isfinite(c.beta)):
        fail("beta must be finite and >= 0")
    lo, hi = c.rate_threshold_range_bps
    if not (0.0 <= lo <= hi and math.isfinite(hi)):
        fail("rate_threshold_range_bps must satisfy 0 <= low <= high < inf")
    within("doppler_coherence_product", 0.0, MAX_MAGNITUDE)
    within("pu_busy_prob", 0.0, 1.0)
    if c.objective not in OBJECTIVE_NAMES:
        fail("objective must be one of " + ", ".join(OBJECTIVE_NAMES))
    within("mutation_prob", 0.0, 1.0)
    if not _is_int(c.n_slots) or c.n_slots < 1:
        fail("n_slots must be an integer >= 1")
    if not _is_int(c.seed) or not 0 <= c.seed < 2**64:
        fail("seed must be an integer in [0, 2**64)")

    return ValidatedConfig(
        base=c,
        p_total_max_w=dbm_to_watt(c.p_total_max_dbm),
        p_band_max_w=dbm_to_watt(c.p_band_max_dbm),
        noise_band_w=dbm_to_watt(c.noise_psd_dbm_hz) * c.bandwidth_hz,
    )


# ---------------------------------------------------------------------------
# Deterministic substreams
# ---------------------------------------------------------------------------

class Domain(enum.IntEnum):
    """Namespace tags keeping every draw site on its own substream.

    Tag 4 is retired and stays unused, so that every other tag keeps its
    value and its streams.
    """

    GEOMETRY = 1
    THRESHOLDS = 2
    CHANNEL_INIT = 3
    CHANNEL_STEP = 5
    AVAILABILITY = 6
    PARTICLE_INIT = 7
    PARTICLE_PREDICT = 8
    PARTICLE_RESAMPLE = 9


@dataclass(frozen=True)
class RngStream:
    """Seeded, splittable random stream.

    A stream is identified by the root seed plus a tuple of integer tags;
    equal (seed, path) pairs always reproduce identical draws, and distinct
    paths are statistically independent.  Backed by the counter-based
    Philox generator.
    """

    seed: int
    path: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))


def derive_substream(stream: RngStream, tag) -> RngStream:
    """Child stream of ``stream`` for the given tag (ints or int-enums)."""
    if isinstance(tag, (int, np.integer, enum.IntEnum)):
        tag = (tag,)
    return RngStream(stream.seed, stream.path + tuple(int(t) for t in tag))


# ---------------------------------------------------------------------------
# Allocation / power invariants
# ---------------------------------------------------------------------------

def validate_allocation(alloc: np.ndarray, availability: np.ndarray,
                        max_bands_per_user: int) -> None:
    """Raise if any user occupies a busy band or exceeds its band budget."""
    if alloc.dtype != bool:
        raise ValueError("allocation matrix must be boolean")
    if np.any(alloc & ~availability[None, :]):
        raise ValueError("allocation uses a band the licensed owner occupies")
    if np.any(alloc.sum(axis=1) > max_bands_per_user):
        raise ValueError("allocation exceeds max_bands_per_user")


# Relative slack on power budgets and caps that solver rounding may use.
BUDGET_RTOL = 1e-9


def validate_power(power_w: np.ndarray, alloc: np.ndarray, p_total_max_w: float,
                   p_band_max_w: float) -> None:
    """Raise if powers are negative, off-allocation, or over budget/cap."""
    if np.any(power_w < 0.0):
        raise ValueError("negative transmit power")
    if np.any((power_w > 0.0) & ~alloc):
        raise ValueError("transmit power on an unselected band")
    if np.any(power_w > p_band_max_w * (1.0 + BUDGET_RTOL)):
        raise ValueError("per-band power cap exceeded")
    if np.any(power_w.sum(axis=1) > p_total_max_w * (1.0 + BUDGET_RTOL)):
        raise ValueError("total power budget exceeded")
