"""Distributed multiband spectrum and power sharing simulator.

Agents pick transmission bands with per-agent particle filters, split their
power budgets by capped water-filling, and a slot-level engine scores
throughput, fairness, and signaling overhead on seeded, fully reproducible
trajectories.
"""

from .channel import ArCoefficients, ChannelTensor, ar_coefficients
from .engine import (ReplicateResult, RunSummary, SlotRecord, jain_index,
                     replicate, run)
from .objectives import ObjectiveKind, evaluate
from .oracle import InstanceTooLargeError, TinyInstance, solve_exhaustive
from .pfilter import (DecideResult, NeighborView, ParticleSet, decide,
                      effective_sample_size, init_particles, predict,
                      systematic_resample, update_weights)
from .powerfill import WaterFillProblem, water_fill
from .system import (ConfigError, RngStream, SystemConfig, ValidatedConfig,
                     dbm_to_watt, derive_substream, validate, watt_to_dbm)

__version__ = "0.1.0"

__all__ = [
    "ArCoefficients", "ChannelTensor", "ConfigError", "DecideResult",
    "InstanceTooLargeError", "NeighborView", "ObjectiveKind", "ParticleSet",
    "ReplicateResult", "RngStream", "RunSummary", "SlotRecord", "SystemConfig",
    "TinyInstance", "ValidatedConfig", "WaterFillProblem",
    "ar_coefficients", "dbm_to_watt", "decide", "derive_substream",
    "effective_sample_size", "evaluate", "init_particles", "jain_index",
    "predict", "replicate", "run", "solve_exhaustive", "systematic_resample",
    "update_weights", "validate", "water_fill", "watt_to_dbm",
]
