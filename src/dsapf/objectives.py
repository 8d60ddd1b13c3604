"""Objective functions an agent can score candidate allocations with."""

from __future__ import annotations

import enum

import numpy as np

# Uniform floor inside the proportional-fairness logarithm so zero rewards
# stay finite without reordering positive ones.
LOG_FLOOR = 1e-9


class ObjectiveKind(str, enum.Enum):
    INTRINSIC = "intrinsic"
    SUM = "sum"
    MAXMIN = "maxmin"
    PROPORTIONAL_FAIR = "proportional_fair"


OBJECTIVE_NAMES = tuple(k.value for k in ObjectiveKind)


def evaluate(kind, rewards: np.ndarray) -> float:
    """Score one joint reward vector under the given objective."""
    return float(evaluate_batch(kind, np.asarray(rewards, float)[None, :])[0])


def evaluate_batch(kind, rewards: np.ndarray) -> np.ndarray:
    """Score each row of a (candidates, users) joint reward matrix.

    ``intrinsic`` ranks one agent's own reward and has no joint form, so a
    joint vector scores under it as its sum.
    """
    kind = ObjectiveKind(kind)
    rewards = np.asarray(rewards, dtype=float)
    if kind in (ObjectiveKind.INTRINSIC, ObjectiveKind.SUM):
        return rewards.sum(axis=1)
    if kind is ObjectiveKind.MAXMIN:
        return rewards.min(axis=1)
    return np.log(rewards + LOG_FLOOR).sum(axis=1)
