"""Objective scoring: values, batch/loop agreement, ordering invariance."""

import math

import numpy as np
import pytest

from dsapf.objectives import LOG_FLOOR, ObjectiveKind, evaluate, evaluate_batch


def test_sum_and_maxmin_values():
    rewards = np.array([1.0, 2.0, 3.0])
    assert evaluate("sum", rewards) == pytest.approx(6.0, rel=1e-15)
    assert evaluate("maxmin", rewards) == pytest.approx(1.0, rel=1e-15)


def test_proportional_fair_value():
    rewards = np.array([1.0, math.e, math.e ** 2])
    # log(1) + log(e) + log(e^2) = 3, shifted imperceptibly by the floor
    assert evaluate("proportional_fair", rewards) == pytest.approx(
        3.000000001503215, rel=1e-12)


def test_proportional_fair_floor_keeps_zeros_finite():
    got = evaluate("proportional_fair", np.array([0.0, 1.0]))
    assert got == pytest.approx(-20.72326583594641, rel=1e-12)
    assert math.isfinite(got)


def test_intrinsic_scores_a_joint_vector_as_its_sum():
    rewards = np.random.default_rng(3).uniform(0.0, 10.0, size=(5, 4))
    assert np.array_equal(evaluate_batch("intrinsic", rewards),
                          evaluate_batch("sum", rewards))
    assert evaluate("intrinsic", rewards[0]) == evaluate("sum", rewards[0])


def test_batch_matches_scalar_loop():
    rng = np.random.default_rng(5)
    rewards = rng.uniform(0.0, 10.0, size=(6, 4))
    for kind in ObjectiveKind:
        batch = evaluate_batch(kind, rewards)
        loop = np.array([evaluate(kind, row) for row in rewards])
        assert np.allclose(batch, loop, rtol=1e-14)


def test_scaling_preserves_candidate_ranking():
    rng = np.random.default_rng(9)
    rewards = rng.uniform(0.1, 5.0, size=(8, 3))
    for kind in ObjectiveKind:
        before = np.argmax(evaluate_batch(kind, rewards))
        after = np.argmax(evaluate_batch(kind, 37.0 * rewards))
        assert before == after


def test_kind_round_trip_and_validation():
    assert ObjectiveKind("sum") is ObjectiveKind.SUM
    assert ObjectiveKind(ObjectiveKind.MAXMIN) is ObjectiveKind.MAXMIN
    with pytest.raises(ValueError):
        ObjectiveKind("fairness")
    assert 0.0 < LOG_FLOOR < 1e-6
