"""Capped water-filling: spot solutions, optimality conditions, all routes."""

import numpy as np
import pytest

from dsapf.powerfill import water_fill_batch

from reference import WaterFillProblem, water_fill, water_fill_breakpoints


def solve(gains, p_total, caps):
    return water_fill(WaterFillProblem(np.asarray(gains, float), p_total,
                                       np.asarray(caps, float)))


def test_equal_gains_split_evenly():
    out = solve([1.0, 1.0], 2.0, [10.0, 10.0])
    assert np.allclose(out, [1.0, 1.0], atol=1e-9)


def test_weak_band_gets_nothing():
    # inverse gains 1 and 10: the level stops at 3, below the weak band
    out = solve([1.0, 0.1], 2.0, [5.0, 5.0])
    assert np.allclose(out, [2.0, 0.0], atol=1e-9)


def test_caps_bind():
    out = solve([1.0, 1.0], 3.0, [1.0, 1.0])
    assert np.allclose(out, [1.0, 1.0], atol=1e-12)


def test_partial_cap_spot_solution():
    # strong band saturates its cap, remainder spills into the weak band
    out = solve([10.0, 1.0], 1.5, [1.0, 5.0])
    assert np.allclose(out, [1.0, 0.5], atol=1e-9)


def test_degenerate_problems():
    assert solve([], 1.0, []).size == 0
    assert np.array_equal(solve([2.0], 0.0, [1.0]), [0.0])
    assert np.array_equal(solve([2.0], 3.0, [0.5]), [0.5])
    assert np.array_equal(solve([2.0], 0.3, [0.5]), [0.3])


def test_problem_validation():
    with pytest.raises(ValueError):
        WaterFillProblem(np.array([1.0, -1.0]), 1.0, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        WaterFillProblem(np.array([1.0]), -1.0, np.array([1.0]))
    with pytest.raises(ValueError):
        WaterFillProblem(np.array([[1.0]]), 1.0, np.array([[1.0]]))
    with pytest.raises(ValueError):
        WaterFillProblem(np.array([1.0, 2.0]), 1.0, np.array([1.0]))


def random_problem(rng):
    m = int(rng.integers(1, 9))
    gains = rng.lognormal(mean=0.0, sigma=1.5, size=m)
    caps = rng.uniform(0.05, 2.0, size=m)
    p_total = float(rng.uniform(0.01, 1.2 * caps.sum()))
    return gains, p_total, caps


def test_kkt_and_budget_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(100):
        gains, p_total, caps = random_problem(rng)
        out = solve(gains, p_total, caps)
        target = min(p_total, caps.sum())

        assert np.all(out >= -1e-12)
        assert np.all(out <= caps + 1e-9)
        assert out.sum() == pytest.approx(target, rel=1e-9, abs=1e-12)

        # optimality: one shared water level for interior bands, level below
        # 1/g for idle bands, above 1/g + cap for saturated ones
        inv_g = 1.0 / gains
        interior = (out > 1e-9) & (out < caps - 1e-9)
        tol = 1e-6 * max(1.0, inv_g.max())
        if interior.any():
            level = (inv_g + out)[interior]
            assert level.max() - level.min() <= tol
            mu = level.mean()
            assert np.all(inv_g[out <= 1e-9] >= mu - tol)
            assert np.all((inv_g + caps)[out >= caps - 1e-9] <= mu + tol)


def test_dominates_random_feasible_splits():
    # no feasible power split may beat water-filling on sum log(1 + P g)
    rng = np.random.default_rng(11)
    for _ in range(100):
        gains, p_total, caps = random_problem(rng)
        out = solve(gains, p_total, caps)
        best = np.log1p(out * gains).sum()
        target = min(p_total, caps.sum())
        for _ in range(40):
            raw = rng.dirichlet(np.ones(gains.size)) * target
            cand = np.minimum(raw, caps)
            assert np.log1p(cand * gains).sum() <= best + 1e-9


def test_batch_agrees_with_bisection_route():
    # the exact breakpoint solver and the bisection solver are independent
    # implementations; they must coincide on every random row
    rng = np.random.default_rng(13)
    rows, m = 60, 6
    gains = rng.lognormal(sigma=1.2, size=(rows, m))
    active = rng.random((rows, m)) < 0.7
    p_total = 0.8
    cap = 0.3
    batch = water_fill_batch(gains, active, p_total, cap)
    for r in range(rows):
        idx = np.flatnonzero(active[r])
        single = np.zeros(m)
        if idx.size:
            single[idx] = solve(gains[r, idx], p_total, np.full(idx.size, cap))
        assert np.allclose(batch[r], single, atol=1e-9)
        assert np.all(batch[r][~active[r]] == 0.0)


def test_batch_edge_rows():
    gains = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 0.5]])
    active = np.array([[False, False], [True, True], [True, False]])
    out = water_fill_batch(gains, active, 1.0, 10.0)
    assert np.array_equal(out[0], [0.0, 0.0])          # nothing active
    assert out[1].sum() == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(out[2], [1.0, 0.0])             # single active band
    # cap-limited row: budget exceeds the reachable total
    capped = water_fill_batch(np.array([[1.0, 1.0]]),
                              np.array([[True, True]]), 5.0, 0.4)
    assert np.allclose(capped, [[0.4, 0.4]])


def test_batch_keeps_budget_far_below_noise_floor():
    # 1/g of about 6e7 W against a 1 mW budget: the water level carries the
    # budget only to within the rounding of 1/g.  Found by the config
    # property test (noise at 0 dBm/Hz, two bands per user).
    gains = np.array([[6.671521120750739e-11, 1.6090792265804443e-08]])
    p_total, cap = 1e-3, 0.0019952623149688794
    out = water_fill_batch(gains, np.ones((1, 2), bool), p_total, cap)
    assert out.sum() <= p_total * (1.0 + 1e-9)
    assert out.sum() == pytest.approx(p_total, rel=1e-12)
    assert out[0, 0] == 0.0     # all power on the stronger band


def random_batch(rng):
    """Rows of one band count with ties, zero gains, idle rows and a row far
    below the noise floor, under a budget that is zero, the sum of k caps,
    or drawn."""
    m = int(rng.integers(1, 20))
    rows = int(rng.integers(1, 40))
    gains = rng.lognormal(sigma=3.0, size=(rows, m))
    gains[rng.random((rows, m)) < 0.1] = 0.0
    tie = rng.random((rows, m)) < 0.2
    gains[tie] = gains[tie.nonzero()[0], 0]
    gains[-1] = rng.uniform(1e-11, 1e-8, size=m)
    active = rng.random((rows, m)) < rng.uniform(0.3, 1.0)
    active[0] = False
    p_total = [0.0, float(rng.uniform(1e-3, 2.0))][int(rng.integers(2))]
    k = int(rng.integers(1, m + 1))
    cap = [p_total / k, float(rng.uniform(1e-3, 1.0))][int(rng.integers(2))]
    return gains, active, p_total, cap


def test_batch_matches_breakpoint_tensor_bit_for_bit():
    # binary lifting must land on the segment the full (rows, 2m, m)
    # breakpoint tensor picks, so every power agrees to the last bit
    rng = np.random.default_rng(19)
    for _ in range(500):
        args = random_batch(rng)
        assert (water_fill_batch(*args).tobytes()
                == water_fill_breakpoints(*args).tobytes())
