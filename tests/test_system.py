"""Configuration validation, unit conversions, and the substream contract."""

import math
import typing
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from dsapf.engine import run
from dsapf.system import (MAX_LINK_ENTRIES, MAX_PARTICLE_ENTRIES,
                          OBJECTIVE_NAMES, ConfigError, Domain, RngStream,
                          SystemConfig, dbm_to_watt, derive_substream,
                          validate, validate_allocation, validate_power)


def test_dbm_anchors():
    # 0 dBm is 1 mW by definition; 30 dBm is 1 W.
    assert dbm_to_watt(0.0) == pytest.approx(1e-3, rel=1e-15)
    assert dbm_to_watt(30.0) == pytest.approx(1.0, rel=1e-15)


def test_validate_defaults_and_derived_units():
    vcfg = validate(SystemConfig())
    assert vcfg.n_users == 200
    assert vcfg.objective == "sum"
    assert vcfg.p_total_max_w == pytest.approx(0.0019952623149688794, rel=1e-14)
    # -100 dBm/Hz over 1 MHz = -40 dBm per band = 1e-7 W
    assert vcfg.noise_band_w == pytest.approx(1e-7, rel=1e-12)
    # scenario fields pass through to the wrapper
    assert vcfg.base == SystemConfig()
    assert vcfg.seed == 0


@pytest.mark.parametrize("kwargs, field", [
    (dict(n_users=0), "n_users"),
    (dict(n_bands=0), "n_bands"),
    (dict(max_bands_per_user=0), "max_bands_per_user"),
    (dict(max_bands_per_user=4, n_bands=3), "max_bands_per_user"),
    (dict(n_particles=0), "n_particles"),
    (dict(bandwidth_hz=0.0), "bandwidth_hz"),
    (dict(p_total_max_dbm=float("inf")), "p_total_max_dbm"),
    (dict(p_band_max_dbm=float("nan")), "p_band_max_dbm"),
    (dict(noise_psd_dbm_hz=float("-inf")), "noise_psd_dbm_hz"),
    (dict(beta=-0.1), "beta"),
    (dict(rate_threshold_range_bps=(-1.0, 1.0)), "rate_threshold_range_bps"),
    (dict(rate_threshold_range_bps=(2.0, 1.0)), "rate_threshold_range_bps"),
    (dict(mutation_prob=1.5), "mutation_prob"),
    (dict(pu_busy_prob=-0.1), "pu_busy_prob"),
    (dict(bandwidth_hz=-1.0), "bandwidth_hz"),
    (dict(objective=""), "objective"),
    (dict(doppler_coherence_product=-0.1), "doppler_coherence_product"),
    (dict(pu_busy_prob=1.5), "pu_busy_prob"),
    (dict(objective="bogus"), "objective"),
    (dict(n_particles=2.0), "n_particles"),
    (dict(mutation_prob=-0.2), "mutation_prob"),
    (dict(n_slots=3.0), "n_slots"),
    (dict(n_slots=0), "n_slots"),
    (dict(seed=-1), "seed"),
    (dict(seed=2**64), "seed"),
    # non-finite and out-of-range floats
    (dict(bandwidth_hz=float("inf")), "bandwidth_hz"),
    (dict(bandwidth_hz=float("nan")), "bandwidth_hz"),
    (dict(beta=float("nan")), "beta"),
    (dict(beta=float("inf")), "beta"),
    (dict(doppler_coherence_product=float("nan")), "doppler_coherence_product"),
    (dict(doppler_coherence_product=float("inf")), "doppler_coherence_product"),
    (dict(mutation_prob=float("nan")), "mutation_prob"),
    (dict(pu_busy_prob=float("nan")), "pu_busy_prob"),
    (dict(p_total_max_dbm=float("nan")), "p_total_max_dbm"),
    (dict(rate_threshold_range_bps=(float("nan"), float("nan"))),
     "rate_threshold_range_bps"),
    (dict(rate_threshold_range_bps=(0.0, float("inf"))), "rate_threshold_range_bps"),
    (dict(noise_psd_dbm_hz=float("nan")), "noise_psd_dbm_hz"),
    (dict(mutation_prob=float("inf")), "mutation_prob"),
    # dBm levels whose linear value overflows or underflows
    (dict(p_total_max_dbm=4000.0), "p_total_max_dbm"),
    (dict(noise_psd_dbm_hz=-4000.0), "noise_psd_dbm_hz"),
    # booleans are not integers
    (dict(n_users=True), "n_users"),
    (dict(n_bands=True), "n_bands"),
    (dict(max_bands_per_user=True), "max_bands_per_user"),
    (dict(n_particles=True), "n_particles"),
    (dict(n_slots=True), "n_slots"),
    (dict(seed=False), "seed"),
    # values of the wrong type, or too large for a float
    (dict(beta=None), "beta"),
    (dict(pu_busy_prob="0.5"), "pu_busy_prob"),
    (dict(doppler_coherence_product="x"), "doppler_coherence_product"),
    (dict(beta=10**400), "beta"),
    (dict(rate_threshold_range_bps=(0, 10**400)), "rate_threshold_range_bps"),
    (dict(rate_threshold_range_bps=(1,)), "rate_threshold_range_bps"),
    (dict(rate_threshold_range_bps=None), "rate_threshold_range_bps"),
])
def test_validate_names_offending_field(kwargs, field):
    with pytest.raises(ConfigError, match=field):
        validate(SystemConfig(**kwargs))


def test_validate_caps_the_link_tensor_at_its_boundary():
    # validate allocates nothing, so sizes at and past the cap are safe here.
    assert MAX_LINK_ENTRIES == 5000 ** 2 * 2
    validate(SystemConfig(n_users=5000, n_bands=2))
    # One particle, so that the particle arrays stay within their own cap.
    validate(SystemConfig(n_users=1, n_bands=MAX_LINK_ENTRIES, n_particles=1))
    for n_users, n_bands in ((5001, 2), (1, MAX_LINK_ENTRIES + 1),
                             (100000, 15)):
        with pytest.raises(ConfigError, match=r"n_users\*\*2 \* n_bands"):
            validate(SystemConfig(n_users=n_users, n_bands=n_bands))


def test_validate_caps_the_particle_arrays_at_their_boundary():
    # validate allocates nothing, so sizes at and past the cap are safe here.
    # The water-fill works in bounded passes, so one cap holds whatever
    # max_bands_per_user is.
    assert MAX_PARTICLE_ENTRIES == 2 * 500 * 50_000
    messages = set()
    for ell in (1, 2):
        at_cap = dict(n_users=2, n_bands=500, max_bands_per_user=ell,
                      n_particles=50_000)
        validate(SystemConfig(**at_cap))
        for kwargs in (dict(at_cap, n_particles=50_001),
                       dict(max_bands_per_user=ell, n_particles=10**6)):
            with pytest.raises(ConfigError) as refused:
                validate(SystemConfig(**kwargs))
            messages.add(str(refused.value))
    assert messages == {"n_users * n_particles * n_bands must be <= 50,000,000 "
                        "(one agents x particles x bands array)"}


def test_wide_multiband_scenario_runs_finite():
    # Its 100 (agent, particle) rows of 2000 bands water-fill in four passes.
    cfg = validate(SystemConfig(n_users=10, n_bands=2000, max_bands_per_user=2,
                                n_particles=10, n_slots=2))
    summary, records = run(cfg)
    assert math.isfinite(summary.per_user_avg_throughput)
    assert math.isfinite(summary.avg_jain)
    assert all(np.isfinite(r.realized_rates).all() for r in records)


# Sizes stay small so each example runs in milliseconds.
_SIZE_LIMITS = dict(n_users=4, n_bands=3, max_bands_per_user=3, n_particles=4,
                    n_slots=3)


# Values of the wrong type for any field: None, a short string, an integer
# too large for a float or a size, and tuples of the wrong length.
_WRONG_VALUES = (st.none() | st.text(max_size=3) | st.integers(-2**70, 2**70)
                 | st.tuples() | st.tuples(st.floats())
                 | st.tuples(st.floats(), st.floats(), st.floats()))


def _any_value(name: str, hint):
    """Any value of a field's type: any float (NaN, infinities, subnormals,
    extremes), any small integer or a bool, any short string; or any value
    of the wrong type."""
    if name in _SIZE_LIMITS:
        typed = st.integers(-1, _SIZE_LIMITS[name]) | st.booleans()
    elif name == "seed":
        typed = st.integers(-1, 2**64) | st.booleans()
    elif hint is float:
        typed = st.floats()
    elif hint is str:
        typed = st.sampled_from(OBJECTIVE_NAMES) | st.text(max_size=3)
    else:
        typed = st.tuples(st.floats(), st.floats())
    return typed | _WRONG_VALUES


@st.composite
def _configs(draw):
    """Up to three fields take any value of their type; the others keep a
    valid value (a small size, or the default), so that a config breaking
    one field at a time can still reach the engine."""
    hints = typing.get_type_hints(SystemConfig)
    values = {name: draw(st.integers(1, top)) for name, top in _SIZE_LIMITS.items()}
    names = [f.name for f in fields(SystemConfig)]
    for name in sorted(draw(st.sets(st.sampled_from(names), max_size=3))):
        values[name] = draw(_any_value(name, hints[name]))
    return SystemConfig(**values)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_configs())
def test_every_config_is_rejected_or_runs_finite(cfg):
    try:
        vcfg = validate(cfg)
    except ConfigError:
        event("rejected")
        return
    event("ran")
    summary, records = run(vcfg)   # raises on any invariant violation
    assert math.isfinite(summary.per_user_avg_throughput)
    assert math.isfinite(summary.avg_jain)
    for r in records:
        assert np.isfinite(r.realized_rates).all()
        assert np.isfinite(r.realized_rewards).all()
        assert math.isfinite(r.jain)


def test_validate_boundary_values_accepted():
    validate(SystemConfig(seed=2**64 - 1))
    validate(SystemConfig(pu_busy_prob=1.0))
    validate(SystemConfig(mutation_prob=1.0))
    validate(SystemConfig(beta=0.0))
    validate(SystemConfig(doppler_coherence_product=0.0))


@pytest.mark.parametrize("extremes", [
    # loudest corner: top power over the quietest noise on the narrowest band
    dict(p_total_max_dbm=300.0, p_band_max_dbm=300.0, noise_psd_dbm_hz=-300.0,
         bandwidth_hz=1e-30, rate_threshold_range_bps=(0.0, 1.7e308)),
    # quietest corner: least power into the loudest noise over the widest band
    dict(p_total_max_dbm=-300.0, p_band_max_dbm=-300.0, noise_psd_dbm_hz=300.0,
         bandwidth_hz=1e30, beta=1e308,
         doppler_coherence_product=1e30),
])
def test_range_limits_are_accepted_and_run_finite(extremes):
    cfg = validate(SystemConfig(n_users=4, n_bands=3, max_bands_per_user=2,
                                n_particles=3, n_slots=2, **extremes))
    summary, _ = run(cfg)
    assert math.isfinite(summary.per_user_avg_throughput)
    assert math.isfinite(summary.avg_jain)


def test_objective_error_lists_valid_names():
    with pytest.raises(ConfigError, match="proportional_fair"):
        validate(SystemConfig(objective="fair"))


def test_domain_tags_are_pinned():
    # The tag values are part of the reproducibility contract; reordering
    # them would silently reseed every stream.  4 is retired and stays unused.
    expected = {"GEOMETRY": 1, "THRESHOLDS": 2, "CHANNEL_INIT": 3,
                "CHANNEL_STEP": 5, "AVAILABILITY": 6,
                "PARTICLE_INIT": 7, "PARTICLE_PREDICT": 8,
                "PARTICLE_RESAMPLE": 9}
    assert {d.name: int(d) for d in Domain} == expected


def test_stream_reproducibility():
    a = RngStream(42, (1, 2)).generator().random(8)
    b = RngStream(42, (1, 2)).generator().random(8)
    assert np.array_equal(a, b)


def test_derive_substream_paths():
    root = RngStream(7)
    assert derive_substream(root, Domain.GEOMETRY) == RngStream(7, (1,))
    assert derive_substream(root, (Domain.CHANNEL_STEP, 3)) == RngStream(7, (5, 3))
    nested = derive_substream(derive_substream(root, 4), 9)
    assert nested == RngStream(7, (4, 9))


def test_substreams_differ_and_decorrelate():
    root = RngStream(123)
    x = derive_substream(root, (8, 0)).generator().random(10_000)
    y = derive_substream(root, (8, 1)).generator().random(10_000)
    assert not np.array_equal(x, y)
    # 5-sigma bound on the empirical correlation of independent uniforms
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.05


def test_sibling_seeds_differ():
    x = RngStream(0, (1,)).generator().random(4)
    y = RngStream(1, (1,)).generator().random(4)
    assert not np.array_equal(x, y)


def test_validate_allocation_rules():
    avail = np.array([True, False, True])
    good = np.array([[True, False, False], [False, False, True]])
    validate_allocation(good, avail, 1)

    with pytest.raises(ValueError, match="boolean"):
        validate_allocation(good.astype(int), avail, 1)
    busy = np.array([[False, True, False], [False, False, False]])
    with pytest.raises(ValueError, match="licensed"):
        validate_allocation(busy, avail, 1)
    fat = np.array([[True, False, True], [False, False, False]])
    with pytest.raises(ValueError, match="max_bands_per_user"):
        validate_allocation(fat, avail, 1)


def test_validate_power_rules():
    alloc = np.array([[True, False], [False, True]])
    ok = np.array([[1.0, 0.0], [0.0, 2.0]])
    validate_power(ok, alloc, p_total_max_w=2.0, p_band_max_w=2.0)

    with pytest.raises(ValueError, match="negative"):
        validate_power(np.array([[-0.1, 0.0], [0.0, 1.0]]), alloc, 2.0, 2.0)
    with pytest.raises(ValueError, match="unselected"):
        validate_power(np.array([[1.0, 0.5], [0.0, 1.0]]), alloc, 2.0, 2.0)
    with pytest.raises(ValueError, match="cap"):
        validate_power(np.array([[2.5, 0.0], [0.0, 1.0]]), alloc, 4.0, 2.0)
    with pytest.raises(ValueError, match="budget"):
        validate_power(np.array([[2.0, 0.0], [0.0, 2.0]]),
                       np.ones((2, 2), dtype=bool), 1.5, 2.0)
    # the relative tolerance forgives bisection-level rounding
    validate_power(np.array([[2.0 * (1 + 5e-10), 0.0], [0.0, 1.0]]),
                   alloc, 3.0, 2.0)
