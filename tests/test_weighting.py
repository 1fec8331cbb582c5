import numpy as np
import pytest
from hypothesis import given, strategies as st

from snrdistill.schedule import CosineSchedule
from snrdistill.weighting import (
    STRATEGY_NAMES,
    WeightStrategy,
    strategy_from_name,
    weight,
)

BSA = strategy_from_name("bsa", gamma=5.0)
MIN_SNR = strategy_from_name("min-snr", gamma=5.0)
TRUNC = strategy_from_name("trunc-snr")
PLUS_ONE = strategy_from_name("snr-plus-one")
EPS = strategy_from_name("eps-snr")


def test_closed_form_spot_values():
    assert weight(BSA, 100.0) == 5.0
    assert weight(BSA, 0.0) == 1.0
    assert weight(BSA, 3.0) == 4.0
    assert weight(MIN_SNR, 0.0) == 0.0
    assert weight(TRUNC, 0.3) == 1.0
    assert weight(PLUS_ONE, 0.3) == 1.3
    assert weight(EPS, 0.3) == 0.3


def test_boundary_behavior_min_snr_vs_bsa():
    # the zero-weight failure of min-snr at snr = 0 vs the bsa floor of 1
    assert weight(MIN_SNR, 0.0) == 0.0
    assert weight(BSA, 0.0) == 1.0


@given(st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
def test_bsa_equals_min_snr_plus_one_capped(snr):
    assert weight(BSA, snr) == min(weight(MIN_SNR, snr) + 1.0, 5.0)


@given(st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=0.0, max_value=1e6))
def test_bsa_monotone_non_decreasing(a, b):
    lo, hi = sorted((a, b))
    assert weight(BSA, lo) <= weight(BSA, hi)


def test_bsa_constant_at_gamma_beyond_gamma_minus_one():
    for snr in (4.0, 4.5, 5.0, 50.0, 1e9):
        assert weight(BSA, snr) == 5.0


@given(st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
def test_all_strategies_finite_non_negative(snr):
    for name in STRATEGY_NAMES:
        w = weight(strategy_from_name(name), snr)
        assert np.isfinite(w) and w >= 0.0


@given(st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
def test_bsa_bounded_between_one_and_gamma(snr):
    w = weight(BSA, snr)
    assert 1.0 <= w <= BSA.cap


def test_vectorized_evaluation_matches_scalars():
    snr = np.array([0.0, 0.3, 1.0, 3.0, 4.0, 5.0, 100.0])
    for name in STRATEGY_NAMES:
        strat = strategy_from_name(name)
        vec = weight(strat, snr)
        np.testing.assert_array_equal(vec, [weight(strat, s) for s in snr])


def test_invalid_snr_rejected():
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            weight(BSA, bad)
    with pytest.raises(ValueError):
        weight(BSA, np.array([0.5, -1.0]))


def test_invalid_gamma_rejected():
    for name in STRATEGY_NAMES:
        for gamma in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="gamma"):
                strategy_from_name(name, gamma=gamma)


def test_strategy_names_round_trip():
    assert STRATEGY_NAMES == ("eps-snr", "trunc-snr", "snr-plus-one", "min-snr", "bsa")
    for name in STRATEGY_NAMES:
        assert strategy_from_name(name, gamma=7.0).name == name
    with pytest.raises(ValueError):
        strategy_from_name("nope")


def old_closed_form(name, snr, gamma):
    """The five weights as they were written before they became presets."""
    s = np.asarray(snr, dtype=np.float64)
    return {
        "eps-snr": lambda: s,
        "trunc-snr": lambda: np.maximum(s, 1.0),
        "snr-plus-one": lambda: 1.0 + s,
        "min-snr": lambda: np.minimum(s, gamma),
        "bsa": lambda: np.minimum(s + 1.0, gamma),
    }[name]()


def test_presets_are_the_family_points():
    assert [(s.offset, s.floor, s.cap) for s in map(strategy_from_name, STRATEGY_NAMES)] == [
        (0.0, 0.0, np.inf), (0.0, 1.0, np.inf), (1.0, 0.0, np.inf), (0.0, 0.0, 5.0),
        (1.0, 0.0, 5.0)]


@pytest.mark.parametrize("gamma", [5.0, 3.0, 1.5, 1e-3])
def test_presets_equal_the_closed_forms_bit_for_bit(gamma):
    schedule = CosineSchedule()
    rng = np.random.default_rng(0)
    snr = np.concatenate([
        [0.0, 5e-324, 1e-12, gamma - 1.0, gamma, 4.0, 5.0, 1e300],
        np.nextafter(gamma, [0.0, np.inf]),
        np.nextafter(gamma - 1.0, [-np.inf, np.inf]),
        schedule.snr(rng.uniform(schedule.t_min, 1.0, size=20000)),
        schedule.snr(np.linspace(0.0, 1.0, 4097)),
        schedule.snr(1.0 - np.logspace(-16, -1, 200)),
    ])
    snr = snr[snr >= 0.0]
    for name in STRATEGY_NAMES:
        new = weight(strategy_from_name(name, gamma), snr)
        assert np.array_equal(new, old_closed_form(name, snr, gamma)), name


@given(st.floats(min_value=0.0, max_value=1e308, allow_nan=False, allow_infinity=False),
       st.floats(min_value=1e-6, max_value=1e6))
def test_presets_equal_the_closed_forms_for_any_snr(snr, gamma):
    for name in STRATEGY_NAMES:
        assert weight(strategy_from_name(name, gamma), snr) == old_closed_form(name, snr, gamma)


def old_noise_space_weight(strategy, snr):
    """The noise-space weight before it moved into the family."""
    if strategy.name == "eps-snr":
        return np.ones_like(snr)
    return strategy.weight(snr) / np.maximum(snr, 1e-12)


@pytest.mark.parametrize("gamma", [5.0, 3.0, 1e-3])
def test_noise_weight_equals_the_old_ratio(gamma):
    schedule = CosineSchedule()
    rng = np.random.default_rng(1)
    snr = np.concatenate([
        [1e-12, gamma, 1e300], np.nextafter(gamma, [0.0, np.inf]),
        schedule.snr(rng.uniform(schedule.t_min, 1.0, size=20000)),
        schedule.snr(np.linspace(0.0, 1.0, 4097)), np.logspace(-12, 12, 2000),
    ])
    snr = snr[snr >= 1e-12]
    for name in ("eps-snr", "min-snr"):
        strategy = strategy_from_name(name, gamma)
        assert np.array_equal(strategy.noise_weight(snr), old_noise_space_weight(strategy, snr))


def test_noise_weight_is_one_at_and_near_zero_snr():
    tiny = np.array([0.0, 5e-324, 1e-300, 1e-13])
    np.testing.assert_array_equal(EPS.noise_weight(np.logspace(-300, 300, 61)), 1.0)
    np.testing.assert_array_equal(EPS.noise_weight(tiny), 1.0)
    # w / snr of min-snr is 1 for every snr up to gamma, so its limit at 0 is 1.
    np.testing.assert_array_equal(MIN_SNR.noise_weight(tiny), 1.0)
    assert MIN_SNR.noise_weight(1e-300) == 1.0
    assert MIN_SNR.noise_weight(50.0) == 0.1


@pytest.mark.parametrize("name", ["trunc-snr", "snr-plus-one", "bsa"])
def test_noise_weight_needs_zero_weight_at_zero_snr(name):
    with pytest.raises(ValueError, match="w\\(0\\) = 0"):
        strategy_from_name(name).noise_weight(np.array([1.0]))


@pytest.mark.parametrize("name, noise_ok, latent_ok", [
    ("eps-snr", True, False), ("trunc-snr", False, False), ("snr-plus-one", False, False),
    ("min-snr", True, True), ("bsa", False, True)])
def test_base_training_rules(name, noise_ok, latent_ok):
    strategy = strategy_from_name(name)
    for predicts_noise, ok in ((True, noise_ok), (False, latent_ok)):
        if ok:
            strategy.check_base_training(predicts_noise)
        else:
            with pytest.raises(ValueError):
                strategy.check_base_training(predicts_noise)


@pytest.mark.parametrize("offset, floor, cap", [
    (float("nan"), 0.0, 5.0), (0.0, float("nan"), 5.0), (0.0, 0.0, float("nan")),
    (-1.0, 0.0, 5.0), (0.0, -0.5, 5.0), (0.0, 2.0, 1.0), (0.0, 0.0, 0.0), (0.0, 0.0, -1.0),
    (float("inf"), 0.0, 5.0), (0.0, float("inf"), float("inf"))])
def test_invalid_points_rejected(offset, floor, cap):
    with pytest.raises(ValueError):
        WeightStrategy("custom", offset, floor, cap)


def test_valid_points_accepted():
    point = WeightStrategy("custom", 0.5, 2.0, 2.0)
    np.testing.assert_array_equal(point.weight(np.array([0.0, 1.0, 9.0])), 2.0)
    assert WeightStrategy("custom", 0.0, 0.0, np.inf).weight(7.0) == 7.0
