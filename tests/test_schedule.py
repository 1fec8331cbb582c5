import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from snrdistill.errors import ScheduleRangeError
from snrdistill.schedule import CosineSchedule

SCHEDULE = CosineSchedule()


def test_endpoints_are_exact():
    assert SCHEDULE.alpha_sigma(0.0) == (1.0, 0.0)
    assert SCHEDULE.alpha_sigma(1.0) == (0.0, 1.0)


def test_midpoint_value():
    a, s = SCHEDULE.alpha_sigma(0.5)
    assert a == pytest.approx(0.7071068, abs=1e-7)
    assert s == pytest.approx(0.7071068, abs=1e-7)


def test_variance_preserving_identity_on_grid():
    t = np.linspace(0.0, 1.0, 1000)
    a, s = SCHEDULE.alpha_sigma(t)
    assert np.max(np.abs(a * a + s * s - 1.0)) < 1e-12


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_variance_preserving_identity_pointwise(t):
    a, s = SCHEDULE.alpha_sigma(t)
    assert abs(a * a + s * s - 1.0) < 1e-12


def test_alpha_decreasing_sigma_increasing():
    t = np.linspace(0.0, 1.0, 1000)
    a, s = SCHEDULE.alpha_sigma(t)
    assert np.all(np.diff(a) <= 0)
    assert np.all(np.diff(s) >= 0)


def test_out_of_range_rejected():
    with pytest.raises(ScheduleRangeError):
        SCHEDULE.alpha_sigma(-0.01)
    with pytest.raises(ScheduleRangeError):
        SCHEDULE.alpha_sigma(1.01)
    with pytest.raises(ScheduleRangeError):
        SCHEDULE.snr(np.array([0.5, 2.0]))


@pytest.mark.parametrize("t", [float("nan"), np.array([float("nan"), 0.5]), np.inf])
def test_non_finite_time_rejected(t):
    with pytest.raises(ScheduleRangeError):
        SCHEDULE.alpha_sigma(t)
    with pytest.raises(ScheduleRangeError):
        SCHEDULE.snr(t)


def test_snr_values():
    assert SCHEDULE.snr(0.5) == pytest.approx(1.0, abs=1e-12)
    assert SCHEDULE.snr(1.0) == 0.0
    # cot^2(pi/8), computed independently
    assert SCHEDULE.snr(0.25) == pytest.approx(1.0 / math.tan(math.pi / 8) ** 2, rel=1e-12)
    assert SCHEDULE.snr(0.25) == pytest.approx(5.8284271, abs=1e-7)


def test_snr_clips_small_t():
    assert SCHEDULE.snr(0.0) == SCHEDULE.snr(SCHEDULE.t_min)
    assert SCHEDULE.snr(SCHEDULE.t_min / 10) == SCHEDULE.snr(SCHEDULE.t_min)
    assert np.isfinite(SCHEDULE.snr(0.0))


def test_snr_monotone_non_increasing():
    t = np.linspace(SCHEDULE.t_min, 1.0, 1000)
    snr = SCHEDULE.snr(t)
    assert np.all(np.diff(snr) <= 0)


# Below about 5e-155, sigma(t_min)^2 underflows and snr(t_min) overflows.
@pytest.mark.parametrize("t_min", [0.0, -1e-4, 1.0, 2.0, float("nan"), float("inf"),
                                   1e-160, 1e-300])
def test_t_min_must_lie_in_the_open_unit_interval_with_a_finite_snr(t_min):
    with pytest.raises(ScheduleRangeError, match="t_min"):
        CosineSchedule(t_min=t_min)


@pytest.mark.parametrize("t_min", [1e-150, 1e-4, 0.5, 0.999])
def test_a_t_min_with_a_finite_snr_is_accepted(t_min):
    assert math.isfinite(CosineSchedule(t_min=t_min).snr(0.0))
