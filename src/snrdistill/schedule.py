"""The noise schedule.

A variance-preserving cosine schedule, alpha(t) = cos(pi t / 2),
sigma(t) = sin(pi t / 2) on t in [0, 1], used by the trainer, the distiller
and the DDIM sampler (see sampler.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ScheduleRangeError

Array = np.ndarray

_T_TOL = 1e-12


def check_unit_interval(t: Array, what: str) -> Array:
    """Float64 array `t` clipped to [0, 1]; ScheduleRangeError unless every
    value lies within _T_TOL of that interval."""
    # Written so that NaN, which fails every comparison, fails the test.
    # The array methods skip the Python dispatch of np.all and np.clip,
    # which cost more than the check on a small batch.
    if not ((t >= -_T_TOL) & (t <= 1.0 + _T_TOL)).all():
        raise ScheduleRangeError(
            f"{what} must lie in [0, 1], got range [{t.min()}, {t.max()}]"
        )
    return t.clip(0.0, 1.0)


@dataclass(frozen=True)
class CosineSchedule:
    """Signal/noise levels with alpha^2 + sigma^2 = 1 at every t.

    `t_min` is the clip applied when a signal-to-noise ratio is requested,
    keeping the sigma = 0 endpoint out of the division. It must lie in
    (0, 1) with snr(t_min) finite, which ScheduleRangeError enforces:
    below about 5e-155, sigma^2 underflows and the ratio overflows.
    """

    t_min: float = 1e-4

    def __post_init__(self):
        # Written so that NaN, which fails every comparison, fails the test.
        if not 0.0 < self.t_min < 1.0:
            raise ScheduleRangeError(f"t_min must lie in (0, 1), got {self.t_min}")
        with np.errstate(divide="ignore", over="ignore"):
            snr = self.snr(self.t_min)
        if not np.isfinite(snr):
            raise ScheduleRangeError(f"t_min = {self.t_min} gives snr(t_min) = {snr}")

    def alpha_sigma(self, t):
        """(alpha_t, sigma_t); accepts a scalar or an array of times."""
        scalar = np.ndim(t) == 0
        tc = check_unit_interval(np.asarray(t, dtype=np.float64), "t")
        alpha = np.cos(0.5 * np.pi * tc)
        sigma = np.sin(0.5 * np.pi * tc)
        # cos(pi/2) rounds to ~6e-17; pin the pure-noise endpoint exactly.
        alpha = np.where(tc == 1.0, 0.0, alpha)
        if scalar:
            return float(alpha), float(sigma)
        return alpha, sigma

    def snr(self, t):
        """alpha_t^2 / sigma_t^2 with t clipped to [t_min, 1]."""
        scalar = np.ndim(t) == 0
        tc = check_unit_interval(np.asarray(t, dtype=np.float64), "t")
        tc = np.clip(tc, self.t_min, 1.0)
        alpha, sigma = self.alpha_sigma(tc)
        out = np.square(alpha) / np.square(sigma)
        return float(out) if scalar else out

