"""Noise schedules.

Continuous side: a variance-preserving cosine schedule, alpha(t) = cos(pi t / 2),
sigma(t) = sin(pi t / 2) on t in [0, 1], used by the trainer, the distiller and
the deterministic sampler. Discrete side: the classic linear-beta table with
cumulative products and posterior variances, used by the ancestral sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ScheduleRangeError

Array = np.ndarray

_T_TOL = 1e-12


def _check_unit_interval(t: Array, what: str) -> Array:
    # Written so that NaN, which fails every comparison, fails the test.
    if not np.all((t >= -_T_TOL) & (t <= 1.0 + _T_TOL)):
        raise ScheduleRangeError(
            f"{what} must lie in [0, 1], got range [{t.min()}, {t.max()}]"
        )
    return np.clip(t, 0.0, 1.0)


@dataclass(frozen=True)
class CosineSchedule:
    """Signal/noise levels with alpha^2 + sigma^2 = 1 at every t.

    `t_min` is the clip applied when a signal-to-noise ratio is requested,
    keeping the sigma = 0 endpoint out of the division.
    """

    t_min: float = 1e-4

    kind = "cosine"

    def alpha_sigma(self, t):
        """(alpha_t, sigma_t); accepts a scalar or an array of times."""
        scalar = np.ndim(t) == 0
        tc = _check_unit_interval(np.asarray(t, dtype=np.float64), "t")
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
        tc = _check_unit_interval(np.asarray(t, dtype=np.float64), "t")
        tc = np.clip(tc, self.t_min, 1.0)
        alpha, sigma = self.alpha_sigma(tc)
        out = np.square(alpha) / np.square(sigma)
        return float(out) if scalar else out


@dataclass(frozen=True)
class DiscreteSchedule:
    """Per-step variance table: beta_n, alpha_bar_n, and posterior beta_tilde_n.

    Arrays are indexed 0..N-1 for steps 1..N; alpha_bar_0 = 1 by convention,
    which makes beta_tilde at the first step exactly zero.
    """

    n_train: int
    beta: Array
    alpha_bar: Array
    beta_tilde: Array


def build_discrete(n_train: int, beta_start: float = 1e-4, beta_end: float = 2e-2) -> DiscreteSchedule:
    """Linear beta interpolation with the usual cumulative-product bookkeeping."""
    if n_train < 1:
        raise ValueError(f"n_train must be >= 1, got {n_train}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError(
            f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})"
        )
    beta = np.linspace(beta_start, beta_end, n_train)
    alpha_bar = np.cumprod(1.0 - beta)
    alpha_bar_prev = np.concatenate(([1.0], alpha_bar[:-1]))
    beta_tilde = (1.0 - alpha_bar_prev) / (1.0 - alpha_bar) * beta
    return DiscreteSchedule(
        n_train=n_train, beta=beta, alpha_bar=alpha_bar, beta_tilde=beta_tilde
    )
