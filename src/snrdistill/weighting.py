"""Loss weights as functions of the signal-to-noise ratio.

Every weighting is a point (offset, floor, cap) of one family,

  w(snr) = clip(snr + offset, floor, cap),

a weight on the squared error of the clean-latent prediction. The five
named strategies are presets of it, with gamma as the cap of the capped ones:

  name          offset  floor  cap
  eps-snr       0       0      inf    plain noise-prediction MSE
  trunc-snr     0       1      inf    Salimans & Ho, arXiv:2202.00512
  snr-plus-one  1       0      inf    Salimans & Ho, arXiv:2202.00512
  min-snr       0       0      gamma  Hang et al., arXiv:2303.09556
  bsa           1       0      gamma

The bsa form stays in [1, gamma]: capped at high snr like min-snr, but never
dropping to zero weight at snr = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# (offset, floor, cap); a cap of None is gamma.
PRESETS = {
    "eps-snr": (0.0, 0.0, math.inf),
    "trunc-snr": (0.0, 1.0, math.inf),
    "snr-plus-one": (1.0, 0.0, math.inf),
    "min-snr": (0.0, 0.0, None),
    "bsa": (1.0, 0.0, None),
}
STRATEGY_NAMES = tuple(PRESETS)


@dataclass(frozen=True)
class WeightStrategy:
    """A named point of the family w = clip(snr + offset, floor, cap)."""

    name: str
    offset: float = 0.0
    floor: float = 0.0
    cap: float = math.inf

    def __post_init__(self):
        # Written so that NaN, which fails every comparison, fails the test.
        if not (0.0 <= self.offset < math.inf and 0.0 <= self.floor < math.inf
                and self.floor <= self.cap and self.cap > 0.0):
            raise ValueError(f"need finite offset and floor >= 0, floor <= cap and cap > 0, "
                             f"got ({self.offset}, {self.floor}, {self.cap})")

    def weight(self, snr):
        return weight(self, snr)

    def check_base_training(self, predicts_noise: bool) -> None:
        """ValueError unless base training's loss weight stays bounded.

        A noise-predicting model trains on `noise_weight`, w / snr, which is
        bounded as snr -> 0 only if w(0) = 0, that is offset = floor = 0. A
        clean-latent-predicting model trains on w itself, which reaches the
        snr of the schedule's t_min (about 4e8 at t_min = 1e-4) unless the
        cap is finite.
        """
        if predicts_noise and (self.offset > 0.0 or self.floor > 0.0):
            raise ValueError(f"{self.name} has w(0) = {self.weight(0.0)}, so w / snr is "
                             f"unbounded; noise prediction needs w(0) = 0")
        if not predicts_noise and self.cap == math.inf:
            raise ValueError(f"{self.name} has no cap; clean-latent prediction needs a finite cap")

    def noise_weight(self, snr):
        """The weight on |eps - eps_pred|^2 equal to w(snr) on |x - x_pred|^2.

        Since |eps - eps_pred|^2 = snr |x - x_pred|^2, it is w / snr, which
        for the points allowed under noise prediction is min(1, cap / snr):
        exactly 1 up to the cap, and 1 in the limit snr -> 0.
        """
        self.check_base_training(predicts_noise=True)
        with np.errstate(divide="ignore", over="ignore"):
            return np.minimum(1.0, self.cap / _checked_snr(snr))


def _checked_snr(snr) -> np.ndarray:
    s = np.asarray(snr, dtype=np.float64)
    # Written so that NaN, which fails every comparison, fails the test.
    if not ((s >= 0.0).all() and (s < math.inf).all()):
        raise ValueError(f"snr must be finite and >= 0, got {snr}")
    return s


def weight(strategy: WeightStrategy, snr):
    """clip(snr + offset, floor, cap); scalar or array snr."""
    out = np.clip(_checked_snr(snr) + strategy.offset, strategy.floor, strategy.cap)
    return float(out) if np.ndim(snr) == 0 else out


def strategy_from_name(name: str, gamma: float = 5.0) -> WeightStrategy:
    """The preset called `name`, with `gamma` as its cap where the cap is gamma."""
    if name not in PRESETS:
        raise ValueError(f"unknown weight strategy {name!r}; choose from {STRATEGY_NAMES}")
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be a positive real, got {gamma}")
    offset, floor, cap = PRESETS[name]
    return WeightStrategy(name, offset, floor, gamma if cap is None else cap)
