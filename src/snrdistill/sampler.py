"""Reverse-process samplers on the continuous cosine schedule.

One generalised DDIM step (Song et al., arXiv:2010.02502, eq. 12) with noise
scale eta, and the conversion between noise- and latent-prediction
parameterizations. eta = 0 is deterministic DDIM; eta = 1 is ancestral
sampling, whose added noise has the variance of the forward posterior
q(z_s | z_t, x). The step grid is uniform: starting from pure noise at t = 1,
each step moves t -> t - 1/N until t = 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import SingularTimeError
from .nnet import DenoiserModel, Parameterization, class_ids
from .schedule import CosineSchedule

Array = np.ndarray

ALPHA_FLOOR = 1e-6
SIGMA_FLOOR = 1e-12


class SamplerKind(enum.Enum):
    """The DDIM noise scale eta: 0 for DDIM, 1 for ancestral sampling."""

    DDIM = "ddim"
    ANCESTRAL = "ancestral"

    @property
    def eta(self) -> float:
        return 1.0 if self is SamplerKind.ANCESTRAL else 0.0


@dataclass(frozen=True)
class SamplerConfig:
    steps: int
    kind: SamplerKind = SamplerKind.DDIM
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


def _col(x) -> Array | float:
    """Broadcast a per-sample coefficient against (batch, dim) latents."""
    x = np.asarray(x, dtype=np.float64)
    return x[:, None] if x.ndim == 1 else float(x)


def eps_to_x(z_t, eps_pred, alpha_t, sigma_t):
    """Invert z_t = alpha x + sigma eps for x, given a noise prediction."""
    a = np.asarray(alpha_t, dtype=np.float64)
    if np.any(a <= ALPHA_FLOOR):
        raise SingularTimeError(
            f"alpha_t={a.min() if a.ndim else float(a)} is at or below the "
            f"{ALPHA_FLOOR} floor; clip t away from 1 before converting"
        )
    return (np.asarray(z_t, dtype=np.float64) - _col(sigma_t) * eps_pred) / _col(a)


def x_to_eps(z_t, x_hat, alpha_t, sigma_t):
    """The opposite conversion; requires sigma_t away from the t = 0 endpoint."""
    s = np.asarray(sigma_t, dtype=np.float64)
    if np.any(s <= SIGMA_FLOOR):
        raise SingularTimeError(
            f"sigma_t={s.min() if s.ndim else float(s)} is at or below the "
            f"{SIGMA_FLOOR} floor; clip t away from 0 before converting"
        )
    return (np.asarray(z_t, dtype=np.float64) - _col(alpha_t) * x_hat) / _col(s)


def ddim_step(z_t, x_hat, t, s, schedule: CosineSchedule, eta: float = 0.0,
              rng: np.random.Generator | None = None):
    """One DDIM step from t to s <= t with noise scale eta in [0, 1].

    z_s = alpha_s x_hat + sqrt(sigma_s^2 - sigma_eta^2) eps_pred + sigma_eta xi,
    with sigma_eta^2 = eta^2 (sigma_s^2 / sigma_t^2)(1 - alpha_t^2 / alpha_s^2),
    eps_pred = x_to_eps(z_t, x_hat, alpha_t, sigma_t) and xi ~ N(0, I) drawn
    from `rng`. At eta = 0 it draws nothing and is computed as
    z_s = alpha_s x_hat + (sigma_s / sigma_t)(z_t - alpha_t x_hat).

    `t` and `s` may be scalars or per-sample arrays with s <= t. At eta = 0
    only sigma_t appears in a denominator, so stepping into s = 0 is exact;
    eta > 0 also divides by alpha_s, so it needs s < 1.
    """
    t = np.asarray(t, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if np.any(s > t + 1e-12):
        raise ValueError(f"ddim_step needs s <= t, got s={s}, t={t}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    a_t, s_t = schedule.alpha_sigma(t)
    a_s, s_s = schedule.alpha_sigma(s)
    if np.any(np.asarray(s_t) <= SIGMA_FLOOR):
        raise SingularTimeError(f"sigma_t = 0 at t={t}; cannot step from the clean endpoint")
    z_t = np.asarray(z_t, dtype=np.float64)
    if eta == 0.0:
        return _col(a_s) * x_hat + _col(np.asarray(s_s) / np.asarray(s_t)) * (
            z_t - _col(a_t) * x_hat
        )
    if np.any(np.asarray(a_s) <= ALPHA_FLOOR):
        raise SingularTimeError(f"alpha_s = 0 at s={s}; a stochastic step needs s < 1")
    var_eta = eta**2 * (s_s**2 / s_t**2) * (1.0 - a_t**2 / a_s**2)
    eps_pred = x_to_eps(z_t, x_hat, a_t, s_t)
    return (_col(a_s) * x_hat + _col(np.sqrt(np.maximum(s_s**2 - var_eta, 0.0))) * eps_pred
            + _col(np.sqrt(var_eta)) * rng.standard_normal(z_t.shape))


def predict_x(model: DenoiserModel, z, t, cond, schedule: CosineSchedule,
              max_query_t: float | None = None) -> Array:
    """Query the model for a clean-latent prediction at time t.

    Latent-prediction models are queried directly. Noise-prediction models
    are converted via eps_to_x; the conversion is singular at t = 1, so
    callers that own a step grid pass `max_query_t` (typically 1 - 0.5/N) and
    the query time is clipped to it for the conversion.
    """
    if model.parameterization is Parameterization.X:
        return model.forward(z, t, cond)
    tq = np.asarray(t, dtype=np.float64)
    if max_query_t is not None:
        tq = np.minimum(tq, max_query_t)
    alpha, sigma = schedule.alpha_sigma(tq)
    eps_pred = model.forward(z, tq, cond)
    return eps_to_x(z, eps_pred, alpha, sigma)


def sample(model: DenoiserModel, conditions, config: SamplerConfig,
           schedule: CosineSchedule) -> Array:
    """Run the full reverse process from z ~ N(0, I); returns (n, latent_dim).

    `conditions` is an int (one latent) or an int array (one latent each);
    a fractional or NaN id raises ValueError before any step runs.
    Deterministic given `config.seed`: DDIM consumes one normal draw for the
    start point, ancestral sampling then one more for each step's noise.
    """
    conditions = np.atleast_1d(class_ids(conditions))
    rng = np.random.default_rng(config.seed)
    z = rng.standard_normal((conditions.shape[0], model.latent_dim))
    n = config.steps
    max_query_t = 1.0 - 0.5 / n
    for i in range(n, 0, -1):
        t = i / n
        s = (i - 1) / n
        x_hat = predict_x(model, z, t, conditions, schedule, max_query_t=max_query_t)
        z = ddim_step(z, x_hat, t, s, schedule, eta=config.kind.eta, rng=rng)
    return z
