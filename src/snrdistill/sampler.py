"""Reverse-process samplers.

Deterministic DDIM steps on the continuous cosine schedule, the conversion
between noise- and latent-prediction parameterizations, and the stochastic
ancestral sampler driven by a discrete beta table. The DDIM grid is uniform:
starting from pure noise at t = 1, each step moves t -> t - 1/N until t = 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import SingularTimeError
from .nnet import DenoiserModel, Parameterization, class_ids
from .schedule import CosineSchedule, DiscreteSchedule, build_discrete

Array = np.ndarray

ALPHA_FLOOR = 1e-6
SIGMA_FLOOR = 1e-12


class SamplerKind(enum.Enum):
    DDIM = "ddim"
    ANCESTRAL = "ancestral"


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


def eps_to_x(z_t, eps_hat, alpha_t, sigma_t):
    """Invert z_t = alpha x + sigma eps for x, given a noise prediction."""
    a = np.asarray(alpha_t, dtype=np.float64)
    if np.any(a <= ALPHA_FLOOR):
        raise SingularTimeError(
            f"alpha_t={a.min() if a.ndim else float(a)} is at or below the "
            f"{ALPHA_FLOOR} floor; clip t away from 1 before converting"
        )
    return (np.asarray(z_t, dtype=np.float64) - _col(sigma_t) * eps_hat) / _col(a)


def x_to_eps(z_t, x_hat, alpha_t, sigma_t):
    """The opposite conversion; requires sigma_t away from the t = 0 endpoint."""
    s = np.asarray(sigma_t, dtype=np.float64)
    if np.any(s <= SIGMA_FLOOR):
        raise SingularTimeError(
            f"sigma_t={s.min() if s.ndim else float(s)} is at or below the "
            f"{SIGMA_FLOOR} floor; clip t away from 0 before converting"
        )
    return (np.asarray(z_t, dtype=np.float64) - _col(alpha_t) * x_hat) / _col(s)


def ddim_step(z_t, x_hat, t, s, schedule: CosineSchedule):
    """Deterministic update z_s = alpha_s x_hat + (sigma_s / sigma_t)(z_t - alpha_t x_hat).

    `t` and `s` may be scalars or per-sample arrays with s <= t; only
    sigma_t appears in a denominator, so stepping into s = 0 is exact.
    """
    t = np.asarray(t, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if np.any(s > t + 1e-12):
        raise ValueError(f"ddim_step needs s <= t, got s={s}, t={t}")
    a_t, s_t = schedule.alpha_sigma(t)
    a_s, s_s = schedule.alpha_sigma(s)
    if np.any(np.asarray(s_t) <= SIGMA_FLOOR):
        raise SingularTimeError(f"sigma_t = 0 at t={t}; cannot step from the clean endpoint")
    return _col(a_s) * x_hat + _col(np.asarray(s_s) / np.asarray(s_t)) * (
        np.asarray(z_t, dtype=np.float64) - _col(a_t) * x_hat
    )


def predict_x(model: DenoiserModel, z, t, cond, schedule: CosineSchedule,
              max_query_t: float | None = None, slab_rows: int | None = None) -> Array:
    """Query the model for a clean-latent prediction at time t.

    Latent-prediction models are queried directly. Noise-prediction models
    are converted via eps_to_x; the conversion is singular at t = 1, so
    callers that own a step grid pass `max_query_t` (typically 1 - 0.5/N) and
    the query time is clipped to it for the conversion. `slab_rows` goes to
    `model.forward` (see `DenoiserModel.forward`).
    """
    if model.parameterization is Parameterization.X:
        return model.forward(z, t, cond, slab_rows=slab_rows)
    tq = np.asarray(t, dtype=np.float64)
    if max_query_t is not None:
        tq = np.minimum(tq, max_query_t)
    alpha, sigma = schedule.alpha_sigma(tq)
    eps_hat = model.forward(z, tq, cond, slab_rows=slab_rows)
    return eps_to_x(z, eps_hat, alpha, sigma)


def ancestral_step(z_n, eps_hat, n: int, discrete: DiscreteSchedule,
                   rng: np.random.Generator) -> Array:
    """One stochastic reverse step from index n to n - 1 (1-based).

    Posterior mean from the noise prediction plus sqrt(beta_tilde_n) noise;
    the first step has beta_tilde_1 = 0 and is deterministic.
    """
    if not (1 <= n <= discrete.n_train):
        raise ValueError(f"step index {n} outside [1, {discrete.n_train}]")
    beta_n = discrete.beta[n - 1]
    alpha_n = 1.0 - beta_n
    alpha_bar_n = discrete.alpha_bar[n - 1]
    mean = (np.asarray(z_n, dtype=np.float64)
            - (beta_n / np.sqrt(1.0 - alpha_bar_n)) * eps_hat) / np.sqrt(alpha_n)
    beta_tilde = discrete.beta_tilde[n - 1]
    if beta_tilde == 0.0:
        return mean
    return mean + np.sqrt(beta_tilde) * rng.standard_normal(mean.shape)


def sample(model: DenoiserModel, conditions, config: SamplerConfig,
           schedule: CosineSchedule, discrete: DiscreteSchedule | None = None) -> Array:
    """Run the full reverse process from z ~ N(0, I); returns (n, latent_dim).

    `conditions` is an int (one latent) or an int array (one latent each);
    a fractional or NaN id raises ValueError before any step runs.
    Deterministic given `config.seed`: the DDIM path consumes one normal
    draw for the start point, the ancestral path additionally one per step.
    """
    conditions = np.atleast_1d(class_ids(conditions))
    n_samples = conditions.shape[0]
    rng = np.random.default_rng(config.seed)
    z = rng.standard_normal((n_samples, model.latent_dim))

    if config.kind is SamplerKind.DDIM:
        n = config.steps
        max_query_t = 1.0 - 0.5 / n
        for i in range(n, 0, -1):
            t = i / n
            s = (i - 1) / n
            x_hat = predict_x(model, z, t, conditions, schedule, max_query_t=max_query_t)
            z = ddim_step(z, x_hat, t, s, schedule)
        return z

    if discrete is None:
        discrete = build_discrete(config.steps)
    n_train = discrete.n_train
    for n in range(n_train, 0, -1):
        t = n / n_train
        if model.parameterization is Parameterization.EPSILON:
            eps_hat = model.forward(z, t, conditions)
        else:
            x_hat = model.forward(z, t, conditions)
            a_bar = discrete.alpha_bar[n - 1]
            eps_hat = x_to_eps(z, x_hat, np.sqrt(a_bar), np.sqrt(1.0 - a_bar))
        z = ancestral_step(z, eps_hat, n, discrete, rng)
    return z
