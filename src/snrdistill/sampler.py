"""The deterministic DDIM reverse process on the continuous cosine schedule.

One DDIM step with no added noise (Song et al., arXiv:2010.02502, eq. 12),
the conversion from a noise prediction to a clean-latent prediction, and one
loop over a descending list of times that both `sample` and the distiller's
teacher targets run. Every sampler is a pure function of its start noise.
The step grid of `sample` is uniform: starting from pure noise at t = 1,
each step moves t -> t - 1/N until t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularTimeError
from .nnet import DenoiserModel, Parameterization, class_ids
from .schedule import CosineSchedule

Array = np.ndarray

ALPHA_FLOOR = 1e-6
SIGMA_FLOOR = 1e-12


@dataclass(frozen=True)
class SamplerConfig:
    steps: int
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


def ddim_step(z_t, x_hat, t, s, schedule: CosineSchedule):
    """One deterministic DDIM step from t to s <= t:

    z_s = alpha_s x_hat + (sigma_s / sigma_t)(z_t - alpha_t x_hat).

    `t` and `s` may be scalars or per-sample arrays with s <= t. Only sigma_t
    appears in a denominator, so stepping into s = 0 is exact.
    """
    t = np.asarray(t, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if np.any(s > t + 1e-12):
        raise ValueError(f"ddim_step needs s <= t, got s={s}, t={t}")
    a_t, s_t = schedule.alpha_sigma(t)
    a_s, s_s = schedule.alpha_sigma(s)
    if np.any(np.asarray(s_t) <= SIGMA_FLOOR):
        raise SingularTimeError(f"sigma_t = 0 at t={t}; cannot step from the clean endpoint")
    z_t = np.asarray(z_t, dtype=np.float64)
    return _col(a_s) * x_hat + _col(np.asarray(s_s) / np.asarray(s_t)) * (
        z_t - _col(a_t) * x_hat
    )


def predict_x(model: DenoiserModel, z, t, cond, schedule: CosineSchedule,
              max_query_t: float) -> Array:
    """Query the model for a clean-latent prediction at time t.

    Latent-prediction models are queried directly at t. Noise-prediction
    models are converted via eps_to_x; the conversion is singular at t = 1,
    so the query time is clipped to `max_query_t`, which the caller's step
    grid sets (typically 1 - 0.5/N).
    """
    if model.parameterization is Parameterization.X:
        return model.forward(z, t, cond)
    tq = np.minimum(np.asarray(t, dtype=np.float64), max_query_t)
    alpha, sigma = schedule.alpha_sigma(tq)
    eps_pred = model.forward(z, tq, cond)
    return eps_to_x(z, eps_pred, alpha, sigma)


def ddim_path(model: DenoiserModel, z, times, cond, schedule: CosineSchedule,
              max_query_t: float) -> Array:
    """Run DDIM steps from z at times[0] through each later time in `times`.

    Each step queries `predict_x` at its start time, with the query clipped
    to `max_query_t`, then takes `ddim_step` to the next time. A time may be a
    scalar or a per-sample array. Returns the latent at times[-1].
    """
    for t, s in zip(times, times[1:]):
        x_hat = predict_x(model, z, t, cond, schedule, max_query_t=max_query_t)
        z = ddim_step(z, x_hat, t, s, schedule)
    return z


def sample(model: DenoiserModel, conditions, config: SamplerConfig,
           schedule: CosineSchedule) -> Array:
    """Run the full reverse process from z ~ N(0, I); returns (n, latent_dim).

    `conditions` is an int (one latent) or an int array (one latent each);
    a fractional or NaN id raises ValueError before any step runs, and so
    does one step of a noise-predicting model, which would be queried at
    t = 1/2 for a pure-noise latent at t = 1.
    Deterministic given `config.seed`, which draws the start point.
    """
    conditions = np.atleast_1d(class_ids(conditions))
    n = config.steps
    if n < 2 and model.parameterization is Parameterization.EPSILON:
        raise ValueError(f"a noise-predicting model needs steps >= 2, got {n}")
    rng = np.random.default_rng(config.seed)
    z = rng.standard_normal((conditions.shape[0], model.latent_dim))
    times = [i / n for i in range(n, -1, -1)]
    return ddim_path(model, z, times, conditions, schedule, max_query_t=1.0 - 0.5 / n)
