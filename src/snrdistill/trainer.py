"""Base diffusion training: weighted noise-prediction MSE over random (t, eps).

Produces the initial teacher for distillation. Times are drawn continuously
from [t_min, 1] so the resulting model can be queried on any step grid later.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import ToyDataset, draw_batch
from .errors import TrainingDivergedError
from .nnet import (
    AdamState,
    DenoiserModel,
    Parameterization,
    adam_step,
    loss_and_gradients,
    weighted_squared_error,
)
from .schedule import CosineSchedule
from .util import child_rng
from .weighting import WeightKind, WeightStrategy

DIVERGENCE_BOUND = 1e6
SNR_RATIO_FLOOR = 1e-12


@dataclass
class TrainConfig:
    updates: int = 20000
    batch_size: int = 128
    lr: float = 1e-3
    seed: int = 0
    parameterization: Parameterization = Parameterization.EPSILON
    strategy: WeightStrategy = field(
        default_factory=lambda: WeightStrategy(WeightKind.EPSILON_SNR)
    )
    hidden: tuple[int, ...] = (128, 128)
    embed_dim: int = 16
    num_frequencies: int = 8

    def __post_init__(self):
        if self.updates < 0:
            raise ValueError("updates must be >= 0")


@dataclass
class TrainResult:
    model: DenoiserModel
    loss_history: np.ndarray


def _noise_space_weights(strategy: WeightStrategy, snr: np.ndarray) -> np.ndarray:
    """Translate an x-space weight into the equivalent noise-space weight.

    The squared-error identity |eps - eps_hat|^2 = snr * |x - x_hat|^2 means
    an x-space weight w corresponds to w / snr on the noise loss; the plain
    eps-snr strategy cancels to exactly 1.
    """
    if strategy.kind is WeightKind.EPSILON_SNR:
        return np.ones_like(snr)
    return strategy.weight(snr) / np.maximum(snr, SNR_RATIO_FLOOR)


def train_base(config: TrainConfig, dataset: ToyDataset, schedule: CosineSchedule) -> TrainResult:
    """Train a denoiser from scratch; returns the model and per-update losses."""
    model = DenoiserModel.init(
        latent_dim=dataset.latent_dim,
        num_classes=dataset.num_classes,
        hidden=config.hidden,
        embed_dim=config.embed_dim,
        num_frequencies=config.num_frequencies,
        parameterization=config.parameterization,
        seed=int(child_rng(config.seed, "init").integers(0, 2**31 - 1)),
    )
    rng = child_rng(config.seed, "train-batches")
    state = AdamState.fresh(model.params, lr=config.lr)
    losses = np.zeros(config.updates)

    for update in range(config.updates):
        cond, z0 = draw_batch(dataset, config.batch_size, rng)
        t = rng.uniform(schedule.t_min, 1.0, size=config.batch_size)
        eps = rng.standard_normal(z0.shape)
        alpha, sigma = schedule.alpha_sigma(t)
        z_t = alpha[:, None] * z0 + sigma[:, None] * eps
        # schedule.snr(t) bit for bit: t already lies in its [t_min, 1] clip.
        w = _noise_space_weights(config.strategy, np.square(alpha) / np.square(sigma))

        if config.parameterization is Parameterization.EPSILON:
            def loss_grad(out):
                return weighted_squared_error(out, eps, w)[:2]
        else:
            inv_sigma = (1.0 / sigma)[:, None]
            alpha_col = alpha[:, None]

            def loss_grad(out):
                # The loss is on the noise the latent prediction implies.
                eps_hat = (z_t - alpha_col * out) * inv_sigma
                loss, d_eps_hat = weighted_squared_error(eps_hat, eps, w)[:2]
                return loss, (-(d_eps_hat * inv_sigma)) * alpha_col

        loss, grads = loss_and_gradients(model, z_t, t, cond, loss_grad)
        if not np.isfinite(loss) or loss > DIVERGENCE_BOUND:
            raise TrainingDivergedError(update=update, loss=loss)
        model.params, state = adam_step(model.params, grads, state)
        losses[update] = loss

    return TrainResult(model=model, loss_history=losses)
