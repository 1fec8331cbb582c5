"""Base diffusion training: a weighted squared error over random (t, eps).

Produces the initial teacher for distillation. Times are drawn continuously
from [t_min, 1] so the resulting model can be queried on any step grid later.
A noise-predicting model regresses eps under the strategy's noise-space
weight, a clean-latent-predicting one regresses z0 under w(snr) itself: the
same loss, since |eps - eps_pred|^2 = snr |z0 - x_pred|^2.

Training draws its updates in noised stacks, as every distillation round
does, through `data._draw_stacks` (the data module's docstring describes
them). Each update takes its rows of the stack's z_t and weights, so its
loss, gradient and Adam step are bit-identical to those of drawing and
computing one update at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import ToyDataset, _draw_stacks
from .errors import TrainingDivergedError
from .nnet import (
    AdamState,
    DenoiserModel,
    Parameterization,
    adam_step,
    loss_and_gradients,
)
from .schedule import CosineSchedule
from .util import child_rng
from .weighting import WeightStrategy, strategy_from_name

DIVERGENCE_BOUND = 1e6


@dataclass
class TrainConfig:
    updates: int = 16000
    batch_size: int = 128
    lr: float = 1e-3
    seed: int = 0
    parameterization: Parameterization = Parameterization.EPSILON
    strategy: WeightStrategy = field(default_factory=lambda: strategy_from_name("eps-snr"))
    hidden: tuple[int, ...] = (128, 128)
    embed_dim: int = 16
    num_frequencies: int = 8

    def __post_init__(self):
        if self.updates < 0:
            raise ValueError(f"updates must be >= 0, got {self.updates}")
        # A batch of no rows has no loss, and no number of them fills a stack.
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        self.strategy.check_base_training(self.parameterization is Parameterization.EPSILON)


@dataclass
class TrainResult:
    model: DenoiserModel
    loss_history: np.ndarray


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
    state = AdamState.fresh(model.flat, lr=config.lr)
    losses: list[float] = []
    batch = config.batch_size

    stacks = _draw_stacks(dataset, schedule, batch, config.updates, rng,
                          lambda rng, size: rng.uniform(schedule.t_min, 1.0, size=size))
    for cond, z0, t, eps, z_t, snr in stacks:
        if config.parameterization is Parameterization.EPSILON:
            target, w = eps, config.strategy.noise_weight(snr)
        else:
            target, w = z0, config.strategy.weight(snr)
        for j in range(0, len(t), batch):
            rows = slice(j, j + batch)
            loss, grad, _ = loss_and_gradients(
                model, z_t[rows], t[rows], cond[rows], target[rows], w[rows])
            if not np.isfinite(loss) or loss > DIVERGENCE_BOUND:
                raise TrainingDivergedError(update=len(losses), loss=loss)
            adam_step(model.flat, grad, state)
            losses.append(loss)

    return TrainResult(model=model, loss_history=np.asarray(losses))
