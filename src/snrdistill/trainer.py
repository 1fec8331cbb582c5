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

`_fit` is the one update loop, of base training and of every distillation
round alike: a weighted squared-error Adam update over stacks of rows. The
callers differ only in what the rows regress on, how they are weighted and
which error a diverging update raises.
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
    stacks = _draw_stacks(dataset, schedule, config.batch_size, config.updates, rng,
                          lambda rng, size: rng.uniform(schedule.t_min, 1.0, size=size))
    if config.parameterization is Parameterization.EPSILON:
        stacks = ((cond, t, z_t, eps, config.strategy.noise_weight(snr))
                  for cond, _, t, eps, z_t, snr in stacks)
    else:
        stacks = ((cond, t, z_t, z0, config.strategy.weight(snr))
                  for cond, z0, t, _, z_t, snr in stacks)

    def check(update, loss, weighted, t, w):
        if not np.isfinite(loss) or loss > DIVERGENCE_BOUND:
            raise TrainingDivergedError(update=update, loss=loss)

    losses = _fit(model, stacks, config.batch_size, config.lr, check)
    return TrainResult(model=model, loss_history=losses)


def _fit(model, stacks, batch_size: int, lr: float, check) -> np.ndarray:
    """Train `model` in place by Adam at rate `lr`; returns every update's loss.

    `stacks` yields (cond, t, z_t, target, w) with one row per drawn
    sample, and each update takes the next `batch_size` rows of its stack;
    `target` may be any object whose slices are arrays, as a distillation
    round's streamed targets are. Before an update's Adam step,
    `check(update, loss, weighted, t, w)` sees its index, its loss, its
    per-row weighted error and its rows' t and w, and raises the caller's
    error if the update diverged; that update then takes no step. The
    model needs `flat` and `forward_backward`, as `nnet.loss_and_gradients`
    uses them.
    """
    state = AdamState.fresh(model.flat, lr=lr)
    losses: list[float] = []
    for cond, t, z_t, target, w in stacks:
        for j in range(0, len(t), batch_size):
            rows = slice(j, j + batch_size)
            loss, grad, weighted = loss_and_gradients(
                model, z_t[rows], t[rows], cond[rows], target[rows], w[rows])
            check(len(losses), loss, weighted, t[rows], w[rows])
            adam_step(model.flat, grad, state)
            losses.append(loss)
    return np.asarray(losses)
