"""Conditional diffusion training, progressive step-halving distillation with
SNR-based loss weighting, and Frechet-distance evaluation on synthetic data."""

from .config import RunConfig, default_config, load_config, parse_config, serialize_config
from .data import ToyDataset, draw_batch, mixture_moments, reference_population
from .distill import DistillConfig, DistillTrace, distill_round, progressive_distill, teacher_target
from .frechet import MomentFit, fit_moments, frechet_distance
from .nnet import (
    AdamState,
    DenoiserModel,
    Parameterization,
    adam_step,
    loss_and_gradients,
    weighted_squared_error,
)
from .sampler import SamplerConfig, ddim_step, eps_to_x, sample
from .schedule import CosineSchedule
from .trainer import TrainConfig, TrainResult, train_base
from .weighting import STRATEGY_NAMES, WeightStrategy, strategy_from_name, weight

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "CosineSchedule",
    "DenoiserModel",
    "DistillConfig",
    "DistillTrace",
    "MomentFit",
    "Parameterization",
    "RunConfig",
    "SamplerConfig",
    "STRATEGY_NAMES",
    "ToyDataset",
    "TrainConfig",
    "TrainResult",
    "WeightStrategy",
    "adam_step",
    "ddim_step",
    "default_config",
    "distill_round",
    "draw_batch",
    "eps_to_x",
    "fit_moments",
    "frechet_distance",
    "load_config",
    "loss_and_gradients",
    "mixture_moments",
    "parse_config",
    "progressive_distill",
    "reference_population",
    "sample",
    "serialize_config",
    "strategy_from_name",
    "teacher_target",
    "train_base",
    "weight",
    "weighted_squared_error",
]
