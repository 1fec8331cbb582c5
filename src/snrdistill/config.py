"""Run configuration: flat, line-oriented `section.key = value` text.

Every field has a default, unknown keys are rejected, and
parse -> serialize -> parse is a fixed point, so configs diff cleanly and a
run directory always carries the fully resolved settings it actually used.
A key may be set more than once, and its last line wins, so appending a line
to a config file overrides what the file set before.

Each section is built once by the class that checks it: `dataset` and
`schedule` are the run's `ToyDataset` and `CosineSchedule`, and
`validate_config` builds what the others configure.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

from .data import ToyDataset
from .distill import DistillConfig
from .errors import ConfigError
from .nnet import Parameterization, param_shapes
from .schedule import CosineSchedule
from .trainer import TrainConfig
from .util import fmt_float
from .weighting import strategy_from_name


@dataclass
class ModelSection:
    hidden: tuple[int, ...] = (128, 128)
    embed_dim: int = 16
    num_frequencies: int = 8


@dataclass
class TrainSection:
    updates: int = 16000
    batch_size: int = 128
    lr: float = 1e-3
    parameterization: str = "epsilon"
    # Must keep base training's weight bounded; see WeightStrategy.check_base_training.
    strategy: str = "eps-snr"


@dataclass
class DistillSection:
    iterations: int = 3
    n_start: int = 64
    steps_per_round: int = 4000
    batch_size: int = 256
    lr: float = 1e-3
    gamma: float = 5.0  # also the cap of train.strategy


@dataclass
class EvalSection:
    num_samples: int = 4096
    reference_samples: int = 16384
    repetitions: int = 5
    seed: int = 500


@dataclass
class RunSection:
    seeds: tuple[int, ...] = (1, 2, 3)
    strategies: tuple[str, ...] = ("trunc-snr", "min-snr", "bsa")
    output_dir: str = "runs"


@dataclass
class RunConfig:
    dataset: ToyDataset = field(default_factory=ToyDataset)
    model: ModelSection = field(default_factory=ModelSection)
    schedule: CosineSchedule = field(default_factory=CosineSchedule)
    train: TrainSection = field(default_factory=TrainSection)
    distill: DistillSection = field(default_factory=DistillSection)
    eval: EvalSection = field(default_factory=EvalSection)
    run: RunSection = field(default_factory=RunSection)


def _parse_value(raw: str, current, key: str):
    kind = type(current)
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return raw
        if kind is tuple:
            if raw == "":
                return ()
            element = type(current[0]) if current else str
            return tuple(element(part.strip()) for part in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    raise ConfigError(f"unsupported field type for {key}")  # pragma: no cover


def parse_config(text: str) -> RunConfig:
    """Parse config text; unknown keys and settings that cannot be built raise ConfigError."""
    defaults = RunConfig()
    changes: dict[str, dict] = {f.name: {} for f in dataclasses.fields(defaults)}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {line!r}")
        dotted, _, raw_value = line.partition("=")
        dotted = dotted.strip()
        raw_value = raw_value.strip()
        if "." not in dotted:
            raise ConfigError(f"line {lineno}: key {dotted!r} is missing its section")
        section_name, _, key = dotted.partition(".")
        if section_name not in changes:
            raise ConfigError(f"line {lineno}: unknown section {section_name!r}")
        section = getattr(defaults, section_name)
        if key not in {f.name for f in dataclasses.fields(section)}:
            raise ConfigError(f"line {lineno}: unknown key {dotted!r}")
        changes[section_name][key] = _parse_value(raw_value, getattr(section, key), dotted)
    cfg = RunConfig(**{name: _build(name, dataclasses.replace, getattr(defaults, name), **values)
                       for name, values in changes.items()})
    validate_config(cfg)
    return cfg


def _build(section: str, build, *args, **kwargs):
    """`build(*args, **kwargs)`, its ValueError a ConfigError that starts with `section`."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _format_value(value) -> str:
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text with every field stated explicitly."""
    lines = []
    for section_field in dataclasses.fields(cfg):
        section = getattr(cfg, section_field.name)
        for f in dataclasses.fields(section):
            value = getattr(section, f.name)
            lines.append(f"{section_field.name}.{f.name} = {_format_value(value)}")
        lines.append("")
    return "\n".join(lines)


def load_config(path: str | Path | None) -> RunConfig:
    if path is None:
        return RunConfig()
    return parse_config(Path(path).read_text(encoding="utf-8"))


def build_train_config(cfg: RunConfig, seed: int) -> TrainConfig:
    t = cfg.train
    return TrainConfig(
        updates=t.updates, batch_size=t.batch_size, lr=t.lr, seed=seed,
        parameterization=Parameterization(t.parameterization),
        strategy=strategy_from_name(t.strategy, cfg.distill.gamma),
        hidden=cfg.model.hidden, embed_dim=cfg.model.embed_dim,
        num_frequencies=cfg.model.num_frequencies,
    )


def build_distill_config(cfg: RunConfig, strategy_name: str, seed: int) -> DistillConfig:
    d = cfg.distill
    return DistillConfig(
        iterations=d.iterations, n_start=d.n_start,
        steps_per_round=d.steps_per_round, batch_size=d.batch_size,
        strategy=strategy_from_name(strategy_name, d.gamma),
        lr=d.lr, seed=seed,
    )


def validate_config(cfg: RunConfig) -> None:
    """ConfigError unless the model's shapes, each strategy's `DistillConfig`
    and the `TrainConfig` can be built from `cfg`, in that order, so that a bad
    distill.gamma, which the last two share, is reported under `distill`; and
    unless the settings that no constructor checks are in range."""
    _build("model", param_shapes, cfg.dataset.latent_dim, cfg.dataset.num_classes,
           **dataclasses.asdict(cfg.model))
    for name in cfg.run.strategies:
        _build("distill", build_distill_config, cfg, name, 0)
    _build("train", build_train_config, cfg, 0)
    # Each optimizer checks its lr only when a run starts it.
    for key, lr in (("train.lr", cfg.train.lr), ("distill.lr", cfg.distill.lr)):
        if not (math.isfinite(lr) and lr > 0.0):
            raise ConfigError(f"{key} must be finite and > 0, got {lr}")
    if cfg.eval.repetitions < 1:
        raise ConfigError("eval.repetitions must be >= 1")
    # A Frechet moment fit needs two samples for its covariance.
    for key in ("num_samples", "reference_samples"):
        if getattr(cfg.eval, key) < 2:
            raise ConfigError(f"eval.{key} must be >= 2, got {getattr(cfg.eval, key)}")
    if not cfg.run.seeds:
        raise ConfigError("run.seeds must not be empty")
    # A repeated seed or strategy would run its cells again and pool the
    # copies into one mean, with too narrow a ci95.
    for key in ("seeds", "strategies"):
        values = getattr(cfg.run, key)
        if len(set(values)) != len(values):
            raise ConfigError(f"run.{key} must not repeat a value, got {_format_value(values)}")
