"""Run configuration: flat, line-oriented `section.key = value` text.

Every field has a default, unknown keys are rejected, and
parse -> serialize -> parse is a fixed point, so configs diff cleanly and a
run directory always carries the fully resolved settings it actually used.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from .distill import check_halvings
from .errors import ConfigError
from .util import fmt_float
from .weighting import STRATEGY_NAMES, strategy_from_name


@dataclass
class DatasetSection:
    num_classes: int = 8
    latent_dim: int = 2
    radius: float = 2.0
    stddev: float = 0.15


@dataclass
class ModelSection:
    hidden: tuple[int, ...] = (128, 128)
    embed_dim: int = 16
    num_frequencies: int = 8


@dataclass
class ScheduleSection:
    t_min: float = 1e-4


@dataclass
class TrainSection:
    updates: int = 16000
    batch_size: int = 128
    lr: float = 1e-3
    parameterization: str = "epsilon"
    # The strategy's point (offset, floor, cap) must keep the loss weight
    # bounded: epsilon needs w(0) = 0, that is offset = floor = 0 (eps-snr,
    # min-snr), and x needs a finite cap (min-snr, bsa). The cap of min-snr
    # and bsa is distill.gamma, as in distillation.
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
    dataset: DatasetSection = field(default_factory=DatasetSection)
    model: ModelSection = field(default_factory=ModelSection)
    schedule: ScheduleSection = field(default_factory=ScheduleSection)
    train: TrainSection = field(default_factory=TrainSection)
    distill: DistillSection = field(default_factory=DistillSection)
    eval: EvalSection = field(default_factory=EvalSection)
    run: RunSection = field(default_factory=RunSection)


def default_config() -> RunConfig:
    return RunConfig()


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
    """Parse config text; unknown sections or keys raise ConfigError."""
    cfg = default_config()
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
        if not hasattr(cfg, section_name) or section_name.startswith("_"):
            raise ConfigError(f"line {lineno}: unknown section {section_name!r}")
        section = getattr(cfg, section_name)
        field_names = {f.name for f in dataclasses.fields(section)}
        if key not in field_names:
            raise ConfigError(f"line {lineno}: unknown key {dotted!r}")
        current = getattr(section, key)
        setattr(section, key, _parse_value(raw_value, current, dotted))
    validate_config(cfg)
    return cfg


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
        return default_config()
    return parse_config(Path(path).read_text(encoding="utf-8"))


def validate_config(cfg: RunConfig) -> None:
    if cfg.train.parameterization not in ("epsilon", "x"):
        raise ConfigError(f"unknown parameterization {cfg.train.parameterization!r}")
    for name in (cfg.train.strategy, *cfg.run.strategies):
        if name not in STRATEGY_NAMES:
            raise ConfigError(f"unknown weight strategy {name!r}; choose from {STRATEGY_NAMES}")
    try:
        train_strategy = strategy_from_name(cfg.train.strategy, cfg.distill.gamma)
    except ValueError as exc:  # the names are known, so it is gamma's
        raise ConfigError(f"distill.gamma: {exc}") from None
    try:
        train_strategy.check_base_training(cfg.train.parameterization == "epsilon")
    except ValueError as exc:
        raise ConfigError(
            f"train.strategy = {cfg.train.strategy} under "
            f"train.parameterization = {cfg.train.parameterization}: {exc}") from None
    try:
        check_halvings(cfg.distill.n_start, cfg.distill.iterations)
    except ValueError as exc:
        raise ConfigError(f"distill: {exc}") from None
    # A batch of no rows has no loss, and a round of no updates returns its
    # teacher unchanged as the student.
    for key, value, low in (("train.batch_size", cfg.train.batch_size, 1),
                            ("train.updates", cfg.train.updates, 0),
                            ("distill.batch_size", cfg.distill.batch_size, 1),
                            ("distill.steps_per_round", cfg.distill.steps_per_round, 1)):
        if value < low:
            raise ConfigError(f"{key} must be >= {low}, got {value}")
    if cfg.eval.repetitions < 1:
        raise ConfigError("eval.repetitions must be >= 1")
    # A Frechet moment fit needs two samples for its covariance.
    for key in ("num_samples", "reference_samples"):
        if getattr(cfg.eval, key) < 2:
            raise ConfigError(f"eval.{key} must be >= 2, got {getattr(cfg.eval, key)}")
    if not cfg.run.seeds:
        raise ConfigError("run.seeds must not be empty")
