from pathlib import Path

import pytest

from snrdistill.cli import build_parser, main
from snrdistill.config import (
    default_config,
    load_config,
    parse_config,
    serialize_config,
)
from snrdistill.data import ToyDataset
from snrdistill.distill import DistillConfig
from snrdistill.errors import ConfigError
from snrdistill.experiment import build_distill_config, build_train_config, halving_steps
from snrdistill.schedule import CosineSchedule
from snrdistill.trainer import TrainConfig


def test_defaults_parse_and_serialize_as_fixed_point():
    text = serialize_config(default_config())
    cfg = parse_config(text)
    again = serialize_config(cfg)
    assert text == again
    assert parse_config(again) == cfg


def test_every_field_appears_in_serialized_defaults():
    text = serialize_config(default_config())
    for key in ("dataset.num_classes", "model.hidden", "schedule.t_min",
                "train.updates", "train.strategy", "distill.gamma",
                "eval.repetitions", "run.seeds", "run.output_dir"):
        assert any(line.startswith(key + " = ") for line in text.splitlines()), key


def test_overrides_and_comments():
    cfg = parse_config(
        """
        # comment line
        train.strategy = min-snr
        distill.gamma = 7.5
        run.seeds = 5,6
        model.hidden = 32,16

        train.updates = 10
        """
    )
    assert cfg.train.strategy == "min-snr"
    assert cfg.distill.gamma == 7.5
    assert cfg.run.seeds == (5, 6)
    assert cfg.model.hidden == (32, 16)
    assert cfg.train.updates == 10


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        parse_config("distill.noodles = 3")
    with pytest.raises(ConfigError):
        parse_config("kitchen.sink = 1")
    with pytest.raises(ConfigError):
        parse_config("loose_key = 1")
    with pytest.raises(ConfigError):
        parse_config("just some words")


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        parse_config("train.updates = many")
    with pytest.raises(ConfigError):
        parse_config("distill.gamma = spicy")
    with pytest.raises(ConfigError):
        parse_config("train.strategy = nope")
    with pytest.raises(ConfigError):
        parse_config("run.strategies = bsa,nope")
    with pytest.raises(ConfigError):
        parse_config("train.parameterization = sideways")
    with pytest.raises(ConfigError):
        parse_config("distill.n_start = 100")  # not divisible by 2^iterations
    with pytest.raises(ConfigError):
        parse_config("run.seeds = ")


@pytest.mark.parametrize("strategy", ["trunc-snr", "snr-plus-one", "bsa"])
def test_epsilon_training_rejects_strategies_that_weight_zero_snr(strategy):
    # w / snr is unbounded at snr -> 0 for these, and base training diverges.
    with pytest.raises(ConfigError, match=rf"^train: {strategy} has w\(0\) = .*; "
                                          rf"noise prediction needs w\(0\) = 0$"):
        parse_config(f"train.strategy = {strategy}")
    # Under x only a capped one is allowed.
    text = f"train.strategy = {strategy}\ntrain.parameterization = x"
    if strategy == "bsa":
        assert parse_config(text).train.parameterization == "x"
    else:
        with pytest.raises(ConfigError, match="finite cap"):
            parse_config(text)


@pytest.mark.parametrize("strategy", ["eps-snr", "trunc-snr", "snr-plus-one"])
def test_x_training_rejects_strategies_without_a_cap(strategy):
    # The x-space weight reaches snr(t_min), about 4e8, and base training
    # diverged on seeds 1 and 3.
    with pytest.raises(ConfigError, match=f"^train: {strategy} has no cap; clean-latent "
                                          f"prediction needs a finite cap$"):
        parse_config(f"train.strategy = {strategy}\ntrain.parameterization = x")


@pytest.mark.parametrize("strategy", ["min-snr", "bsa"])
def test_x_training_accepts_capped_strategies(strategy):
    cfg = parse_config(f"train.strategy = {strategy}\ntrain.parameterization = x")
    assert build_train_config(cfg, 0).strategy.cap == cfg.distill.gamma


@pytest.mark.parametrize("gamma", ["0", "-1", "nan", "inf"])
def test_bad_gamma_is_a_config_error(gamma, tmp_path, capsys):
    with pytest.raises(ConfigError, match="^distill: gamma must be a positive real, got "):
        parse_config(f"distill.gamma = {gamma}")
    # A usage error: one line on stderr, exit status 2, nothing written.
    assert main(["distill", "--teacher", str(tmp_path / "none.ckpt"), "--gamma", gamma,
                 "--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "snrdistill: error: distill: gamma must be a positive real, got ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_weights_table_reports_a_bad_gamma_as_a_usage_error(capsys):
    assert main(["weights-table", "--gamma", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "snrdistill: error: --gamma: gamma must be a positive real, got 0.0\n")


def test_cli_reports_a_bad_config_file_as_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("distill.strategy = bsa\n")
    assert main(["print-config", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "snrdistill: error: line 1: unknown key 'distill.strategy'\n")


def test_distill_strategy_defaults_to_bsa():
    args = build_parser().parse_args(["distill", "--teacher", "t.ckpt", "--out-dir", "d"])
    assert args.strategy == "bsa"


def test_default_sections_build_the_default_configs():
    cfg = default_config()
    assert build_train_config(cfg, 0) == TrainConfig(seed=0)
    assert build_distill_config(cfg, "bsa", 0) == DistillConfig(seed=0)


@pytest.mark.parametrize("strategy", ["eps-snr", "min-snr"])
def test_epsilon_training_accepts_strategies_with_zero_weight_at_zero_snr(strategy):
    cfg = parse_config(f"train.strategy = {strategy}")
    assert cfg.train.parameterization == "epsilon"


@pytest.mark.parametrize("n_start, iterations", [(8, 3), (16, 4), (0, 1), (8, 0)])
def test_halvings_must_leave_an_even_student_of_two_or_more_steps(n_start, iterations):
    # 8 >> 3 = 1 would train, evaluate and distill before the last round
    # found its 1-step student.
    with pytest.raises(ConfigError, match="distill"):
        parse_config(f"distill.n_start = {n_start}\ndistill.iterations = {iterations}")


@pytest.mark.parametrize("n_start, iterations", [(8, 2), (12, 1), (16, 3), (64, 3)])
def test_halvings_that_leave_even_students_are_accepted(n_start, iterations):
    cfg = parse_config(f"distill.n_start = {n_start}\ndistill.iterations = {iterations}")
    assert cfg.distill.n_start >> cfg.distill.iterations >= 2


@pytest.mark.parametrize("n_start, iterations, steps", [
    pytest.param(12, 2, [12, 6, 3], id="12-2"),
    pytest.param(200, 3, [200, 100, 50, 25], id="200-3"),  # the paper's sequence
])
def test_halvings_may_leave_odd_students(n_start, iterations, steps):
    cfg = parse_config(f"distill.n_start = {n_start}\ndistill.iterations = {iterations}")
    assert halving_steps(cfg) == steps


@pytest.mark.parametrize("key", ["num_samples", "reference_samples"])
def test_eval_needs_two_samples_to_fit_a_covariance(key):
    with pytest.raises(ConfigError, match=f"eval.{key}"):
        parse_config(f"eval.{key} = 1")
    assert getattr(parse_config(f"eval.{key} = 2").eval, key) == 2


@pytest.mark.parametrize("key, low", [
    ("train.batch_size", 1),
    ("train.updates", 0),
    ("distill.batch_size", 1),
    ("distill.steps_per_round", 1),
])
def test_budgets_and_batches_that_cannot_run_are_rejected(key, low):
    section, _, name = key.partition(".")
    with pytest.raises(ConfigError, match=f"^{section}: {name} must be >= {low}, got {low - 1}"):
        parse_config(f"{key} = {low - 1}")
    assert getattr(getattr(parse_config(f"{key} = {low}"), section), name) == low


@pytest.mark.parametrize("line, message", [
    ("dataset.latent_dim = 1", "dataset: latent_dim must be >= 2"),
    ("dataset.stddev = -1", "dataset: stddev must be >= 0"),
    ("dataset.stddev = nan", "dataset: stddev must be finite, got nan"),
    ("dataset.stddev = inf", "dataset: stddev must be finite, got inf"),
    ("dataset.radius = inf", "dataset: radius must be finite, got inf"),
    ("dataset.radius = nan", "dataset: radius must be finite, got nan"),
    ("dataset.num_classes = 0", "dataset: num_classes must be >= 1"),
    ("model.hidden = 0", r"model: hidden widths must be >= 1, got \(0,\)"),
    ("model.hidden = 8,0", r"model: hidden widths must be >= 1, got \(8, 0\)"),
    ("model.embed_dim = -1", "model: embed_dim must be >= 0, got -1"),
    ("model.num_frequencies = -2", "model: num_frequencies must be >= 0, got -2"),
    ("run.seeds = 1,1", "run.seeds must not repeat a value, got 1,1"),
    ("run.strategies = bsa,min-snr,bsa",
     "run.strategies must not repeat a value, got bsa,min-snr,bsa"),
])
def test_a_dataset_model_or_run_that_cannot_be_built_is_a_usage_error(line, message, tmp_path,
                                                                      capsys):
    with pytest.raises(ConfigError, match=f"^{message}"):
        parse_config(line)
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("snrdistill: error: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_the_dataset_and_schedule_sections_are_what_the_run_uses():
    cfg = parse_config("dataset.radius = 3\nschedule.t_min = 2e-4")
    assert cfg.dataset == ToyDataset(radius=3.0)
    assert cfg.schedule == CosineSchedule(t_min=2e-4)


@pytest.mark.parametrize("key", ["train.lr", "distill.lr"])
@pytest.mark.parametrize("value", ["0", "-1e-3", "nan", "inf"])
def test_a_learning_rate_must_be_finite_and_positive(key, value):
    with pytest.raises(ConfigError, match=f"{key} must be finite and > 0, got {float(value)}"):
        parse_config(f"{key} = {value}")
    section, _, name = key.partition(".")
    assert getattr(getattr(parse_config(f"{key} = 1e-9"), section), name) == 1e-9


@pytest.mark.parametrize("value", ["0", "-1e-4", "1", "2.0", "nan", "inf", "1e-300"])
def test_a_t_min_outside_the_unit_interval_or_with_an_infinite_snr_is_rejected(value):
    with pytest.raises(ConfigError, match="^schedule: t_min "):
        parse_config(f"schedule.t_min = {value}")


@pytest.mark.parametrize("key", ["schedule.n_train", "schedule.beta_start", "schedule.beta_end"])
def test_removed_discrete_schedule_keys_are_rejected(key, capsys):
    with pytest.raises(ConfigError, match=key):
        parse_config(f"{key} = 1")
    assert main(["print-config"]) == 0
    printed = capsys.readouterr().out
    assert "schedule.t_min = " in printed
    assert key not in printed


@pytest.mark.parametrize("key, value", [
    ("schedule.kind", "cosine"),  # cosine is the only schedule
    ("dataset.seed", "0"),        # the dataset draws nothing with it
    ("distill.strategy", "bsa"),  # runs name theirs in run.strategies or --strategy
])
def test_keys_that_set_nothing_are_unknown(key, value, capsys):
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config(f"{key} = {value}")
    assert main(["print-config"]) == 0
    printed = capsys.readouterr().out
    assert key not in printed
    assert len([line for line in printed.splitlines() if " = " in line]) == 26


def test_benchmark_experiment_config_parses():
    path = Path(__file__).resolve().parents[1] / "bench" / "experiment.cfg"
    cfg = load_config(path)
    assert cfg.run.strategies == ("trunc-snr", "min-snr", "bsa")
    assert cfg.run.seeds == (1,)


def test_load_config_none_gives_defaults():
    assert load_config(None) == default_config()


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("eval.repetitions = 2\n")
    assert load_config(path).eval.repetitions == 2
