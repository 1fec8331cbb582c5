import pytest

from snrdistill import experiment
from snrdistill.checkpoint import load_checkpoint, save_checkpoint
from snrdistill.cli import main
from snrdistill.config import parse_config
from snrdistill.nnet import DenoiserModel, Parameterization
from snrdistill.schedule import CosineSchedule

TINY = "model.hidden = 4\ntrain.updates = 2\ntrain.batch_size = 8\n"


def test_train_creates_the_directory_of_its_out_path(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    out = tmp_path / "new" / "dir" / "teacher.ckpt"
    assert main(["train", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
    assert load_checkpoint(out)[2]["seed"] == "3"
    assert f"checkpoint written to {out}" in capsys.readouterr().out


def test_train_writes_the_bytes_of_the_experiments_teacher(tmp_path):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY)
    via_cli = tmp_path / "cli.ckpt"
    assert main(["train", "--config", str(cfg_path), "--seed", "3", "--out", str(via_cli)]) == 0
    cfg = parse_config(TINY)
    via_lib = tmp_path / "lib" / "teacher.ckpt"
    experiment.train_teacher(cfg, 3, experiment.build_dataset(cfg),
                             experiment.build_schedule(cfg), via_lib)
    assert via_cli.read_bytes() == via_lib.read_bytes()
    _, _, provenance = load_checkpoint(via_lib)
    assert provenance == {"round": "0", "steps": str(cfg.distill.n_start),
                          "strategy": cfg.train.strategy, "seed": "3"}


@pytest.mark.parametrize("argv, message", [
    pytest.param(["sample", "--steps", "0"], "--steps must be >= 1, got 0", id="sample-steps"),
    pytest.param(["eval", "--steps", "0"], "--steps must be >= 1, got 0", id="eval-steps"),
    pytest.param(["eval", "--steps", "4", "--repetitions", "0"],
                 "eval.repetitions must be >= 1", id="eval-repetitions"),
    pytest.param(["sample", "--steps", "2", "--num", "-1"], "--num must be >= 0, got -1",
                 id="sample-num"),
    pytest.param(["sample", "--steps", "2", "--condition", "99"],
                 "--condition must lie in [0, 8), got 99", id="sample-condition"),
])
def test_a_bad_numeric_flag_is_a_usage_error(tmp_path, capsys, argv, message):
    path = tmp_path / "model.ckpt"
    model = DenoiserModel.init(hidden=(4,), embed_dim=3, num_frequencies=2,
                               parameterization=Parameterization.X, seed=0)
    save_checkpoint(path, model, CosineSchedule())
    assert main([argv[0], "--checkpoint", str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"snrdistill: error: {message}\n"


@pytest.mark.parametrize("points", ["0", "-3"])
def test_weights_table_with_no_points_is_a_usage_error(capsys, points):
    assert main(["weights-table", "--points", points]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"snrdistill: error: --points must be >= 1, got {points}\n"


@pytest.mark.parametrize("command", ["eval", "distill"])
@pytest.mark.parametrize("name, value", [("latent_dim", 3), ("num_classes", 12)])
def test_a_checkpoint_that_does_not_fit_the_dataset_is_a_usage_error(
        tmp_path, capsys, monkeypatch, command, name, value):
    # The check comes before any sampling or training.
    monkeypatch.setattr(experiment, "reference_population", None)
    monkeypatch.setattr("snrdistill.cli.progressive_distill", None)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, DenoiserModel.init(hidden=(4,), embed_dim=3, num_frequencies=2,
                                             seed=0), CosineSchedule())
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY + f"dataset.{name} = {value}\n")
    if command == "eval":
        argv = ["eval", "--checkpoint", str(ckpt), "--steps", "4"]
        flag = "--checkpoint"
    else:
        argv = ["distill", "--teacher", str(ckpt), "--out-dir", str(tmp_path / "out")]
        flag = "--teacher"
    assert main([*argv, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    held = {"latent_dim": 2, "num_classes": 8}[name]
    assert captured.err == (f"snrdistill: error: {flag}: the checkpoint's {name} is {held}, "
                            f"but the config's dataset.{name} is {value}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, line", [
    pytest.param("seed,strategy,steps,fd\n1,bsa,8,0.1\n", 1, id="bad-header"),
    pytest.param("seed,strategy,steps,rep,fd\n1,bsa,8,0,0.1\n1,bsa,8,0.2\n", 3,
                 id="four-fields"),
    pytest.param("seed,strategy,steps,rep,fd\n1,bsa,eight,0,0.1\n", 2, id="bad-number"),
])
def test_report_on_a_malformed_metrics_file_is_a_usage_error(tmp_path, capsys, text, line):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text(text)
    out = tmp_path / "results.csv"
    assert main(["report", "--metrics", str(metrics), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"snrdistill: error: {metrics}, line {line}: ")
    assert not out.exists()
