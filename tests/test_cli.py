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


def test_zero_eval_repetitions_in_the_config_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, DenoiserModel.init(hidden=(4,), embed_dim=3, num_frequencies=2,
                                             seed=0), CosineSchedule())
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("eval.repetitions = 0\n")
    argv = ["eval", "--config", str(cfg), "--checkpoint", str(path), "--steps", "4"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "snrdistill: error: eval.repetitions must be >= 1\n"


@pytest.mark.parametrize("argv", [
    ["distill", "--teacher", "t.ckpt", "--out-dir", "d", "--gamma", "3"],
    ["eval", "--checkpoint", "c.ckpt", "--steps", "4", "--repetitions", "2"],
], ids=["distill-gamma", "eval-repetitions"])
def test_a_config_key_is_not_a_flag(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sample", "eval"])
def test_one_step_of_a_noise_predicting_checkpoint_is_a_usage_error(
        tmp_path, capsys, monkeypatch, command):
    # The check comes before any sampling or output.
    monkeypatch.setattr(experiment, "reference_population", None)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, DenoiserModel.init(hidden=(4,), embed_dim=3, num_frequencies=2,
                                             seed=0), CosineSchedule())
    out = tmp_path / "s.csv"
    argv = [command, "--checkpoint", str(ckpt), "--steps", "1"]
    assert main(argv + (["--out", str(out)] if command == "sample" else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("snrdistill: error: --steps must be >= 2 for a "
                            "noise-predicting checkpoint, got 1\n")
    assert not out.exists()


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
    pytest.param("seed,strategy,steps,rep,fd\n1,bsa,4,0,0.1\n1,bsa,4,1,0.2\n1,bsa,4,0,0.1\n",
                 4, id="repeated-cell"),
    pytest.param("seed,strategy,steps,rep,fd\n1,bsa,4,0,0.1\n1,bsa,4,1,nan\n", 3, id="nan-fd"),
    pytest.param("seed,strategy,steps,rep,fd\n1,bsa,4,0,inf\n", 2, id="inf-fd"),
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


@pytest.mark.parametrize("argv, flag, directory", [
    pytest.param(["train", "--out", "{out}/t.ckpt", "--config"], "--config", False, id="config"),
    pytest.param(["experiment", "--out-dir", "{out}", "--config"], "--config", False,
                 id="experiment-config"),
    pytest.param(["report", "--out", "{out}/r.csv", "--metrics"], "--metrics", False,
                 id="report"),
    pytest.param(["eval", "--steps", "4", "--checkpoint"], "--checkpoint", False, id="eval"),
    pytest.param(["sample", "--steps", "2", "--out", "{out}/s.csv", "--checkpoint"],
                 "--checkpoint", False, id="sample"),
    pytest.param(["distill", "--out-dir", "{out}", "--teacher"], "--teacher", False,
                 id="distill"),
    pytest.param(["print-config", "--config"], "--config", True, id="config-directory"),
    pytest.param(["report", "--out", "{out}/r.csv", "--metrics"], "--metrics", True,
                 id="report-directory"),
    pytest.param(["eval", "--steps", "4", "--checkpoint"], "--checkpoint", True,
                 id="eval-directory"),
    pytest.param(["distill", "--out-dir", "{out}", "--teacher"], "--teacher", True,
                 id="distill-directory"),
])
def test_a_missing_input_file_is_a_usage_error(tmp_path, capsys, argv, flag, directory):
    # A directory in place of the file is as much a usage error as no file.
    out, missing = tmp_path / "out", tmp_path / "nope"
    if directory:
        missing.mkdir()
    assert main([arg.format(out=out) for arg in argv] + [str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = f"cannot read {missing}: Is a directory" if directory else f"no such file: {missing}"
    assert captured.err == f"snrdistill: error: {flag}: {reason}\n"
    assert not out.exists()


def test_sample_creates_the_directory_of_its_out_path(tmp_path):
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, DenoiserModel.init(hidden=(4,), embed_dim=3, num_frequencies=2,
                                             seed=0), CosineSchedule())
    out = tmp_path / "new" / "dir" / "s.csv"
    assert main(["sample", "--checkpoint", str(ckpt), "--steps", "2", "--num", "3",
                 "--out", str(out)]) == 0
    assert len(out.read_text(encoding="ascii").splitlines()) == 1 + 3


def test_report_creates_the_directory_of_its_out_path(tmp_path):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("seed,strategy,steps,rep,fd\n1,bsa,8,0,0.1\n")
    out = tmp_path / "new" / "dir" / "results.csv"
    assert main(["report", "--metrics", str(metrics), "--out", str(out)]) == 0
    assert out.read_text(encoding="ascii").endswith("\nbsa,8,0.1,0.0\n")


@pytest.mark.parametrize("argv, flag, kind, work", [
    pytest.param(["train", "--config", "{cfg}", "--out", "{dir}"], "--out", "dir",
                 "train_teacher", id="train"),
    pytest.param(["sample", "--checkpoint", "{ckpt}", "--steps", "2", "--out", "{dir}"], "--out",
                 "dir", "sample", id="sample"),
    pytest.param(["report", "--metrics", "{metrics}", "--out", "{dir}"], "--out", "dir",
                 "write_results", id="report"),
    pytest.param(["distill", "--config", "{cfg}", "--teacher", "{ckpt}", "--out-dir", "{file}"],
                 "--out-dir", "file", "progressive_distill", id="distill"),
    pytest.param(["experiment", "--config", "{cfg}", "--out-dir", "{file}"], "--out-dir", "file",
                 "run_experiment", id="experiment"),
    pytest.param(["experiment", "--config", "{cfg}"], "run.output_dir", "file", "run_experiment",
                 id="experiment-config"),
])
def test_an_output_path_that_cannot_be_written_is_a_usage_error(
        tmp_path, capsys, monkeypatch, argv, flag, kind, work):
    # A directory where a file goes, or a file where a directory goes. The
    # check comes before the subcommand's work: training, sampling or writing.
    monkeypatch.setattr(f"snrdistill.cli.{work}", None)
    paths = {name: tmp_path / name for name in ("cfg", "ckpt", "metrics", "dir", "file")}
    paths["cfg"].write_text(TINY + f"run.output_dir = {paths['file']}\n")
    save_checkpoint(paths["ckpt"], DenoiserModel.init(hidden=(4,), embed_dim=3,
                                                      num_frequencies=2, seed=0), CosineSchedule())
    paths["metrics"].write_text("seed,strategy,steps,rep,fd\n1,bsa,8,0,0.1\n")
    paths["dir"].mkdir()
    paths["file"].write_text("")
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = "Is a directory" if kind == "dir" else "Not a directory"
    assert captured.err == f"snrdistill: error: {flag}: cannot write {paths[kind]}: {reason}\n"
