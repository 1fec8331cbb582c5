import pytest

from snrdistill.checkpoint import checkpoint_from_model, load_checkpoint, save_checkpoint
from snrdistill.cli import main
from snrdistill.nnet import DenoiserModel, Parameterization
from snrdistill.schedule import CosineSchedule


def test_train_creates_the_directory_of_its_out_path(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("model.hidden = 4\ntrain.updates = 2\ntrain.batch_size = 8\n")
    out = tmp_path / "new" / "dir" / "teacher.ckpt"
    assert main(["train", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
    assert load_checkpoint(out).provenance["seed"] == "3"
    assert f"checkpoint written to {out}" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    pytest.param(["sample", "--steps", "0"], "--steps must be >= 1, got 0", id="sample-steps"),
    pytest.param(["eval", "--steps", "0"], "--steps must be >= 1, got 0", id="eval-steps"),
    pytest.param(["eval", "--steps", "4", "--repetitions", "0"],
                 "eval.repetitions must be >= 1", id="eval-repetitions"),
])
def test_a_bad_numeric_flag_is_a_usage_error(tmp_path, capsys, argv, message):
    path = tmp_path / "model.ckpt"
    model = DenoiserModel.init(hidden=(4,), embed_dim=3, num_frequencies=2,
                               parameterization=Parameterization.X, seed=0)
    save_checkpoint(path, checkpoint_from_model(model, CosineSchedule()))
    assert main([argv[0], "--checkpoint", str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"snrdistill: error: {message}\n"
