import re

import numpy as np
import pytest

from snrdistill.checkpoint import load_checkpoint, save_checkpoint
from snrdistill.cli import main
from snrdistill.errors import CheckpointFormatError
from snrdistill.nnet import DenoiserModel, Parameterization
from snrdistill.schedule import CosineSchedule


def make_model(seed=0):
    return DenoiserModel.init(latent_dim=2, num_classes=3, hidden=(5, 4),
                              embed_dim=3, num_frequencies=2,
                              parameterization=Parameterization.X, seed=seed)


def test_round_trip_is_bitwise(tmp_path):
    model = make_model(1)
    schedule = CosineSchedule(t_min=2e-4)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, schedule,
                    provenance={"round": 2, "steps": 16, "strategy": "bsa", "seed": 7})
    loaded, loaded_schedule, provenance = load_checkpoint(path)
    assert loaded.parameterization is Parameterization.X
    assert loaded.hidden == (5, 4)
    assert loaded_schedule.t_min == 2e-4
    assert provenance == {"round": "2", "steps": "16", "strategy": "bsa", "seed": "7"}
    for k, v in model.params.items():
        np.testing.assert_array_equal(loaded.params[k], v)


def test_model_without_hidden_layer_round_trips(tmp_path):
    model = DenoiserModel.init(hidden=(), seed=3)
    path = tmp_path / "linear.ckpt"
    save_checkpoint(path, model, CosineSchedule())
    assert b"model.hidden = \n" in path.read_bytes()
    loaded, _, _ = load_checkpoint(path)
    assert loaded.hidden == ()
    assert loaded.params.keys() == model.params.keys()
    for k, v in model.params.items():
        np.testing.assert_array_equal(loaded.params[k], v)


def test_double_round_trip_is_identical_bytes(tmp_path):
    model = make_model(2)
    schedule = CosineSchedule()
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(p1, model, schedule, provenance={"round": 1, "seed": 3})
    loaded, loaded_schedule, provenance = load_checkpoint(p1)
    save_checkpoint(p2, loaded, loaded_schedule, provenance)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_file_reports_offset(tmp_path):
    model = make_model(3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, CosineSchedule())
    blob = path.read_bytes()
    truncated = tmp_path / "broken.ckpt"
    truncated.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointFormatError) as err:
        load_checkpoint(truncated)
    assert err.value.offset >= 0
    assert "byte offset" in str(err.value)


def test_corrupt_hex_reports_offset(tmp_path):
    model = make_model(4)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, CosineSchedule())
    lines = path.read_text().splitlines()
    hex_line = next(i for i, l in enumerate(lines) if l.startswith("param")) + 1
    lines[hex_line] = lines[hex_line][:-1] + "zz"
    broken = tmp_path / "bad.ckpt"
    broken.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(broken)


@pytest.mark.parametrize("damage, message", [
    (lambda line: line + "00" * 8, "too many values in param b0"),
    (lambda line: line[:-2], "hex line in param b0 is not a whole number of float64s"),
])
def test_a_bad_value_count_reports_the_offset_of_its_line(tmp_path, damage, message):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, make_model(5), CosineSchedule())
    lines = path.read_text().splitlines(keepends=True)
    at = lines.index("param b0 5\n") + 1  # b0's 5 values fit one hex line
    lines[at] = damage(lines[at].rstrip("\n")) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(CheckpointFormatError, match=message) as err:
        load_checkpoint(path)
    assert err.value.offset == len("".join(lines[:at]))


@pytest.mark.parametrize("key, bad", [
    ("model.latent_dim", "x"),
    ("model.hidden", "8,,8"),
    ("model.hidden", "8,0"),
    ("model.embed_dim", "-1"),
    ("model.num_frequencies", "-2"),
    ("schedule.t_min", "small"),
    ("schedule.t_min", "nan"),
    ("schedule.t_min", "2.0"),
    ("schedule.t_min", "1e-300"),
])
def test_a_bad_header_value_reports_the_offset_of_its_line(tmp_path, key, bad):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, make_model(5), CosineSchedule())
    lines = path.read_text().splitlines(keepends=True)
    at = next(j for j, line in enumerate(lines) if line.startswith(f"{key} = "))
    lines[at] = f"{key} = {bad}\n"
    path.write_text("".join(lines))
    with pytest.raises(CheckpointFormatError,
                       match=re.escape(f"bad header value {key} = {bad!r}")) as err:
        load_checkpoint(path)
    assert err.value.offset == len("".join(lines[:at])) > 0


@pytest.mark.parametrize("after, extra, message", [
    ("schedule.t_min = ", "schedule.t_min = 0.5", "header key schedule.t_min appears twice"),
    ("provenance.round = ", "provenance.round = 3",
     "header key provenance.round appears twice"),
    ("model.hidden = ", "model.bogus = 7", "unknown header key 'model.bogus'"),
], ids=["repeated-key", "repeated-provenance", "unknown-key"])
def test_a_header_key_is_written_once_and_known(tmp_path, after, extra, message):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, make_model(5), CosineSchedule(),
                    provenance={"round": 2, "steps": 16})
    lines = path.read_text().splitlines(keepends=True)
    at = next(j for j, line in enumerate(lines) if line.startswith(after)) + 1
    lines.insert(at, extra + "\n")
    path.write_text("".join(lines))
    with pytest.raises(CheckpointFormatError, match=f"^{re.escape(message)} ") as err:
        load_checkpoint(path)
    assert err.value.offset == len("".join(lines[:at]))


def test_version_mismatch_is_explicit(tmp_path):
    path = tmp_path / "v9.ckpt"
    path.write_text("snrdistill checkpoint v9\nend\n")
    with pytest.raises(CheckpointFormatError) as err:
        load_checkpoint(path)
    assert "version" in str(err.value)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_text("something else entirely\n")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_missing_header_field_rejected(tmp_path):
    path = tmp_path / "thin.ckpt"
    path.write_text("snrdistill checkpoint v1\nmodel.latent_dim = 2\nend\n")
    with pytest.raises(CheckpointFormatError) as err:
        load_checkpoint(path)
    assert "missing header" in str(err.value)


def _save_lines(path, model):
    save_checkpoint(path, model, CosineSchedule())
    return path.read_text().splitlines()


def test_missing_param_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    lines = _save_lines(path, make_model(5))
    start = lines.index(next(l for l in lines if l.startswith("param w1 ")))
    end = lines.index(next(l for l in lines if l.startswith("param b1 ")))
    path.write_text("\n".join(lines[:start] + lines[end:]) + "\n")
    with pytest.raises(CheckpointFormatError, match="w1"):
        load_checkpoint(path)


def test_param_shapes_must_match_the_header(tmp_path):
    # A consistent width-64 network, but not the one that
    # model.hidden = 128,128 describes.
    path = tmp_path / "cut.ckpt"
    lines = _save_lines(path, DenoiserModel.init(hidden=(64, 64), seed=0))
    lines[lines.index("model.hidden = 64,64")] = "model.hidden = 128,128"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointFormatError, match="w0"):
        load_checkpoint(path)


def test_duplicate_and_unknown_params_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    lines = _save_lines(path, make_model(6))
    b0 = lines.index(next(l for l in lines if l.startswith("param b0 ")))
    for name in ("embed", "extra"):
        block = [lines[b0].replace("b0", name, 1), lines[b0 + 1]]
        path.write_text("\n".join(lines[:b0] + block + lines[b0:]) + "\n")
        with pytest.raises(CheckpointFormatError, match=name):
            load_checkpoint(path)


def test_schedule_kind_is_written_and_only_cosine_loads(tmp_path):
    path = tmp_path / "model.ckpt"
    lines = _save_lines(path, make_model(7))
    assert lines[0] == "snrdistill checkpoint v1"
    assert "schedule.kind = cosine" in lines
    lines[lines.index("schedule.kind = cosine")] = "schedule.kind = linear"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointFormatError, match="unknown schedule kind 'linear'"):
        load_checkpoint(path)


def test_sample_reports_a_damaged_checkpoint_as_a_usage_error(tmp_path, capsys):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, make_model(8), CosineSchedule())
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    assert main(["sample", "--checkpoint", str(path), "--steps", "4", "--num", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("snrdistill: error: ")
    assert "byte offset" in captured.err
