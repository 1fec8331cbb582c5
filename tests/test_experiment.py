import threading
from pathlib import Path

from snrdistill import checkpoint, experiment, nnet
from snrdistill.cli import main
from snrdistill.config import parse_config
from snrdistill.distill import round_seed

TINY = """\
model.hidden = 16,16
train.updates = 20
train.batch_size = 32
distill.n_start = 8
distill.iterations = 2
distill.steps_per_round = 4
distill.batch_size = 16
eval.num_samples = 64
eval.reference_samples = 256
eval.repetitions = 2
run.seeds = 1
run.strategies = min-snr,bsa
"""

# Everything a run writes except trace.csv, which differs between runs in its
# wall seconds only.
COMPARED = ["config.cfg", "metrics.csv", "results.csv", "seed_1/teacher.ckpt"] + [
    f"seed_1/{strategy}/round_{k}.ckpt" for strategy in ("min-snr", "bsa") for k in (1, 2)
]


def _outputs(run_dir: Path) -> dict[str, bytes]:
    assert not (run_dir / "errors.log").exists()
    written = {str(p.relative_to(run_dir)) for p in run_dir.rglob("*")
               if p.is_file() and p.name != "trace.csv"}
    assert written == set(COMPARED)
    return {name: (run_dir / name).read_bytes() for name in COMPARED}


def _run_cli(tmp_path: Path, name: str) -> Path:
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY, encoding="utf-8")
    out = tmp_path / name
    assert main(["experiment", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    return out


def test_run_experiment_twice_gives_identical_bytes(tmp_path):
    cfg = parse_config(TINY)
    first = _outputs(experiment.run_experiment(cfg, tmp_path / "a"))
    second = _outputs(experiment.run_experiment(cfg, tmp_path / "b"))
    assert first == second
    rows = experiment.read_metrics(tmp_path / "a" / "metrics.csv")
    # teacher at 8, 4 and 2 steps, each strategy at 4 and 2 steps; 2 repetitions each
    assert len(rows) == (3 + 2 * 2) * 2


def test_students_are_scored_without_reading_a_checkpoint(tmp_path, monkeypatch):
    def refuse(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(checkpoint, "load_checkpoint", refuse)
    monkeypatch.setattr(experiment, "load_checkpoint", refuse, raising=False)
    run_dir = experiment.run_experiment(parse_config(TINY), tmp_path / "run")
    _outputs(run_dir)
    assert len(experiment.read_metrics(run_dir / "metrics.csv")) == (3 + 2 * 2) * 2


def test_cli_experiment_twice_gives_identical_bytes(tmp_path, capsys):
    first = _outputs(_run_cli(tmp_path, "a"))
    second = _outputs(_run_cli(tmp_path, "b"))
    assert first == second
    assert "results in" in capsys.readouterr().out


def test_shared_round_one_targets_leave_the_run_unchanged(tmp_path, monkeypatch):
    cfg = parse_config(TINY)
    shared = _outputs(experiment.run_experiment(cfg, tmp_path / "shared"))
    real = experiment.progressive_distill

    def without_cache(*args, targets=None, **kwargs):
        return real(*args, **kwargs)

    monkeypatch.setattr(experiment, "progressive_distill", without_cache)
    alone = _outputs(experiment.run_experiment(cfg, tmp_path / "alone"))
    assert shared == alone


def test_cache_is_built_for_each_seed(monkeypatch, tmp_path):
    built = []
    real = experiment.TeacherTargetCache

    def recording(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(experiment, "TeacherTargetCache", recording)
    cfg = parse_config(TINY + "run.seeds = 1,2\n")
    experiment.run_experiment(cfg, tmp_path)
    # Each cache is keyed by its seed's round 1: 4 steps, the round seed,
    # batch 16 and 4 updates.
    assert [cache.key[1:] for cache in built] == [
        (4, round_seed(1, 1), 16, 4), (4, round_seed(2, 1), 16, 4)]
    assert all(len(cache.z0_tilde) == 4 for cache in built)
    assert built[0].key[0] is not built[1].key[0]
    assert not (tmp_path / "errors.log").exists()


def test_cli_and_library_runs_agree(tmp_path):
    via_cli = _outputs(_run_cli(tmp_path, "cli"))
    via_lib = _outputs(experiment.run_experiment(parse_config(TINY), tmp_path / "lib"))
    assert via_cli == via_lib


def test_trace_checkpoints_resolve_next_to_the_trace(tmp_path):
    cfg = parse_config(TINY)
    columns = []
    for name in ("a", "nested/b"):
        run_dir = experiment.run_experiment(cfg, tmp_path / name)
        for strategy in ("min-snr", "bsa"):
            trace_path = run_dir / "seed_1" / strategy / "trace.csv"
            lines = trace_path.read_text(encoding="utf-8").splitlines()
            entries = [line.rsplit(",", 1)[1] for line in lines[1:]]
            assert all((trace_path.parent / entry).is_file() for entry in entries)
            columns.append(entries)
    assert columns[:2] == columns[2:] == [["round_1.ckpt", "round_2.ckpt"]] * 2


def test_forward_split_leaves_the_run_unchanged(tmp_path, monkeypatch):
    # 1024 evaluation latents, so every sampling forward spans 4 row blocks.
    cfg = parse_config(TINY + "eval.num_samples = 1024\n")
    threads = set()
    real = nnet.expit

    def recording(a, out=None):
        threads.add(threading.get_ident())
        return real(a, out=out)

    monkeypatch.setattr(nnet, "expit", recording)
    split = _outputs(experiment.run_experiment(cfg, tmp_path / "split"))
    assert (len(threads) > 1) == (nnet._available_cpus() > 1)
    monkeypatch.setattr(nnet, "_available_cpus", lambda: 1)
    assert _outputs(experiment.run_experiment(cfg, tmp_path / "single")) == split


def test_model_without_hidden_layer_runs_every_strategy(tmp_path):
    cfg = parse_config(TINY.replace("model.hidden = 16,16", "model.hidden = "))
    assert cfg.model.hidden == ()
    run_dir = experiment.run_experiment(cfg, tmp_path / "linear")
    assert not (run_dir / "errors.log").exists()
    rows = experiment.read_metrics(run_dir / "metrics.csv")
    assert len(rows) == (3 + 2 * 2) * 2
