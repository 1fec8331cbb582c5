import errno
import functools
import math
import os
import threading
import time
from pathlib import Path

import pytest

from snrdistill import checkpoint, distill, experiment, nnet, util
from snrdistill.cli import main
from snrdistill.config import parse_config
from snrdistill.distill import round_seed
from snrdistill.errors import DistillationDivergedError
from snrdistill.util import fmt_float

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


def _outputs(run_dir: Path, compared=COMPARED) -> dict[str, bytes]:
    assert not (run_dir / "errors.log").exists()
    written = {str(p.relative_to(run_dir)) for p in run_dir.rglob("*")
               if p.is_file() and p.name != "trace.csv"}
    assert written == set(compared)
    return {name: (run_dir / name).read_bytes() for name in compared}


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
    real = experiment.cache_round_targets

    def recording(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(experiment, "cache_round_targets", recording)
    cfg = parse_config(TINY + "run.seeds = 1,2\n")
    experiment.run_experiment(cfg, tmp_path)
    # Each cache is keyed by its seed's round 1: 4 steps, the round seed,
    # batch 16 and 4 updates.
    assert [cache.key[1:] for cache in built] == [
        (4, round_seed(1, 1), 16, 4), (4, round_seed(2, 1), 16, 4)]
    # 4 updates of 16 rows fill one stack.
    assert [[len(z0_tilde) for z0_tilde in cache.z0_tilde] for cache in built] == [[64], [64]]
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


THREE = TINY.replace("run.strategies = min-snr,bsa", "run.strategies = trunc-snr,min-snr,bsa")


# Two seeds of three strategies.
THREE_COMPARED = ["config.cfg", "metrics.csv", "results.csv"] + [
    f"seed_{seed}/{name}" for seed in (1, 2) for name in ["teacher.ckpt"] + [
        f"{strategy}/round_{k}.ckpt" for strategy in ("trunc-snr", "min-snr", "bsa")
        for k in (1, 2)]]


def counting_forks(monkeypatch):
    """Counts the forks this process makes, and the Python threads it has
    just after each; returns that list of thread counts."""
    threads = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            threads.append(threading.active_count())
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return threads


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_cells_in_forked_children_leave_the_run_unchanged(tmp_path, monkeypatch):
    # 1024 evaluation latents, so the teacher's evaluation starts the
    # forward's pool before the first fork.
    cfg = parse_config(THREE + "eval.num_samples = 1024\nrun.seeds = 1,2\n")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    runs = {}
    for cpus in (2, 1):
        monkeypatch.setattr(nnet, "_available_cpus", lambda: cpus)
        forks = counting_forks(monkeypatch)
        runs[cpus] = _outputs(experiment.run_experiment(cfg, tmp_path / f"cpus{cpus}"),
                              THREE_COMPARED)
        # Every cell of a seed but its last in a child, the baseline included,
        # forked from one thread.
        assert forks == [1] * 6
    # With OpenBLAS's own threads every cell runs in the caller.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    forks = counting_forks(monkeypatch)
    blas = _outputs(experiment.run_experiment(cfg, tmp_path / "blas"), THREE_COMPARED)
    assert forks == []
    monkeypatch.delattr(os, "fork")
    nofork = _outputs(experiment.run_experiment(cfg, tmp_path / "nofork"), THREE_COMPARED)
    assert runs[2] == runs[1] == blas == nofork
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _overlap(intervals, instant) -> int:
    return sum(1 for start, end in intervals if start <= instant < end)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_run_cells_keeps_every_slot_busy_and_no_more(tmp_path, monkeypatch, cpus):
    log = tmp_path / "cells.log"
    count = 4

    # Each cell outlasts the one before it, so the children still run when
    # the first of them ends.
    def cell(index):
        start = time.monotonic()
        time.sleep(0.2 * (index + 1))
        with open(log, "a", encoding="ascii") as f:
            f.write(f"{index} {os.getpid()} {start!r} {time.monotonic()!r}\n")
        return [str(index)], []

    draws = []

    def cells():
        for index in range(count):
            draws.append(time.monotonic())
            yield f"cell {index}", functools.partial(cell, index)

    monkeypatch.setattr(nnet, "_available_cpus", lambda: cpus)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    results = experiment._run_cells(cells(), count)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert [tuple(result) for result in results] == [([str(i)], []) for i in range(count)]
    records = sorted(line.split() for line in log.read_text(encoding="ascii").splitlines())
    assert [int(index) for index, *_ in records] == list(range(count))
    pids = [int(pid) for _, pid, _, _ in records]
    intervals = [(float(start), float(end)) for *_, start, end in records]
    # Every cell but the last ran in a child of its own, the last here.
    assert pids[-1] == os.getpid() and len(set(pids[:-1]) | {os.getpid()}) == count
    # At most `cpus` cells at any instant, and every slot taken.
    assert max(_overlap(intervals, start) for start, _ in intervals) == min(cpus, count)
    # Each cell is drawn only once a slot is free for it.
    assert all(_overlap(intervals[:index], draw) < cpus for index, draw in enumerate(draws))
    # The last cell starts as soon as a slot frees, beside the children still
    # running; on one CPU only after every child has ended.
    last_start = intervals[-1][0]
    children_end = max(end for _, end in intervals[:-1])
    assert (last_start < children_end) == (cpus > 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_whose_reader_has_gone_exits_at_once():
    def write_forever(pipe):
        while True:
            pipe.write(bytes(65536))

    pid, pipe = util._fork(write_forever)
    pipe.close()
    deadline = time.monotonic() + 30
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if status[0] == 0:
        util._kill(pid, pipe)
    # BrokenPipeError in the child's write, so os._exit(1).
    assert os.waitstatus_to_exitcode(status[1]) == 1 and status[0] == pid
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_fork_that_fails_leaves_no_descriptor_open(monkeypatch):
    def no_process():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", no_process)
    before = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        util._fork(lambda pipe: None)
    assert sorted(os.listdir("/proc/self/fd")) == before


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_child_that_exits_without_reporting_is_logged_and_the_run_goes_on(tmp_path,
                                                                          monkeypatch):
    caller = os.getpid()
    real = experiment.progressive_distill

    def exit_under_min_snr(teacher, config, *args, **kwargs):
        if config.strategy.name == "min-snr" and os.getpid() != caller:
            os._exit(3)
        return real(teacher, config, *args, **kwargs)

    monkeypatch.setattr(experiment, "progressive_distill", exit_under_min_snr)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    run_dir = experiment.run_experiment(parse_config(TINY), tmp_path / "run")
    errors = (run_dir / "errors.log").read_text(encoding="utf-8")
    assert errors == ("seed 1, strategy min-snr: its process exited with status 3 "
                      "without reporting\n")
    rows = experiment.read_metrics(run_dir / "metrics.csv")
    assert sorted({(row.strategy, row.steps) for row in rows}) == [
        ("bsa", 2), ("bsa", 4), ("teacher-ddim", 2), ("teacher-ddim", 4), ("teacher-ddim", 8)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_baseline_child_that_exits_without_reporting_keeps_every_strategy_row(tmp_path,
                                                                                 monkeypatch):
    caller = os.getpid()
    real = experiment._baseline_cell

    def exit_in_a_child(*args):
        if os.getpid() != caller:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(experiment, "_baseline_cell", exit_in_a_child)
    monkeypatch.setattr(nnet, "_available_cpus", lambda: 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    run_dir = experiment.run_experiment(parse_config(TINY), tmp_path / "run")
    errors = (run_dir / "errors.log").read_text(encoding="utf-8")
    assert errors == "seed 1, teacher-ddim: its process exited with status 3 without reporting\n"
    rows = experiment.read_metrics(run_dir / "metrics.csv")
    assert sorted({(row.strategy, row.steps) for row in rows}) == [
        ("bsa", 2), ("bsa", 4), ("min-snr", 2), ("min-snr", 4)]
    assert len(rows) == 2 * 2 * 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_no_child_outlives_a_run_that_raises(tmp_path, monkeypatch):
    # The first child hangs in its cell; the second fork fails in the caller.
    caller = os.getpid()
    real_distill = experiment.progressive_distill

    def hang_in_a_child(*args, **kwargs):
        if os.getpid() != caller:
            time.sleep(60)
        return real_distill(*args, **kwargs)

    real_fork = os.fork
    forks = []

    def failing_second_fork():
        forks.append(1)
        if len(forks) == 2:
            raise RuntimeError("no second child")
        return real_fork()

    monkeypatch.setattr(experiment, "progressive_distill", hang_in_a_child)
    monkeypatch.setattr(os, "fork", failing_second_fork)
    monkeypatch.setattr(nnet, "_available_cpus", lambda: 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="no second child"):
        experiment.run_experiment(parse_config(THREE), tmp_path / "run")
    assert time.monotonic() - started < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_model_without_hidden_layer_runs_every_strategy(tmp_path):
    cfg = parse_config(TINY.replace("model.hidden = 16,16", "model.hidden = "))
    assert cfg.model.hidden == ()
    run_dir = experiment.run_experiment(cfg, tmp_path / "linear")
    assert not (run_dir / "errors.log").exists()
    rows = experiment.read_metrics(run_dir / "metrics.csv")
    assert len(rows) == (3 + 2 * 2) * 2


def test_rounds_completed_before_a_failing_round_are_scored_and_traced(tmp_path, monkeypatch):
    real = distill.distill_round

    def failing_last(teacher, student, config, n_steps, *args, **kwargs):
        if n_steps == 2:
            raise DistillationDivergedError(t=0.5, weight=1.0, loss=float("nan"))
        return real(teacher, student, config, n_steps, *args, **kwargs)

    monkeypatch.setattr(distill, "distill_round", failing_last)
    run_dir = experiment.run_experiment(parse_config(TINY), tmp_path / "run")
    errors = (run_dir / "errors.log").read_text(encoding="utf-8")
    for strategy in ("min-snr", "bsa"):
        assert f"seed 1, strategy {strategy}: distillation failed" in errors
        lines = (run_dir / "seed_1" / strategy / "trace.csv").read_text(encoding="utf-8")
        assert [line.split(",")[0] for line in lines.splitlines()[1:]] == ["1"]
    rows = experiment.read_metrics(run_dir / "metrics.csv")
    # The teacher at 8, 4 and 2 steps and each strategy's round-1 student at
    # 4 steps, 2 repetitions each.
    assert sorted({(row.strategy, row.steps) for row in rows}) == [
        ("bsa", 4), ("min-snr", 4), ("teacher-ddim", 2), ("teacher-ddim", 4), ("teacher-ddim", 8)]
    assert len(rows) == (3 + 2) * 2


def test_a_failed_baseline_evaluation_is_logged_and_the_strategies_still_run(tmp_path,
                                                                            monkeypatch):
    # The teacher predicts noise and the students clean latents, so a NaN in
    # every teacher sample population fails the teacher-ddim evaluations only.
    real = experiment.sample

    def nan_for_the_teacher(model, *args, **kwargs):
        z = real(model, *args, **kwargs)
        if model.parameterization is nnet.Parameterization.EPSILON:
            z[0, 0] = float("nan")
        return z

    monkeypatch.setattr(experiment, "sample", nan_for_the_teacher)
    # One BLAS thread, so the baseline cell runs in a forked child.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    run_dir = experiment.run_experiment(parse_config(TINY), tmp_path / "run")
    errors = (run_dir / "errors.log").read_text(encoding="utf-8")
    assert errors.startswith("seed 1, teacher-ddim: evaluation failed\n")
    assert "1 of 64 samples hold a non-finite value" in errors
    rows = experiment.read_metrics(run_dir / "metrics.csv")
    assert sorted({(row.strategy, row.steps) for row in rows}) == [
        ("bsa", 2), ("bsa", 4), ("min-snr", 2), ("min-snr", 4)]
    assert len(rows) == 2 * 2 * 2
    assert all(math.isfinite(row.fd) for row in rows)
    results = (run_dir / "results.csv").read_text(encoding="ascii")
    assert "teacher-ddim" not in results and "nan" not in results


def test_report_on_a_runs_metrics_rewrites_its_results(tmp_path, capsys):
    run_dir = _run_cli(tmp_path, "run")
    out = tmp_path / "report.csv"
    assert main(["report", "--metrics", str(run_dir / "metrics.csv"), "--out", str(out)]) == 0
    assert out.read_bytes() == (run_dir / "results.csv").read_bytes()


def test_report_writes_every_cell_of_its_metrics_in_the_order_it_first_appears(tmp_path,
                                                                                capsys):
    # The default config lists neither cell, and eps-snr comes first because its
    # rows do.
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("seed,strategy,steps,rep,fd\n"
                       "1,eps-snr,2,0,0.5\n1,bsa,4,0,0.25\n2,eps-snr,2,0,0.75\n")
    out = tmp_path / "results.csv"
    assert main(["report", "--metrics", str(metrics), "--out", str(out)]) == 0
    mean, ci95 = experiment.mean_ci95([0.5, 0.75])
    assert out.read_text(encoding="ascii").splitlines()[2:] == [
        experiment.RESULTS_HEADER,
        f"eps-snr,2,{fmt_float(mean)},{fmt_float(ci95)}",
        "bsa,4,0.25,0.0",
    ]
    assert capsys.readouterr().out == f"aggregated 3 metric rows into {out}\n"


def test_report_writes_only_the_cells_of_its_metrics_and_states_no_ordering(tmp_path):
    cells = [(strategy, steps, scale * (3 - k) / 8) for steps, scale in ((5, 2.0), (3, 1.0))
             for k, strategy in enumerate(("trunc-snr", "min-snr", "bsa"))]
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("seed,strategy,steps,rep,fd\n"
                       + "".join(f"1,{strategy},{steps},0,{fd}\n" for strategy, steps, fd in cells))
    out = tmp_path / "results.csv"
    assert main(["report", "--metrics", str(metrics), "--out", str(out)]) == 0
    report = out.read_text(encoding="ascii").splitlines()
    assert all(line.startswith("# ") for line in report[:2])
    assert report[2:] == [experiment.RESULTS_HEADER] + [
        f"{strategy},{steps},{fmt_float(fd)},0.0" for strategy, steps, fd in cells]
