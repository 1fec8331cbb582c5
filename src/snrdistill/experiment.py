"""Experiment driver: strategy comparison across the step-halving sequence.

For every training seed it trains one base teacher, evaluates undistilled
DDIM sampling at each step count in the halving sequence, then distills the
teacher once per configured weighting strategy and evaluates every round's
student at its own step count. The strategies of one seed share one cache of
round-1 teacher targets. Each evaluation is repeated with distinct
sampling seeds and all raw numbers land in metrics.csv. results.csv is the
per-cell aggregate of metrics.csv: the mean and 95% confidence interval of
each (strategy, steps) cell, and nothing else; it states no ordering of the
strategies. Everything is derived from explicit seeds, so identical configs
reproduce identical CSV bytes.

Once a seed's teacher is trained, the rest of the seed is a list of cells:
the teacher-ddim evaluation (`_baseline_cell`) first, then one cell per
strategy (`_strategy_cell`). A cell's bytes depend only on its seeds, the
teacher and the round-1 cache, so the cells of a seed can run side by side:
where the platform has `os.fork` and numpy's BLAS runs on one thread, at
most one process per available CPU runs a cell at a time, the calling
process counted while it runs one. Every cell but the seed's last runs in a
forked child, forked as soon as a CPU is free. The baseline's child is
forked before the caller computes the round-1 cache, so the cache runs
beside it. The last cell runs in the caller as soon as fewer children than
CPUs are running, beside those, and the caller joins them after it.

The last cell stays in the caller because the benchmark reads its
distillation and sampling throughputs there (its traced spans do not reach
into a child). Beside a child it runs slower than alone: on
bench/experiment.cfg, 2-vCPU Xeon, one BLAS thread, the caller's distill
samples/s fell 3.5% against the last cell run alone, and its sampled latent
steps/s were flat within the noise, while the run's wall time fell 8%
(medians of 12 benchmark pairs).

OpenBLAS's own threads, one per CPU unless it is told otherwise, spin on
every CPU, and cells competing with them ran slower than cells in turn:
`snrdistill experiment` on bench/experiment.cfg took 3.5 s with forked
cells against 1.2 s on one BLAS thread and 1.5 s with every cell in the
caller. So cells fork only on one BLAS thread, which importing the package
sets by default (see the package's docstring). A cell, in a child or in the
caller, may fork a child of its own, to compute a distillation round's
teacher targets while the round's student trains (see the distill module's
docstring). No byte depends on where a cell ran or on the number of CPUs.

Students are scored from memory, as each distillation returns them. The
teacher and every round's student are also written as checkpoints
(seed_<s>/teacher.ckpt, seed_<s>/<strategy>/round_<k>.ckpt) for inspection
and resume; the run itself never reads them back.
"""

from __future__ import annotations

import json
import os
import traceback
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import nnet
from .checkpoint import save_checkpoint
from .config import RunConfig, build_distill_config, build_train_config, serialize_config
from .data import ToyDataset, reference_population
from .distill import DistillTrace, cache_round_targets, progressive_distill, round_seed
from .frechet import MomentFit, fit_moments, frechet_distance
from .nnet import DenoiserModel
from .sampler import SamplerConfig, sample
from .schedule import CosineSchedule
from .trainer import TrainResult, train_base
from .util import _fork, _kill, child_rng, fmt_float

BASELINE_NAME = "teacher-ddim"

METRICS_HEADER = "seed,strategy,steps,rep,fd"
RESULTS_HEADER = "strategy,steps,mean,ci95"


@dataclass(frozen=True)
class MetricRow:
    seed: int
    strategy: str
    steps: int
    rep: int
    fd: float


# The benchmark builds its dataset and schedule through these two.
def build_dataset(cfg: RunConfig) -> ToyDataset:
    return cfg.dataset


def build_schedule(cfg: RunConfig) -> CosineSchedule:
    return cfg.schedule


def train_teacher(cfg: RunConfig, seed: int, dataset: ToyDataset, schedule: CosineSchedule,
                  path: str | Path) -> TrainResult:
    """Train the base teacher of `seed` and save it to `path` as round 0,
    creating `path`'s directory first."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    result = train_base(build_train_config(cfg, seed), dataset, schedule)
    save_checkpoint(path, result.model, schedule, provenance={
        "round": 0, "steps": cfg.distill.n_start, "strategy": cfg.train.strategy, "seed": seed,
    })
    return result


def reference_fit(cfg: RunConfig, dataset: ToyDataset) -> MomentFit:
    # The last tag is a fixed 0: another value would redraw every reference
    # population, and with it every FD.
    rng = child_rng(cfg.eval.seed, "reference", 0)
    return fit_moments(reference_population(dataset, cfg.eval.reference_samples, rng))


def evaluate_model(model: DenoiserModel, schedule: CosineSchedule, dataset: ToyDataset,
                   ref: MomentFit, cfg: RunConfig, steps: int, seed_tags: tuple) -> float:
    """One Frechet evaluation: sample a mixed-class population, fit, compare."""
    rng = child_rng(cfg.eval.seed, *seed_tags)
    conds = rng.integers(0, dataset.num_classes, size=cfg.eval.num_samples)
    sampler_seed = int(rng.integers(0, 2**63 - 1))
    z = sample(model, conds, SamplerConfig(steps=steps, seed=sampler_seed), schedule)
    return frechet_distance(fit_moments(z), ref)


def _eval_repetitions(model, schedule, dataset, ref, cfg, seed, strategy, steps,
                      lines: list[str]) -> None:
    """Appends one metrics.csv line per repetition to `lines` as it completes."""
    for rep in range(cfg.eval.repetitions):
        fd = evaluate_model(model, schedule, dataset, ref, cfg, steps,
                            seed_tags=(seed, strategy, steps, rep))
        lines.append(f"{seed},{strategy},{steps},{rep},{fmt_float(fd)}\n")


def halving_steps(cfg: RunConfig) -> list[int]:
    """Step counts in the comparison: n_start, n_start/2, ..., n_start/2^K."""
    return [cfg.distill.n_start >> k for k in range(cfg.distill.iterations + 1)]


def run_experiment(cfg: RunConfig, output_dir: str | Path | None = None) -> Path:
    """Execute the full comparison; returns the output directory.

    Failures of a strategy, or of the teacher-ddim baseline's evaluation, are
    logged to errors.log and do not abort the rest of the run; whatever
    metrics were collected stay on disk, including those of the rounds a
    strategy completed before it failed. results.csv is aggregated from
    metrics.csv, as `snrdistill report` does.

    Every strategy of a seed distills the same teacher with the same seed
    for the same `steps_per_round` updates, so round 1 draws the same
    batches for each and the teacher's targets for them do not depend on
    the weighting, which enters only the loss. The caller computes them
    once per seed, before any strategy cell runs, into a
    `TeacherTargetCache` (steps_per_round x distill.batch_size x latent_dim
    doubles, 16 MB at the defaults), and every strategy cell reads them.

    Each seed trains its teacher in the caller, then runs its cells
    (`_seed_cells`: the baseline, then the strategies) through
    `_run_cells`, which keeps at most one cell per available CPU running.
    The baseline forks first, and the round-1 cache is computed beside it;
    every cell but the last runs in a forked child, and the last in the
    caller as soon as a CPU frees, since the benchmark reads its
    distillation and sampling throughputs there. metrics.csv gets each
    seed's rows in the order of a serial run, the baseline first and then
    the strategies in `run.strategies` order, so no byte depends on where a
    cell ran. A child that dies without reporting is logged as its cell's
    error, and no child outlives the call.
    """
    out = Path(output_dir if output_dir is not None else cfg.run.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.cfg").write_text(serialize_config(cfg), encoding="utf-8")

    dataset, schedule = cfg.dataset, cfg.schedule
    ref = reference_fit(cfg, dataset)
    steps_list = halving_steps(cfg)

    errors: list[str] = []
    with open(out / "metrics.csv", "w", encoding="ascii", newline="\n") as metrics_file:
        metrics_file.write(METRICS_HEADER + "\n")
        for seed in cfg.run.seeds:
            seed_dir = out / f"seed_{seed}"
            try:
                teacher = train_teacher(cfg, seed, dataset, schedule,
                                        seed_dir / "teacher.ckpt").model
            except Exception:
                errors.append(f"seed {seed}: train_base failed\n{traceback.format_exc()}")
                continue

            # The generator holds the seed's round-1 cache. Passed straight in,
            # it is freed as soon as `_run_cells` returns.
            results = _run_cells(
                _seed_cells(cfg, seed, teacher, dataset, schedule, ref, steps_list, seed_dir),
                len(cfg.run.strategies) + 1)
            for cell_lines, cell_errors in results:
                metrics_file.writelines(cell_lines)
                errors += cell_errors
            metrics_file.flush()

    if errors:
        (out / "errors.log").write_text("\n".join(errors), encoding="utf-8")
    write_results(read_metrics(out / "metrics.csv"), out / "results.csv")
    return out


def _seed_cells(cfg, seed, teacher, dataset, schedule, ref, steps_list, seed_dir: Path):
    """Yields the seed's cells as (name, cell), the baseline first and then
    each strategy in `run.strategies` order. The round-1 cache is computed
    when the first strategy cell is drawn, so that it runs beside a forked
    baseline."""
    yield (f"seed {seed}, {BASELINE_NAME}",
           partial(_baseline_cell, cfg, seed, teacher, dataset, schedule, ref, steps_list))
    try:
        dconfig = build_distill_config(cfg, cfg.run.strategies[0], seed)
        targets = cache_round_targets(teacher, dconfig, dconfig.n_start >> 1, dataset,
                                      schedule, round_seed(seed, 1))
    except Exception:
        # Each strategy's own round 1 then meets the error and logs it.
        targets = None
    for strategy in cfg.run.strategies:
        yield (f"seed {seed}, strategy {strategy}",
               partial(_strategy_cell, cfg, seed, strategy, teacher, targets, dataset,
                       schedule, ref, seed_dir / strategy))


def _baseline_cell(cfg, seed, teacher, dataset, schedule, ref,
                   steps_list) -> tuple[list[str], list[str]]:
    """Evaluate the teacher's own DDIM sampler at every step count in
    `steps_list`. Returns the cell's metrics.csv lines, those of the
    evaluations that completed, and its error texts."""
    lines: list[str] = []
    errors: list[str] = []
    try:
        for steps in steps_list:
            _eval_repetitions(teacher, schedule, dataset, ref, cfg, seed, BASELINE_NAME,
                              steps, lines)
    except Exception:
        errors.append(f"seed {seed}, {BASELINE_NAME}: evaluation failed\n"
                      f"{traceback.format_exc()}")
    return lines, errors


def _strategy_cell(cfg, seed, strategy, teacher, targets, dataset, schedule, ref,
                   strat_dir: Path) -> tuple[list[str], list[str]]:
    """Distill `teacher` under `strategy`, write its checkpoints and trace.csv
    to `strat_dir`, and evaluate every round it completed. Returns the cell's
    metrics.csv lines and its error texts."""
    lines: list[str] = []
    errors: list[str] = []
    strat_dir.mkdir(exist_ok=True)
    try:
        dconfig = build_distill_config(cfg, strategy, seed)
        _, trace = progressive_distill(
            teacher, dconfig, dataset, schedule,
            checkpoint_dir=strat_dir, seed=seed, targets=targets,
        )
    except Exception as exc:
        errors.append(f"seed {seed}, strategy {strategy}: distillation failed\n"
                      f"{traceback.format_exc()}")
        trace = getattr(exc, "distill_trace", DistillTrace())
    try:
        _write_trace(strat_dir / "trace.csv", trace)
        for record in trace.rounds:
            _eval_repetitions(record.student, schedule, dataset, ref, cfg, seed,
                              strategy, record.student_steps, lines)
    except Exception:
        errors.append(f"seed {seed}, strategy {strategy}: evaluation failed\n"
                      f"{traceback.format_exc()}")
    return lines, errors


def _run_cells(cells: Iterable[tuple[str, Callable]],
               count: int) -> list[tuple[list[str], list[str]]]:
    """Runs the `count` (name, cell) pairs of `cells` and returns each cell's
    (lines, errors), in order.

    Where `os.fork` exists and BLAS runs on one thread
    (`nnet._one_blas_thread()`), at most `nnet._available_cpus()` processes
    run cells at a time, this one counted while it runs a cell. Every cell
    but the last forks in order as soon as a slot is free; the last runs
    here as soon as fewer than `_available_cpus()` children are running,
    beside those, and the rest are joined after it. The last runs here and
    not in a child so that a caller that measures this process, as the
    benchmark does, still sees one cell's work. Elsewhere all run here,
    one after another. A cell is drawn from `cells` only once its slot is
    free, so work the iterator does before yielding it runs beside the
    children already forked. Whether the call returns or raises, no child
    outlives it.
    """
    cells = iter(cells)
    if not (hasattr(os, "fork") and nnet._one_blas_thread()):
        return [cell() for _, cell in cells]
    results = [None] * count
    children = []  # (index, name, pid, read end of its pipe), oldest first
    try:
        for index in range(count):
            while len(children) >= nnet._available_cpus():
                _join(children, results)
            name, cell = next(cells)
            if index < count - 1:
                children.append((index, name, *_fork(partial(_report, cell))))
            else:
                results[index] = cell()
        while children:
            _join(children, results)
    finally:
        for _, _, pid, pipe in children:
            _kill(pid, pipe)
    return results


def _report(cell, pipe) -> None:
    """Runs `cell` and sends its result on `pipe` as JSON."""
    pipe.write(json.dumps(cell()).encode("utf-8"))


def _join(children: list, results: list) -> None:
    """Reads the oldest child's pipe to EOF, reaps the child, drops it from
    `children` and stores its cell's (lines, errors) in `results`. A child
    that exits without a full report yields one error."""
    index, name, pid, pipe = children[0]
    with pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    children.pop(0)
    code = os.waitstatus_to_exitcode(status)
    results[index] = json.loads(payload) if code == 0 else (
        [], [f"{name}: its process exited with status {code} without reporting\n"])


def _write_trace(path: Path, trace) -> None:
    """One row per round; checkpoint paths are relative to `path`'s directory,
    so a moved or copied run directory still points at its own checkpoints."""
    lines = ["round,teacher_steps,student_steps,final_loss,updates_run,seconds,checkpoint"]
    for r in trace.rounds:
        lines.append(
            f"{r.round_index},{r.teacher_steps},{r.student_steps},"
            f"{fmt_float(r.final_loss)},{r.updates_run},{fmt_float(r.seconds)},"
            f"{os.path.relpath(r.checkpoint, path.parent)}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def mean_ci95(values) -> tuple[float, float]:
    """The mean and its normal-approximation 95% half-width, 1.96 * sd / sqrt(n)."""
    arr = np.asarray(values)
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), float(1.96 * sd / np.sqrt(arr.size))


def aggregate(rows: list[MetricRow]) -> dict[tuple[str, int], tuple[float, float]]:
    """(strategy, steps) -> (mean, ci95) over every seed and repetition,
    the cells in the order they first appear in `rows`."""
    cells: dict[tuple[str, int], list[float]] = {}
    for row in rows:
        cells.setdefault((row.strategy, row.steps), []).append(row.fd)
    return {key: mean_ci95(values) for key, values in cells.items()}


def write_results(rows: list[MetricRow], path: str | Path) -> None:
    """The per-cell aggregate of `rows`: two comment lines, the header, then
    one `strategy,steps,mean,ci95` line per (strategy, steps) cell, in the
    order the cells first appear in `rows`. It states no ordering of the
    strategies. A run writes its metrics baseline first, then each strategy
    in `run.strategies` order with steps descending, so the report of a run
    needs nothing but its metrics."""
    lines = [
        "# snrdistill experiment report",
        "# ci95 = 1.96 * sd / sqrt(n) over the n evaluation runs pooled across "
        "seeds and repetitions (normal approximation)",
        RESULTS_HEADER,
    ]
    for (strategy, steps), (mean, ci95) in aggregate(rows).items():
        lines.append(f"{strategy},{steps},{fmt_float(mean)},{fmt_float(ci95)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


def read_metrics(path: str | Path) -> list[MetricRow]:
    """The rows of a metrics.csv. A bad header or row, a non-finite fd, or
    a second row of one (seed, strategy, steps, rep), which would be pooled
    twice into too narrow a ci95, raises ValueError naming the file and the
    line number."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise ValueError(f"{path}, line 1: expected the header {METRICS_HEADER!r}")
    rows: dict[tuple, MetricRow] = {}
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            seed, strategy, steps, rep, fd = line.split(",")
            row = MetricRow(seed=int(seed), strategy=strategy, steps=int(steps),
                            rep=int(rep), fd=float(fd))
        except ValueError:
            raise ValueError(f"{path}, line {number}: expected a row of "
                             f"{METRICS_HEADER!r}, got {line!r}") from None
        if not np.isfinite(row.fd):
            raise ValueError(f"{path}, line {number}: fd must be finite, got {line!r}")
        key = (row.seed, row.strategy, row.steps, row.rep)
        if key in rows:
            raise ValueError(f"{path}, line {number}: repeats the row of seed {row.seed}, "
                             f"{row.strategy}, {row.steps} steps, rep {row.rep}")
        rows[key] = row
    return list(rows.values())
