"""Experiment driver: strategy comparison across the step-halving sequence.

For every training seed it trains one base teacher, evaluates undistilled
DDIM sampling at each step count in the halving sequence, then distills the
teacher once per configured weighting strategy and evaluates every round's
student at its own step count. The strategies of one seed share one cache of
round-1 teacher targets. Each evaluation is repeated with distinct
sampling seeds and all raw numbers land in metrics.csv; results.csv holds
the aggregated mean and 95% confidence interval per (strategy, steps) cell.
Everything is derived from explicit seeds, so identical configs reproduce
identical CSV bytes.

Students are scored from memory, as each distillation returns them. The
teacher and every round's student are also written as checkpoints
(seed_<s>/teacher.ckpt, seed_<s>/<strategy>/round_<k>.ckpt) for inspection
and resume; the run itself never reads them back.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import save_checkpoint
from .config import RunConfig, build_distill_config, build_train_config, serialize_config
from .data import ToyDataset, reference_population
from .distill import DistillTrace, TeacherTargetCache, progressive_distill
from .frechet import MomentFit, fit_moments, frechet_distance
from .nnet import DenoiserModel
from .sampler import SamplerConfig, sample
from .schedule import CosineSchedule
from .trainer import TrainResult, train_base
from .util import child_rng, fmt_float

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
                      metrics_file) -> None:
    for rep in range(cfg.eval.repetitions):
        fd = evaluate_model(model, schedule, dataset, ref, cfg, steps,
                            seed_tags=(seed, strategy, steps, rep))
        metrics_file.write(f"{seed},{strategy},{steps},{rep},{fmt_float(fd)}\n")
        metrics_file.flush()


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
    the weighting, which enters only the loss. The first strategy whose
    round 1 completes stores them in the seed's `TeacherTargetCache`, and
    the rest read them: steps_per_round x distill.batch_size x latent_dim
    doubles, 16 MB at the defaults.
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

            try:
                for steps in steps_list:
                    _eval_repetitions(teacher, schedule, dataset, ref, cfg, seed,
                                      BASELINE_NAME, steps, metrics_file)
            except Exception:
                errors.append(f"seed {seed}, {BASELINE_NAME}: evaluation failed\n"
                              f"{traceback.format_exc()}")

            targets = TeacherTargetCache()
            for strategy in cfg.run.strategies:
                strat_dir = seed_dir / strategy
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
                                          strategy, record.student_steps, metrics_file)
                except Exception:
                    errors.append(f"seed {seed}, strategy {strategy}: evaluation failed\n"
                                  f"{traceback.format_exc()}")
            del targets

    if errors:
        (out / "errors.log").write_text("\n".join(errors), encoding="utf-8")
    write_results(read_metrics(out / "metrics.csv"), out / "results.csv", cfg)
    return out


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


def aggregate(rows: list[MetricRow]) -> dict[tuple[str, int], tuple[float, float, int]]:
    """(strategy, steps) -> (mean, ci95, n) over every seed and repetition."""
    cells: dict[tuple[str, int], list[float]] = {}
    for row in rows:
        cells.setdefault((row.strategy, row.steps), []).append(row.fd)
    return {key: (*mean_ci95(values), len(values)) for key, values in cells.items()}


def write_results(rows: list[MetricRow], path: str | Path, cfg: RunConfig) -> None:
    """Aggregated report; also records the final-step strategy ordering."""
    cells = aggregate(rows)
    strategy_order = [BASELINE_NAME, *cfg.run.strategies]
    steps_order = halving_steps(cfg)

    lines = [
        "# snrdistill experiment report",
        "# ci95 = 1.96 * sd / sqrt(n) over the n evaluation runs pooled across "
        "seeds and repetitions (normal approximation)",
    ]
    final_steps = steps_order[-1]
    wanted = ("bsa", "min-snr", "trunc-snr")
    if all((name, final_steps) in cells for name in wanted):
        means = {name: cells[(name, final_steps)][0] for name in wanted}
        ok = means["bsa"] <= means["min-snr"] <= means["trunc-snr"]
        chain = " <= ".join(f"{name}={fmt_float(means[name])}" for name in wanted)
        lines.append(
            f"# ordering at {final_steps} steps: {chain} : "
            f"{'OK' if ok else 'VIOLATED'}"
        )
    lines.append(RESULTS_HEADER)
    for strategy in strategy_order:
        for steps in steps_order:
            if (strategy, steps) not in cells:
                continue
            mean, ci95, _ = cells[(strategy, steps)]
            lines.append(f"{strategy},{steps},{fmt_float(mean)},{fmt_float(ci95)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


def read_metrics(path: str | Path) -> list[MetricRow]:
    """The rows of a metrics.csv. A bad header or row raises ValueError
    naming the file and the line number."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise ValueError(f"{path}, line 1: expected the header {METRICS_HEADER!r}")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            seed, strategy, steps, rep, fd = line.split(",")
            rows.append(MetricRow(seed=int(seed), strategy=strategy, steps=int(steps),
                                  rep=int(rep), fd=float(fd)))
        except ValueError:
            raise ValueError(f"{path}, line {number}: expected a row of "
                             f"{METRICS_HEADER!r}, got {line!r}") from None
    return rows
