"""Command-line interface.

Subcommands: train, distill, sample, eval, weights-table, report, experiment,
print-config.
All numeric work is driven by a config file (see config.py for the format);
flags set only the seeds, paths, and strategy choices that vary between
invocations, and every other setting is a config key.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint
from .config import build_distill_config, load_config, serialize_config
from .distill import progressive_distill
from .errors import CheckpointFormatError, ConfigError
from .experiment import (
    evaluate_model,
    mean_ci95,
    read_metrics,
    reference_fit,
    run_experiment,
    train_teacher,
    write_results,
)
from .nnet import Parameterization
from .sampler import SamplerConfig, sample
from .schedule import CosineSchedule
from .util import child_rng, fmt_float
from .weighting import STRATEGY_NAMES, strategy_from_name


def _add_config_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="run config file; defaults apply when omitted")


def _read_input(flag: str, path, read):
    """`read(path)`, the input file named by `flag`; a usage error if it
    does not exist or cannot be read. Each subcommand reads its inputs
    before it writes."""
    try:
        return read(path)
    except FileNotFoundError:
        raise ConfigError(f"{flag}: no such file: {path}") from None
    except OSError as exc:
        raise ConfigError(f"{flag}: cannot read {path}: {exc.strerror or exc}") from None


def _prepare_output(flag: str, path, directory: bool = False) -> None:
    """Create the directory `path`, or the directory of the file `path`; a
    usage error if that fails or if the file `path` is a directory. Each
    subcommand prepares its outputs before its work, so a bad output path
    costs no training."""
    path = Path(path)
    try:
        (path if directory else path.parent).mkdir(parents=True, exist_ok=True)
    except FileExistsError:  # a file stands where the directory must go
        raise ConfigError(f"{flag}: cannot write {path}: Not a directory") from None
    except OSError as exc:
        raise ConfigError(f"{flag}: cannot write {path}: {exc.strerror or exc}") from None
    if not directory and path.is_dir():
        raise ConfigError(f"{flag}: cannot write {path}: Is a directory")


def _load_config(args):
    return _read_input("--config", args.config, load_config)


def _check_at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise ConfigError(f"{flag} must be >= {low}, got {value}")


def _check_steps_for(model, steps: int) -> None:
    """A usage error for one step of a noise-predicting model, which `sample`
    rejects: it would be queried at t = 1/2 for a pure-noise latent at t = 1."""
    if steps < 2 and model.parameterization is Parameterization.EPSILON:
        raise ConfigError(f"--steps must be >= 2 for a noise-predicting checkpoint, "
                          f"got {steps}")


def _check_matches_dataset(model, cfg, flag: str) -> None:
    """A usage error unless the checkpoint's model fits the config's dataset."""
    for name in ("latent_dim", "num_classes"):
        have, want = getattr(model, name), getattr(cfg.dataset, name)
        if have != want:
            raise ConfigError(f"{flag}: the checkpoint's {name} is {have}, "
                              f"but the config's dataset.{name} is {want}")


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    seed = cfg.run.seeds[0] if args.seed is None else args.seed
    _prepare_output("--out", args.out)
    result = train_teacher(cfg, seed, cfg.dataset, cfg.schedule, args.out)
    final = result.loss_history[-1] if len(result.loss_history) else float("nan")
    print(f"trained {result.model.num_params}-parameter model "
          f"({len(result.loss_history)} updates, final loss {final:.6f})")
    print(f"checkpoint written to {args.out}")
    return 0


def _cmd_distill(args) -> int:
    cfg = _load_config(args)
    seed = cfg.run.seeds[0] if args.seed is None else args.seed
    teacher, schedule, _ = _read_input("--teacher", args.teacher, load_checkpoint)
    _check_matches_dataset(teacher, cfg, "--teacher")
    _prepare_output("--out-dir", args.out_dir, directory=True)
    dconfig = build_distill_config(cfg, args.strategy, seed)
    _, trace = progressive_distill(teacher, dconfig, cfg.dataset, schedule,
                                   checkpoint_dir=args.out_dir, seed=seed)
    for r in trace.rounds:
        print(f"round {r.round_index}: {r.teacher_steps}-step teacher -> "
              f"{r.student_steps}-step student, final loss {r.final_loss:.6f} "
              f"({r.updates_run} updates, {r.seconds:.1f}s) -> {r.checkpoint}")
    return 0


def _cmd_sample(args) -> int:
    _check_at_least("--steps", args.steps, 1)
    _check_at_least("--num", args.num, 0)
    model, schedule, _ = _read_input("--checkpoint", args.checkpoint, load_checkpoint)
    _check_steps_for(model, args.steps)
    if args.condition is not None and not 0 <= args.condition < model.num_classes:
        raise ConfigError(f"--condition must lie in [0, {model.num_classes}), "
                          f"got {args.condition}")
    rng = child_rng(args.seed, "cli-sample-conditions")
    if args.condition is None:
        conds = rng.integers(0, model.num_classes, size=args.num)
    else:
        conds = np.full(args.num, args.condition, dtype=np.int64)
    if args.out != "-":
        _prepare_output("--out", args.out)
    config = SamplerConfig(steps=args.steps, seed=args.seed)
    z = sample(model, conds, config, schedule)
    lines = ["condition," + ",".join(f"z{i}" for i in range(model.latent_dim))]
    for c, row in zip(conds, z):
        lines.append(f"{c}," + ",".join(fmt_float(v) for v in row))
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="ascii")
        print(f"wrote {args.num} samples at {args.steps} steps to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    _check_at_least("--steps", args.steps, 1)
    cfg = _load_config(args)
    model, schedule, _ = _read_input("--checkpoint", args.checkpoint, load_checkpoint)
    _check_matches_dataset(model, cfg, "--checkpoint")
    _check_steps_for(model, args.steps)
    ref = reference_fit(cfg, cfg.dataset)
    values = []
    for rep in range(cfg.eval.repetitions):
        fd = evaluate_model(model, schedule, cfg.dataset, ref, cfg, args.steps,
                            seed_tags=(args.seed, "cli-eval", args.steps, rep))
        values.append(fd)
        print(f"rep {rep}: fd = {fmt_float(fd)}")
    mean, ci95 = mean_ci95(values)
    print(f"mean = {fmt_float(mean)}  ci95 = {fmt_float(ci95)}  (n = {len(values)})")
    return 0


def _cmd_weights_table(args) -> int:
    _check_at_least("--points", args.points, 1)
    schedule = CosineSchedule()
    try:
        strategies = [strategy_from_name(name, args.gamma) for name in STRATEGY_NAMES]
    except ValueError as exc:  # the names are known, so it is gamma's
        raise ConfigError(f"--gamma: {exc}") from None
    print("t,snr," + ",".join(STRATEGY_NAMES))
    for j in range(1, args.points + 1):
        t = j / args.points
        snr = schedule.snr(t)
        weights = ",".join(fmt_float(s.weight(snr)) for s in strategies)
        print(f"{fmt_float(t)},{fmt_float(snr)},{weights}")
    return 0


def _cmd_report(args) -> int:
    try:
        rows = _read_input("--metrics", args.metrics, read_metrics)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _prepare_output("--out", args.out)
    write_results(rows, args.out)
    print(f"aggregated {len(rows)} metric rows into {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = _load_config(args)
    flag, out_dir = (("run.output_dir", cfg.run.output_dir) if args.out_dir is None
                     else ("--out-dir", args.out_dir))
    _prepare_output(flag, out_dir, directory=True)
    out = run_experiment(cfg, output_dir=args.out_dir)
    print(f"experiment finished; results in {out / 'results.csv'}")
    print((out / "results.csv").read_text(encoding="ascii"), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snrdistill",
        description="Conditional diffusion training, progressive step-halving "
                    "distillation with SNR-based loss weighting, and Frechet-"
                    "distance evaluation on synthetic data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a base teacher model")
    _add_config_arg(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=Path, required=True, help="checkpoint output path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("distill", help="run progressive distillation rounds")
    _add_config_arg(p)
    p.add_argument("--teacher", type=Path, required=True, help="teacher checkpoint")
    p.add_argument("--strategy", choices=STRATEGY_NAMES, default="bsa",
                   help="loss weighting of every round (default: bsa)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", type=Path, required=True)
    p.set_defaults(func=_cmd_distill)

    p = sub.add_parser("sample", help="generate a sample population from a checkpoint")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--num", type=int, default=1000)
    p.add_argument("--condition", type=int, default=None,
                   help="fixed class id; random classes when omitted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-", help="output csv path, or - for stdout")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("eval", help="Frechet distance of a checkpoint vs the reference")
    _add_config_arg(p)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("weights-table",
                       help="dump weight(strategy, snr(t)) over a t grid for all strategies")
    p.add_argument("--gamma", type=float, default=5.0)
    p.add_argument("--points", type=int, default=20)
    p.set_defaults(func=_cmd_weights_table)

    p = sub.add_parser("report", help="aggregate a metrics.csv into results.csv")
    p.add_argument("--metrics", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("experiment", help="run the full strategy-comparison experiment")
    _add_config_arg(p)
    p.add_argument("--out-dir", type=Path, default=None,
                   help="override run.output_dir from the config")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("print-config", help="print the fully resolved configuration")
    _add_config_arg(p)
    p.set_defaults(func=lambda args: (print(serialize_config(_load_config(args)), end=""), 0)[1])

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. A bad config, flag or checkpoint, an input file
    that is missing or cannot be read, or an output path that cannot be
    written, is a usage error: its message goes to stderr and the exit
    status is 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CheckpointFormatError) as exc:
        print(f"snrdistill: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
