"""Set-up and timed phase of one benchmark workload, in a process of its own.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 --out DIR

The last line of standard output is one JSON object with the raw figures;
`bench/run.py` starts these processes and turns their figures into the
benchmark's metrics. bench/README.md says why each workload exists.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
import types
import zlib
from pathlib import Path

import tracer as tr

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("train-distill", "sample-eval", "experiment")

# Every model is trained from this seed. Across training seeds the FD of the
# final student varies about ninefold, which no regression bound could
# absorb, so the benchmark seed selects evaluation draws instead.
MODEL_SEED = 1
# fd_final samples with this seed and these many latents, whatever --seed is.
FD_SEED = 20231226
FD_LATENTS = 8192
# Sanity ceiling on every FD. Even pure N(0, I) noise scores about 0.36
# against the mixture, and the weakest cells of bench/experiment.cfg score
# up to about 2; a diverged model or a student that barely trained (10
# distill updates per round) scores 40 to 100.
FD_CEILING = 10.0

TRAIN_DISTILL_CONFIG = f"""\
train.updates = 400
distill.n_start = 16
distill.iterations = 3
distill.steps_per_round = 100
eval.num_samples = 8192
run.seeds = {MODEL_SEED}
run.strategies = bsa
"""

SAMPLE_EVAL_CONFIG = f"""\
train.updates = 800
distill.n_start = 8
distill.iterations = 1
distill.steps_per_round = 100
eval.num_samples = 4096
run.seeds = {MODEL_SEED}
run.strategies = bsa
"""
# (model, DDIM steps) of each timed sample call in sample-eval.
SAMPLE_EVAL_CALLS = (("teacher", 64), ("teacher", 16), ("teacher", 8), ("student", 4))

# Spans whose timing the traced run reports, and the wrap sites of each.
_FULL = ("calls", "self_s", "p50_ms", "ptail_ms")
PER_LAYER = {
    "trainer.train_base": ("calls", "self_s"),
    "distill.progressive_distill": ("calls", "self_s"),
    "experiment.run_experiment": ("calls", "self_s"),
    "nnet.loss_and_gradients.train": _FULL,
    "nnet.loss_and_gradients.distill": _FULL,
    "autodiff.backward": _FULL,
    "nnet.adam_step": _FULL,
    "distill.distill_round": ("calls", "self_s", "updates_run"),
    "distill.teacher_target": _FULL + ("duplicate_share",),
    "nnet.forward": ("calls", "rows", "self_s", "us_per_row"),
    "sampler.sample": _FULL,
    "sampler.predict_x": _FULL,
    "sampler.ddim_step": _FULL,
    "data.draw_batch": _FULL,
    "schedule.alpha_sigma": _FULL,
    "weighting.weight": _FULL,
    "checkpoint.save_checkpoint": ("calls", "bytes", "self_s"),
    "checkpoint.load_checkpoint": ("calls", "bytes", "self_s"),
    "experiment.evaluate_model": _FULL,
    "frechet.fit_moments": ("calls", "self_s"),
    "frechet.frechet_distance": ("calls", "self_s"),
    "trace": ("unspanned_s", "overhead_s", "hook_s", "absent_spans"),
}

SITES = {
    "trainer.train_base": ("snrdistill.trainer:train_base", "snrdistill.experiment:train_base"),
    "distill.progressive_distill": ("snrdistill.distill:progressive_distill",
                                    "snrdistill.experiment:progressive_distill"),
    "experiment.run_experiment": ("snrdistill.experiment:run_experiment",),
    "nnet.loss_and_gradients.train": ("snrdistill.trainer:loss_and_gradients",),
    "nnet.loss_and_gradients.distill": ("snrdistill.distill:loss_and_gradients",),
    "autodiff.backward": ("snrdistill.autodiff:backward",),
    "nnet.adam_step": ("snrdistill.trainer:adam_step", "snrdistill.distill:adam_step"),
    "distill.distill_round": ("snrdistill.distill:distill_round",),
    "distill.teacher_target": ("snrdistill.distill:teacher_target",),
    "nnet.forward": ("snrdistill.nnet:DenoiserModel.forward",),
    "sampler.sample": ("snrdistill.sampler:sample", "snrdistill.experiment:sample"),
    "sampler.predict_x": ("snrdistill.sampler:predict_x", "snrdistill.distill:predict_x"),
    "sampler.ddim_step": ("snrdistill.sampler:ddim_step", "snrdistill.distill:ddim_step"),
    "data.draw_batch": ("snrdistill.data:draw_batch", "snrdistill.trainer:draw_batch",
                        "snrdistill.distill:draw_batch"),
    "schedule.alpha_sigma": ("snrdistill.schedule:CosineSchedule.alpha_sigma",),
    "weighting.weight": ("snrdistill.weighting:weight",),
    "checkpoint.save_checkpoint": ("snrdistill.checkpoint:save_checkpoint",
                                   "snrdistill.experiment:save_checkpoint"),
    "checkpoint.load_checkpoint": ("snrdistill.checkpoint:load_checkpoint",
                                   "snrdistill.experiment:load_checkpoint"),
    "experiment.evaluate_model": ("snrdistill.experiment:evaluate_model",),
    "frechet.fit_moments": ("snrdistill.frechet:fit_moments", "snrdistill.experiment:fit_moments"),
    "frechet.frechet_distance": ("snrdistill.frechet:frechet_distance",
                                 "snrdistill.experiment:frechet_distance"),
}

# The untraced run wraps only these, to time its phases; each is called a
# handful of times per iteration, so the wrappers cost microseconds.
PHASES = ("trainer.train_base", "distill.progressive_distill", "sampler.sample")


def per_layer_names() -> list[str]:
    return [f"{span}.{field}" for span, fields in PER_LAYER.items() for field in fields]


# --------------------------------------------------------------------- hooks

def _arg(tracer, args, name):
    if name not in args:
        tracer.count("trace.hook_misses")
        return None
    return args[name]


def _hook_train(tracer, args, result):
    cfg = _arg(tracer, args, "config")
    if cfg is not None:
        tracer.count("trainer.train_base.samples", cfg.updates * cfg.batch_size)


def _hook_distill(tracer, args, result, captured):
    cfg = _arg(tracer, args, "config")
    student, trace = result
    captured["student"] = student
    if cfg is not None:
        updates = sum(r.updates_run for r in trace.rounds)
        tracer.count("distill.progressive_distill.samples", updates * cfg.batch_size)


def _hook_sample(tracer, args, result):
    cfg = _arg(tracer, args, "config")
    if cfg is not None:
        tracer.count("sampler.sample.latent_steps", len(result) * cfg.steps)


def _hook_rows(tracer, args, result):
    z = _arg(tracer, args, "z")
    if z is not None:
        tracer.count("nnet.forward.rows", len(z))


def _hook_updates(tracer, args, result):
    tracer.count("distill.distill_round.updates_run", result.updates_run)


def _hook_file_bytes(counter):
    def hook(tracer, args, result):
        path = _arg(tracer, args, "path")
        if path is not None:
            tracer.count(counter, os.path.getsize(path))
    return hook


def _hook_duplicates(seen):
    def hook(tracer, args, result):
        import numpy as np

        values = [_arg(tracer, args, name) for name in ("teacher", "z_t", "t", "n_steps", "cond")]
        if any(v is None for v in values):
            return
        h = hashlib.sha1()
        update_param_hash(h, values[0].params)
        for value in values[1:]:
            h.update(np.ascontiguousarray(value).tobytes())
        key = h.digest()
        if key in seen:
            tracer.count("distill.teacher_target.duplicates")
        seen.add(key)
    return hook


def instrument_table(traced: bool, captured: dict) -> dict:
    """Span name -> (wrap sites, hook) for one iteration."""
    hooks = {
        "trainer.train_base": _hook_train,
        "distill.progressive_distill": lambda t, a, r: _hook_distill(t, a, r, captured),
        "sampler.sample": _hook_sample,
    }
    if traced:
        hooks.update({
            "nnet.forward": _hook_rows,
            "distill.distill_round": _hook_updates,
            "distill.teacher_target": _hook_duplicates(set()),
            "checkpoint.save_checkpoint": _hook_file_bytes("checkpoint.save_checkpoint.bytes"),
            "checkpoint.load_checkpoint": _hook_file_bytes("checkpoint.load_checkpoint.bytes"),
        })
    names = SITES if traced else PHASES
    return {name: (SITES[name], hooks.get(name)) for name in names}


def update_param_hash(h, params) -> None:
    """Feed parameter values to a hash, by sorted name when params is a dict."""
    import numpy as np

    arrays = [params[k] for k in sorted(params)] if isinstance(params, dict) else [params]
    for value in arrays:
        h.update(np.ascontiguousarray(value, dtype="<f8").tobytes())


def param_digest(model) -> str:
    h = hashlib.sha256()
    update_param_hash(h, model.params)
    return h.hexdigest()


# -------------------------------------------------------------------- set-up

def _import_program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("snrdistill")
    if Path(package.__file__).resolve().parent != (SRC / "snrdistill").resolve():
        raise SystemExit(f"snrdistill was imported from {package.__file__}, not from {SRC}")
    names = ("config", "data", "distill", "experiment", "frechet", "sampler", "trainer")
    return types.SimpleNamespace(**{n: importlib.import_module(f"snrdistill.{n}") for n in names})


def derived_seed(seed: int, tag: str) -> int:
    """A seed for one purpose, derived from the benchmark seed."""
    return (int(seed) * 1_000_003 + zlib.crc32(tag.encode("utf-8"))) & 0x7FFFFFFF


def config_text(workload: str, seed: int) -> str:
    if workload == "train-distill":
        return TRAIN_DISTILL_CONFIG
    if workload == "sample-eval":
        return SAMPLE_EVAL_CONFIG
    base = (BENCH_DIR / "experiment.cfg").read_text(encoding="utf-8")
    return base + f"eval.seed = {derived_seed(seed, 'eval')}\n"


def setup(workload: str, seed: int, overrides: str = "") -> types.SimpleNamespace:
    """Import, parse the generated config, build the dataset and exact moments.

    sample-eval also trains its teacher and distills its student here, under
    the phase timers, so that its set-up reports both training throughputs.
    """
    started = time.perf_counter()
    p = _import_program()
    cfg = p.config.parse_config(config_text(workload, seed) + overrides)
    dataset = p.experiment.build_dataset(cfg)
    schedule = p.experiment.build_schedule(cfg)
    mean, cov = p.data.mixture_moments(dataset)
    # exact moments: there is no sample behind them
    ref = p.frechet.MomentFit(mean=mean, cov=cov, count=0)
    ctx = types.SimpleNamespace(
        program=p, workload=workload, seed=seed, cfg=cfg, dataset=dataset,
        schedule=schedule, ref=ref, models={}, setup_phases={},
    )
    if workload == "sample-eval":
        tracer = tr.Tracer()
        captured: dict = {}
        with tr.instrument(tracer, instrument_table(False, captured)):
            teacher = p.trainer.train_base(
                p.experiment.build_train_config(cfg, MODEL_SEED), dataset, schedule).model
            distill_cfg = p.experiment.build_distill_config(
                cfg, cfg.run.strategies[-1], MODEL_SEED)
            p.distill.progressive_distill(teacher, distill_cfg, dataset, schedule,
                                          seed=MODEL_SEED)
        ctx.models = {"teacher": teacher, "student": captured["student"]}
        ctx.setup_phases = phase_figures(tr.span_stats(tracer.rows()), tracer.counters)
    ctx.setup_s = time.perf_counter() - started
    ctx.probe = Probe()
    ctx.setup_probe_s = ctx.probe.median()
    return ctx


def _draws(ctx, tag: str, n: int):
    """Class ids and a sampler seed for one evaluation, from the benchmark seed."""
    import numpy as np

    rng = np.random.default_rng(derived_seed(ctx.seed, tag))
    conds = rng.integers(0, ctx.dataset.num_classes, size=n)
    return conds, int(rng.integers(0, 2**31 - 1))


def fd_of(ctx, model, steps: int, conds, sampler_seed: int) -> float:
    p = ctx.program
    z = p.sampler.sample(model, conds, p.sampler.SamplerConfig(steps=steps, seed=sampler_seed),
                         ctx.schedule)
    return p.frechet.frechet_distance(p.frechet.fit_moments(z), ctx.ref)


def fewest_steps(cfg) -> int:
    return cfg.distill.n_start >> cfg.distill.iterations


def fd_final_of(ctx, model) -> float:
    """FD at the fewest steps, with draws fixed by FD_SEED whatever --seed is."""
    import numpy as np

    conds = np.random.default_rng(FD_SEED).integers(0, ctx.dataset.num_classes, size=FD_LATENTS)
    return fd_of(ctx, model, fewest_steps(ctx.cfg), conds, FD_SEED)


# --------------------------------------------------------------- calibration
#
# Timings on a shared host drift by up to ~75% over seconds to minutes, as
# other tenants load the CPUs. Each timed interval is therefore bracketed by a
# fixed numpy computation that does not use the program, and run.py scales
# the interval by PROBE_REF_S / (probe time around it). The probe mixes the
# program's two regimes: an MLP forward+backward at batch 256 and forwards
# at batch 4096.

# Probe time on the reference box (2 vCPUs, 1 BLAS thread, numpy 2.4,
# OpenBLAS 0.3.31): calibrated times read as seconds on that box.
PROBE_REF_S = 0.14


class Probe:
    def __init__(self):
        import numpy as np
        from scipy.special import expit

        rng = np.random.default_rng(0)
        self.expit = expit
        self.weights = [rng.standard_normal(shape) * 0.1
                        for shape in ((34, 128), (128, 128), (128, 2))]
        self.small = rng.standard_normal((256, 34))
        self.large = rng.standard_normal((4096, 34))

    def _mlp(self, x, backward: bool) -> None:
        w1, w2, w3 = self.weights
        h1 = x @ w1
        a1 = h1 * self.expit(h1)
        h2 = a1 @ w2
        a2 = h2 * self.expit(h2)
        y = a2 @ w3
        if backward:
            g2 = (y @ w3.T) * self.expit(h2)
            a1.T @ g2
            g1 = (g2 @ w2.T) * self.expit(h1)
            x.T @ g1

    def run(self) -> float:
        started = time.perf_counter()
        for _ in range(30):
            self._mlp(self.small, backward=True)
        for _ in range(2):
            self._mlp(self.large, backward=False)
        return time.perf_counter() - started

    def median(self) -> float:
        """Median of three runs."""
        return sorted(self.run() for _ in range(3))[1]


# --------------------------------------------------------------- timed work
#
# Each work function runs one iteration's timed phase and returns the final
# model, the FDs it computed, and its operations as (name, ok) pairs.

def work_train_distill(ctx, workdir):
    p, cfg = ctx.program, ctx.cfg
    ops = []
    teacher = p.trainer.train_base(
        p.experiment.build_train_config(cfg, MODEL_SEED), ctx.dataset, ctx.schedule).model
    ops.append(("train_base", True))
    student, _ = p.distill.progressive_distill(
        teacher, p.experiment.build_distill_config(cfg, cfg.run.strategies[-1], MODEL_SEED),
        ctx.dataset, ctx.schedule, seed=MODEL_SEED)
    ops.append(("progressive_distill", True))
    conds, sampler_seed = _draws(ctx, "final-sample", cfg.eval.num_samples)
    fd = fd_of(ctx, student, fewest_steps(cfg), conds, sampler_seed)
    ops.append(("final-sample", fd_ok(fd)))
    return student, [fd], ops


def work_sample_eval(ctx, workdir):
    fds, ops = [], []
    for name, steps in SAMPLE_EVAL_CALLS:
        conds, sampler_seed = _draws(ctx, f"{name}-{steps}", ctx.cfg.eval.num_samples)
        fd = fd_of(ctx, ctx.models[name], steps, conds, sampler_seed)
        fds.append(fd)
        ops.append((f"sample {name} at {steps} steps", fd_ok(fd)))
    return ctx.models["student"], fds, ops


def work_experiment(ctx, workdir):
    ctx.program.experiment.run_experiment(ctx.cfg, workdir)
    return None, [], []


WORK = {
    "train-distill": work_train_distill,
    "sample-eval": work_sample_eval,
    "experiment": work_experiment,
}


def fd_ok(fd: float) -> bool:
    return math.isfinite(fd) and 0.0 <= fd < FD_CEILING


def check_experiment_output(cfg, out: Path, baseline: str) -> tuple[list, list[float], list[str]]:
    """Operations are the (seed, strategy) cells and the expected metrics.csv rows."""
    import csv

    problems = []
    if (out / "errors.log").exists():
        problems.append("experiment wrote errors.log")
    steps = [cfg.distill.n_start >> k for k in range(cfg.distill.iterations + 1)]
    expected = {(seed, baseline, s, rep) for seed in cfg.run.seeds for s in steps
                for rep in range(cfg.eval.repetitions)}
    expected |= {(seed, strategy, s, rep) for seed in cfg.run.seeds
                 for strategy in cfg.run.strategies for s in steps[1:]
                 for rep in range(cfg.eval.repetitions)}
    found: dict[tuple, float] = {}
    metrics = out / "metrics.csv"
    if metrics.exists():
        with open(metrics, encoding="ascii", newline="") as f:
            for row in csv.DictReader(f):
                key = (int(row["seed"]), row["strategy"], int(row["steps"]), int(row["rep"]))
                found[key] = float(row["fd"])
    else:
        problems.append("experiment wrote no metrics.csv")
    row_ok = {key: key in found and fd_ok(found[key]) for key in sorted(expected)}
    ops = [(f"metrics row {key}", ok) for key, ok in row_ok.items()]
    for seed in cfg.run.seeds:
        for strategy in cfg.run.strategies:
            cell_ok = all(ok for key, ok in row_ok.items() if key[:2] == (seed, strategy))
            ops.append((f"cell seed {seed} strategy {strategy}", cell_ok))
    extra = set(found) - expected
    if extra:
        problems.append(f"metrics.csv has {len(extra)} unexpected rows")
    return ops, [found[k] for k in sorted(found)], problems


# ------------------------------------------------------------------ measure

def phase_figures(stats: dict, counters: dict) -> dict:
    """Throughputs of the phases that ran, from the phase spans and counters."""
    out = {}
    for metric, span, counter in (
        ("train_samples_per_s", "trainer.train_base", "trainer.train_base.samples"),
        ("distill_samples_per_s", "distill.progressive_distill",
         "distill.progressive_distill.samples"),
        ("sample_latent_steps_per_s", "sampler.sample", "sampler.sample.latent_steps"),
    ):
        seconds = stats.get(span, {}).get("total_s", 0.0)
        if seconds > 0 and counters.get(counter, 0) > 0:
            out[metric] = counters[counter] / seconds
    return out


def layer_figures(stats: dict, counters: dict, absent_spans: int) -> dict:
    out = {}
    for span, fields in PER_LAYER.items():
        if span == "trace":
            continue
        s = stats.get(span, {})
        for field in fields:
            out[f"{span}.{field}"] = float(s.get(field, counters.get(f"{span}.{field}", 0.0)))
    rows = counters.get("nnet.forward.rows", 0.0)
    out["nnet.forward.us_per_row"] = out["nnet.forward.self_s"] / rows * 1e6 if rows else 0.0
    calls = out["distill.teacher_target.calls"]
    dups = counters.get("distill.teacher_target.duplicates", 0.0)
    out["distill.teacher_target.duplicate_share"] = dups / calls if calls else 0.0
    out["trace.hook_s"] = stats.get(tr.HOOK_SPAN, {}).get("total_s", 0.0)
    out["trace.absent_spans"] = float(absent_spans)
    return out


def run_iteration(ctx, traced: bool, workdir: Path) -> dict:
    tracer = tr.Tracer()
    captured: dict = {}
    with tr.instrument(tracer, instrument_table(traced, captured)) as absent:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        model, fds, ops = WORK[ctx.workload](ctx, workdir)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    problems = []
    if ctx.workload == "experiment":
        baseline = getattr(ctx.program.experiment, "BASELINE_NAME", "teacher-ddim")
        ops, fds, problems = check_experiment_output(ctx.cfg, workdir, baseline)
        model = captured.get("student")
        shutil.rmtree(workdir, ignore_errors=True)
    rows = tracer.rows()
    stats = tr.span_stats(rows)
    record = {
        "traced": traced,
        "wall_s": wall,
        "cpu_s": cpu,
        "model": model,
        "digest": param_digest(model) if model is not None else None,
        "fds": fds,
        "attempted": len(ops),
        "failed": sum(1 for _, ok in ops if not ok),
        "failed_ops": [name for name, ok in ops if not ok],
        "problems": problems,
        "absent_sites": absent,
        "hook_misses": tracer.counters.get("trace.hook_misses", 0.0),
        "phases": phase_figures(stats, tracer.counters),
    }
    if traced:
        absent_spans = sum(1 for name in SITES if all(s in absent for s in SITES[name]))
        record["layers"] = layer_figures(stats, tracer.counters, absent_spans)
        record["layers"]["trace.unspanned_s"] = wall - tr.top_level_seconds(rows)
        record["spans"] = rows
        record["t0"] = t0
    return record


def _attempt(ctx, traced: bool, out: Path, records: list):
    """Run one iteration into `records`; returns the traceback if it raised.

    The probe runs three times after every iteration; an iteration's
    `probe_s` is the mean of the medians just before and just after it.
    """
    try:
        record = run_iteration(ctx, traced, out / f"iter{len(records)}")
    except Exception:
        return traceback.format_exc()
    probe_after = ctx.probe.median()
    record["probe_s"] = 0.5 * (ctx.last_probe_s + probe_after)
    ctx.last_probe_s = probe_after
    records.append(record)
    return None


def measure(workload: str, seed: int, seconds: float, trace: bool, out: Path,
            overrides: str = "") -> dict:
    """Set up, then run iterations (untraced, or untraced+traced pairs) for
    `seconds`, and at least one."""
    ctx = setup(workload, seed, overrides)
    out.mkdir(parents=True, exist_ok=True)
    records: list[dict] = []
    ctx.last_probe_s = ctx.setup_probe_s
    started = time.perf_counter()
    error = None
    while error is None:
        for traced in (False, True) if trace else (False,):
            error = _attempt(ctx, traced, out, records)
            if error is not None:
                break
        if time.perf_counter() - started >= seconds:
            break

    problems = []
    if error is not None:
        problems.append(f"iteration raised:\n{error}")
    if not records:
        return {"error": error}
    for rec in records:
        problems += rec["problems"]
        problems += [f"failed operation: {name}" for name in rec["failed_ops"]]
    if len({rec["digest"] for rec in records}) != 1:
        problems.append("final parameter digests differ between iterations")
    if len({tuple(rec["fds"]) for rec in records}) != 1:
        problems.append("FDs differ between iterations on identical inputs")

    model = records[-1]["model"]
    fd_final = None
    if model is not None:
        fd_final = fd_final_of(ctx, model)
        if not fd_ok(fd_final):
            problems.append(f"fd_final {fd_final!r} is not finite or not below {FD_CEILING}")
    else:
        problems.append("the workload produced no final model")

    if trace:
        _write_spans(out / "spans.csv.gz", records)
    import numpy as np
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "setup_s": ctx.setup_s,
        "setup_probe_s": ctx.setup_probe_s,
        "setup_phases": ctx.setup_phases,
        "iterations": [{k: v for k, v in rec.items() if k not in ("model", "spans", "t0")}
                       for rec in records],
        "fd_final": fd_final,
        "digest": records[-1]["digest"],
        "attempted": sum(rec["attempted"] for rec in records) + (error is not None),
        "failed": sum(rec["failed"] for rec in records) + (error is not None),
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__,
                     "blas": _blas_name(np)},
    }


def _blas_name(np) -> str:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _write_spans(path: Path, records: list) -> None:
    with gzip.open(path, "wt", encoding="ascii") as f:
        f.write("iteration,index,name,start_s,end_s,parent\n")
        for k, rec in enumerate(records):
            t0 = rec.get("t0", 0.0)
            for index, (name, start, end, parent) in enumerate(rec.get("spans", ())):
                f.write(f"{k},{index},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    if "error" in result:
        print(result["error"], file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
