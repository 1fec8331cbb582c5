"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. It starts the measuring
processes of bench/worker.py one after another with a fixed BLAS thread
count, checks their outputs, and prints as its last line one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 they are
the per-layer ones. A record of the run, environment included, goes to
.bench_out/<workload>-trace<0|1>/run.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"

# One BLAS thread on both sides of a comparison. At batch 128/256 a second
# OpenBLAS thread doubles CPU time without making an update faster, and on a
# shared two-core machine it makes timings noisier.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Measuring processes per untraced run. Each sets up (so import time is
# measured each time) and then runs iterations for an equal share of
# --seconds. Speed differs between processes by several percent even after
# calibration, so the medians pool iterations from all of them.
MEASURE_PROCESSES = 3
DEADLINE_S = 170.0

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_samples_per_s": "1/s",
    "distill_samples_per_s": "1/s",
    "sample_latent_steps_per_s": "1/s",
    "fd_final": "fd",
    "peak_rss_mb": "MB",
}
FIELD_UNITS = {
    "calls": "count", "self_s": "s", "p50_ms": "ms", "ptail_ms": "ms",
    "updates_run": "count", "duplicate_share": "ratio", "rows": "count",
    "us_per_row": "us", "bytes": "B", "unspanned_s": "s", "overhead_s": "s",
    "hook_s": "s", "absent_spans": "count",
}


class RunError(Exception):
    pass


def per_layer_units() -> dict[str, str]:
    return {name: FIELD_UNITS[name.rsplit(".", 1)[1]] for name in worker.per_layer_names()}


def _iterations(records: list[dict], traced: bool) -> list[dict]:
    return [it for rec in records for it in rec["iterations"] if it["traced"] == traced]


def end_to_end_metrics(records: list[dict]) -> dict[str, float]:
    """Calibrated medians over every process's untraced iterations; a phase no
    iteration ran comes from the set-ups. Each time is scaled by
    PROBE_REF_S / probe time, each throughput by its inverse."""
    untraced = _iterations(records, traced=False)
    ref = worker.PROBE_REF_S
    metrics = {
        "setup_s": statistics.median(r["setup_s"] * ref / r["setup_probe_s"] for r in records),
        "wall_s": statistics.median(it["wall_s"] * ref / it["probe_s"] for it in untraced),
    }
    for name in ("train_samples_per_s", "distill_samples_per_s", "sample_latent_steps_per_s"):
        values = [it["phases"][name] * it["probe_s"] / ref
                  for it in untraced if name in it["phases"]]
        if not values:
            values = [r["setup_phases"][name] * r["setup_probe_s"] / ref
                      for r in records if name in r["setup_phases"]]
        if not values:
            raise RunError(f"no phase of this workload measured {name}")
        metrics[name] = statistics.median(values)
    metrics["fd_final"] = records[0]["fd_final"]
    metrics["peak_rss_mb"] = max(r["peak_rss_mb"] for r in records)
    return metrics


def per_layer_metrics(records: list[dict]) -> dict[str, float]:
    """Medians over traced iterations, plus traced minus untraced wall time."""
    traced = _iterations(records, traced=True)
    untraced = _iterations(records, traced=False)
    metrics = {name: statistics.median(it["layers"][name] for it in traced)
               for name in traced[0]["layers"]}
    metrics["trace.overhead_s"] = (statistics.median(it["wall_s"] for it in traced)
                                   - statistics.median(it["wall_s"] for it in untraced))
    return metrics


def result_line(correct: bool, attempted: int, failed: int, metrics: dict[str, float],
                units: dict[str, str]) -> dict:
    if set(metrics) != set(units):
        raise RunError(f"metric names differ from BENCHMARK.json: "
                       f"{sorted(set(metrics) ^ set(units))}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout's own .git, if it has one; the benchmark may run without."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(threads: int, versions: dict) -> dict:
    return {
        "python": platform.python_version(),
        **versions,
        "blas_threads": {var: str(threads) for var in THREAD_VARS},
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _run_worker(args: list[str], env: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("ran out of time before starting " + args[0])
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker {args[0]} did not finish in time") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RunError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "snrdistill" / "__init__.py").is_file():
        raise RunError(f"no snrdistill sources under {ROOT / 'src'}")
    out = OUT_ROOT / f"{workload}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    threads = min(BLAS_THREADS, _nproc())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update({var: str(threads) for var in THREAD_VARS})

    processes = 1 if trace else MEASURE_PROCESSES
    records = [
        _run_worker(["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds / processes), "--trace", str(int(trace)),
                     "--out", str(out / f"process{k}")], env, deadline)
        for k in range(processes)
    ]
    problems = [problem for rec in records for problem in rec["problems"]]
    if len({rec["digest"] for rec in records}) != 1:
        problems.append("final parameter digests differ between processes")
    if len({rec["fd_final"] for rec in records}) != 1:
        problems.append("fd_final differs between processes")
    if trace:
        metrics, units = per_layer_metrics(records), per_layer_units()
    else:
        metrics, units = end_to_end_metrics(records), E2E_UNITS
    result = result_line(not problems, sum(rec["attempted"] for rec in records),
                         sum(rec["failed"] for rec in records), metrics, units)

    run_record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(threads, records[0]["versions"]),
        "result": result, "problems": problems, "digest": records[0]["digest"],
        "processes": records,
    }
    (out / "run.json").write_text(json.dumps(run_record, indent=1) + "\n", encoding="utf-8")
    return run_record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="snrdistill benchmark: one workload, one run.")
    parser.add_argument("--workload", choices=worker.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    env = record["environment"]
    print(f"env python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"blas={env['blas']!r} threads={env['blas_threads']['OPENBLAS_NUM_THREADS']} "
          f"nproc={env['nproc']} "
          f"commit={env['git_commit']} digest={record['digest']}")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
