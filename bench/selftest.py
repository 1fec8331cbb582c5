"""Tests of the benchmark itself. They are not part of the tier-1 suite:

    PYTHONPATH=src python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Budgets small enough for a seconds-long smoke, large enough that every
# FD stays under the sanity ceiling.
SMOKE = """\
train.updates = 200
distill.steps_per_round = 30
eval.num_samples = 512
eval.reference_samples = 1024
eval.repetitions = 1
"""


def test_self_time_subtracts_direct_children_only():
    rows = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("d", 5.0, 6.0, 0),
        ("e", 12.0, 13.0, -1),
    ]
    assert tr.self_times(rows) == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.0])
    assert tr.top_level_seconds(rows) == pytest.approx(11.0)


def test_self_time_counts_overlap_once_and_clips_to_parent():
    rows = [("a", 0.0, 10.0, -1), ("b", 1.0, 5.0, 0), ("c", 4.0, 6.0, 0), ("d", 9.0, 12.0, 0)]
    # children cover [1, 6] and [9, 10] of the parent's interval
    assert tr.self_times(rows)[0] == pytest.approx(4.0)


def test_span_stats_on_synthetic_spans():
    rows = [("outer", 0.0, 1.0, -1)]
    rows += [("inner", 0.05 * k, 0.05 * k + 0.001 * (k + 1), 0) for k in range(20)]
    stats = tr.span_stats(rows)
    inner = stats["inner"]
    assert inner["calls"] == 20
    assert inner["total_s"] == pytest.approx(0.001 * sum(range(1, 21)))
    assert inner["p50_ms"] == pytest.approx(10.0)
    assert inner["ptail_ms"] == pytest.approx(10.0)  # 20 calls: only p50 has 10 beyond
    assert stats["outer"]["self_s"] == pytest.approx(1.0 - inner["total_s"])


@pytest.mark.parametrize("n, level", [(9, None), (19, None), (20, 50.0), (99, 50.0),
                                      (100, 90.0), (1000, 99.0), (10000, 99.9)])
def test_tail_level_keeps_ten_samples_beyond(n, level):
    assert tr.tail_percentile(n) == level


def test_tracer_links_nested_spans():
    t = tr.Tracer()
    with t.span("a"):
        with t.span("b"):
            pass
        with t.span("c"):
            pass
    assert [(name, parent) for name, _, _, parent in t.rows()] == [("a", -1), ("b", 0), ("c", 0)]


def test_instrument_wraps_reports_absent_and_restores(monkeypatch):
    module = types.ModuleType("bench_fake_module")

    def f(x, y=2):
        return x + y

    class Model:
        def forward(self, z):
            return z * 2

    module.f = f
    module.Model = Model
    forward = Model.__dict__["forward"]
    monkeypatch.setitem(sys.modules, "bench_fake_module", module)

    seen = []
    table = {
        "fake.f": (("bench_fake_module:f", "bench_fake_module:gone"),
                   lambda t, args, result: seen.append((dict(args), result))),
        "fake.forward": (("bench_fake_module:Model.forward",), None),
        "fake.missing": (("no_such_module_here:f", "bench_fake_module:Model.gone"), None),
    }
    t = tr.Tracer()
    with tr.instrument(t, table) as absent:
        assert module.f(1, y=3) == 4
        assert Model().forward(5) == 10
    assert absent == ["bench_fake_module:gone", "no_such_module_here:f",
                      "bench_fake_module:Model.gone"]
    assert module.f is f and Model.__dict__["forward"] is forward
    assert seen == [({"x": 1, "y": 3}, 4)]
    assert [r[0] for r in t.rows()] == ["fake.f", tr.HOOK_SPAN, "fake.forward"]


def test_metric_names_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(worker.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
    assert set(worker.PER_LAYER) - {"trace"} == set(worker.SITES)


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_smoke(workload, tmp_path):
    record = worker.measure(workload, seed=3, seconds=0, trace=True, out=tmp_path,
                            overrides=SMOKE)
    assert record["problems"] == []
    assert record["failed"] == 0 and record["attempted"] > 0
    e2e = run.result_line(True, 1, 0, run.end_to_end_metrics([record]), run.E2E_UNITS)
    layers = run.result_line(True, 1, 0, run.per_layer_metrics([record]), run.per_layer_units())
    for result in (e2e, layers):
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    values = {name: m["value"] for name, m in layers["metrics"].items()}
    assert values["trace.absent_spans"] == 0
    expected_share = 2 / 9 if workload == "experiment" else 0.0
    assert values["distill.teacher_target.duplicate_share"] == expected_share
    assert e2e["metrics"]["fd_final"]["value"] < worker.FD_CEILING
    assert (tmp_path / "spans.csv.gz").exists()


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    (tmp_path / "bench").mkdir()
    for path in BENCH.iterdir():
        if path.is_file():
            (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "experiment", "--seed", "1",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
