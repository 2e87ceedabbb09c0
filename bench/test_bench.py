"""Tests of the benchmark's own code: every workload at a tiny size, the
span self-time arithmetic, the hooks, and agreement with BENCHMARK.json.

    python3 -m pytest bench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (sets the BLAS thread count before numpy loads)

run.import_library()

import spans  # noqa: E402
from workloads import WORKLOADS, Sizes  # noqa: E402

TINY = Sizes(samples=300, trees=2, cli_trees=2, folds=2, setup_repeats=1)

with open(run.ROOT / "BENCHMARK.json") as fh:
    SPEC = json.load(fh)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_benchmark_json_lists_known_workloads_and_every_layer_metric():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert PER_LAYER == {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()}


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent, "round")


def test_self_time_subtracts_the_union_of_clipped_children():
    tree = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 3.0, 0),
        _span("a.child", 1.5, 2.5, 1),
        _span("b", 2.0, 5.0, 0),   # overlaps a: [1, 5] is covered once
        _span("c", 9.0, 12.0, 0),  # runs past the root: only [9, 10] counts
        _span("d", 6.0, 6.0, 0),   # empty
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 1.0, 1.0, 3.0, 3.0, 0.0])


def test_layer_metrics_from_hand_built_spans():
    tracer = spans.Tracer()
    tracer.spans = [
        _span("metrics.compare", 0.0, 4.0, None),
        _span("forest.train", 0.5, 2.5, 0),
        _span("simplex.solve", 1.0, 1.5, 1),
        _span("metrics.sample_error", 3.0, 3.25, 0),
        _span("metrics.sample_error", 3.5, 3.75, 0),
    ]
    tracer.counts["round"]["simplex.rows"] = 40
    values, missing = spans.layer_metrics(tracer, rounds=2, overhead_s=0.1)
    assert missing == []
    assert values["metrics.compare_self_s"] == pytest.approx((4.0 - 2.0 - 0.5) / 2)
    assert values["metrics.sample_error_calls"] == 1.0
    assert values["metrics.sample_error_s"] == pytest.approx(0.25)
    assert values["simplex.self_s"] == pytest.approx(0.25)
    assert values["simplex.rows_per_call"] == 40.0
    assert values["trace.spans"] == 2.5


def test_hooks_are_restored_and_a_missing_target_is_reported(monkeypatch):
    import recforest
    from recforest import forest

    original = forest.train_forest
    monkeypatch.delattr(forest, "_route_payloads")
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert recforest.train_forest is forest.train_forest
        assert forest.train_forest.__wrapped__ is original
    assert recforest.train_forest is original
    assert forest.train_forest is original
    assert tracer.missing == ["forest._route_payloads"]
    values, missing = spans.layer_metrics(tracer, rounds=1, overhead_s=0.0)
    assert missing == ["forest.route_calls", "forest.route_s"]
    assert values["forest.route_s"] == 0.0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_clean_at_a_tiny_size(name, tmp_path):
    result, rounds, metrics, extra = run.measure(name, 3, 0.0, TINY, str(tmp_path))
    assert rounds == 1
    assert result.attempted > 0
    assert result.failed == 0, result.failures
    assert {metric: unit for metric, (_, unit) in metrics.items()} == END_TO_END
    assert all(value > 0 for value, _ in metrics.values())
    assert all(d["value"] > 0 for d in extra["details"].values())


@pytest.mark.parametrize("name", ["compare", "cli-roundtrip"])
def test_traced_run_reports_every_layer_metric(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RUNS", tmp_path)
    result, rounds, metrics, extra = run.measure_traced(name, 3, 0.0, TINY, str(tmp_path))
    assert result.failed == 0, result.failures
    assert extra["missing"] == []
    assert {m: unit for m, (_, unit) in metrics.items()} == PER_LAYER
    assert metrics["simplex.rows"][0] > 0
    assert metrics["synth.samples_per_s"][0] > 0
    assert (tmp_path / ("%s-seed3.spans.jsonl" % name)).stat().st_size > 0


def test_exits_nonzero_without_library_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in Path(run.BENCH).glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
