"""Smoke test of the benchmark itself, at minimal size.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs one op, untraced and traced, with every output checked;
every named metric is printed with its unit; a deliberately corrupted op
output is counted as failed; and the runner refuses to produce a result in
a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_pclopt()

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
DETERMINISTIC = ("gap_pct_mean", "budget_hit_frac", "grasp_gap_pct_mean")


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    units = dict(workloads.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == [
        (name, units[name]) for name in workloads.GATED]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.LAYER_METRICS


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_runs_and_prints_every_metric(name, trace, tmp_path):
    report = workloads.run_workload(
        name, 0, 0.01, trace, tmp_path / "work", quality_ops=1,
        spans_path=tmp_path / "spans.jsonl" if trace else None,
    )
    assert report.failed == 0, report.failures
    assert not (tmp_path / "work").exists()
    text = "\n".join(workloads.format_report(report))
    for metric, unit in workloads.E2E_METRICS:
        value = report.end_to_end[metric]
        shown = "n/a" if value is None else f"{value:.6g} {unit}"
        assert f"{metric:<20} {shown}" in text

    line = workloads.result_line(report)
    assert line["correct"] is True and line["attempted"] == report.attempted >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    if trace:
        for metric, unit in tracing.LAYER_METRICS:
            assert f"{metric:<30} {report.per_layer[metric]:.6g} {unit}" in text
        spans = [json.loads(s) for s in (tmp_path / "spans.jsonl").read_text().splitlines()]
        assert spans and all(
            {"name", "start", "end", "parent", "op", "self_s"} <= set(s) for s in spans)
        assert all(s["end"] >= s["start"] and s["self_s"] > -1e-9 for s in spans)
    else:
        for metric in workloads.GATED:
            assert line["metrics"][metric]["value"] > 0


def test_durations_scale_to_reference_seconds():
    ref = speed.REFERENCE_S
    assert speed.to_reference([1.0, 2.0], [ref, ref, ref]) == [1.0, 2.0]
    # while the probe takes four times as long, the ops take twice as long
    assert speed.to_reference([2.0, 4.0], [4 * ref, 4 * ref, 4 * ref]) == pytest.approx([1.0, 2.0])
    # an import twice as slow as the dependencies' on a machine at any speed
    deps = speed.REFERENCE_IMPORT_S
    assert speed.import_to_reference([(2 * deps, deps), (6 * deps, 3 * deps)]) == 2 * deps


def test_corrupted_op_output_counts_as_failed(tmp_path, monkeypatch):
    workload = workloads.WORKLOADS["desk-lp"]
    original = workload.op

    def corrupt_second_op(state, index):
        rows, log_text = original(state, index)
        if index == 1:
            records = [json.loads(line) for line in log_text.splitlines()]
            records[0]["exact_a_value"] = records[0]["lp_bound"] * 1.01
            log_text = "\n".join(json.dumps(r) for r in records)
        return rows, log_text

    monkeypatch.setattr(workload, "op", corrupt_second_op)
    report = workloads.run_workload(
        "desk-lp", 0, 0.01, False, tmp_path / "work", quality_ops=3)
    assert report.attempted == 3
    assert report.failed == 1 and report.failures[0]["op"] == 1
    assert report.end_to_end["failed_frac"] == pytest.approx(1 / 3)
    assert workloads.result_line(report)["correct"] is False


def test_deterministic_metrics_repeat(tmp_path):
    reports = [
        workloads.run_workload("desk-lp", 5, 0.01, trace, tmp_path / f"w{i}",
                               quality_ops=2)
        for i, trace in enumerate((False, True, True))
    ]
    for report in reports[1:]:
        for metric in DETERMINISTIC:
            assert report.end_to_end[metric] == reports[0].end_to_end[metric]
    counts = [name for name, unit in tracing.LAYER_METRICS if unit == "count/op"]
    counts.append("heuristics.grasp_win_frac")
    assert {m: reports[1].per_layer[m] for m in counts} == {
        m: reports[2].per_layer[m] for m in counts}


def test_command_ends_with_the_result_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "desk-lp", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=180, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert proc.stdout.startswith("machine {")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-lp", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
