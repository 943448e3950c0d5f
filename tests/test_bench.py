import hashlib
import json

import numpy as np
import pytest

import pclopt.bench
import pclopt.exact
import pclopt.heuristics
from pclopt import (
    ExperimentRow,
    GeneratorConfig,
    compute_gap,
    derive_seed,
    emit_report,
    generate_instance,
    pair_count,
    run_experiment,
)
from pclopt.bench import METHODS


def test_generator_ranges():
    config = GeneratorConfig(n=40, kappa=0.3, seed=11)
    inst = generate_instance(config)
    theta = np.exp(inst.alpha)
    assert np.all(theta > 0) and np.all(theta <= 5.0 * (1 + 1e-12))
    assert np.all(inst.weights >= 1.0) and np.all(inst.weights <= 10.0)
    assert np.all(inst.gamma_upper >= 0.1) and np.all(inst.gamma_upper <= 1.0)
    assert inst.gamma_upper.size == pair_count(40)
    assert inst.capacity == 0.3 * float(inst.weights.sum())
    assert inst.beta == 0.1


def test_generator_integer_weights():
    inst = generate_instance(GeneratorConfig(n=30, kappa=0.2, seed=4, integer_weights=True))
    assert np.all(inst.weights == np.round(inst.weights))
    assert np.all((inst.weights >= 1) & (inst.weights <= 10))


def test_generator_determinism_and_seed_sensitivity():
    config = GeneratorConfig(n=12, kappa=0.1, seed=9)
    first = generate_instance(config)
    second = generate_instance(config)
    assert np.array_equal(first.alpha, second.alpha)
    assert np.array_equal(first.weights, second.weights)
    assert np.array_equal(first.gamma_upper, second.gamma_upper)

    alphas = {generate_instance(GeneratorConfig(n=12, kappa=0.1, seed=s)).alpha.tobytes()
              for s in range(30)}
    assert len(alphas) == 30  # no collisions across a seed batch


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(n=1, kappa=0.1, seed=0)
    with pytest.raises(ValueError):
        GeneratorConfig(n=5, kappa=0.0, seed=0)
    with pytest.raises(ValueError):
        GeneratorConfig(n=5, kappa=1.0, seed=0)
    with pytest.raises(ValueError):
        GeneratorConfig(n=5, kappa=0.5, seed=-1)


def test_derive_seed_is_stable_sha256():
    expected = int.from_bytes(
        hashlib.sha256(b"0|20|0.02|0").digest()[:8], "big"
    )
    assert derive_seed(0, 20, 0.02, 0) == expected
    assert derive_seed(0, 20, 0.02, 0) != derive_seed(0, 20, 0.02, 1)


def test_compute_gap():
    assert compute_gap(100.0, 100.0) == 0.0
    assert compute_gap(100.0, 99.9) == pytest.approx(0.1, abs=1e-9)
    assert compute_gap(100.0, 100.0 + 5e-9) == 0.0  # float noise clamps to zero
    with pytest.raises(ValueError):
        compute_gap(0.0, 1.0)
    with pytest.raises(ValueError):
        compute_gap(100.0, 100.1)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    log_path = tmp_path_factory.mktemp("bench") / "log.jsonl"
    grid = [(8, 0.2), (10, 0.3)]
    rows = run_experiment(
        grid, 4, ["exact", "lp-bound", "greedy", "grasp"], 123, log_path=log_path
    )
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    return grid, rows, records


def test_run_experiment_shapes(small_run):
    grid, rows, records = small_run
    assert [(row.n, row.kappa) for row in rows] == grid
    assert all(row.instance_count == 4 for row in rows)
    assert len(records) == 8


def test_per_instance_chains(small_run):
    _, _, records = small_run
    for rec in records:
        slack = 1e-8
        assert rec["majorant_bound"] >= rec["lp_bound"] - slack
        assert rec["lp_bound"] >= rec["exact_a_value"] - slack
        assert rec["exact_a_value"] >= rec["grasp_a_value"] - slack
        assert rec["grasp_a_value"] >= rec["greedy_a_value"] - slack
        assert rec["revenue_upper_bound"] >= rec["exact_revenue"] - slack
        assert rec["exact_revenue"] >= rec["grasp_revenue"] - slack
        assert rec["grasp_revenue"] >= rec["greedy_revenue"] - slack
        assert rec["gap_exact_pct"] <= rec["gap_grasp_pct"] + slack
        assert rec["gap_grasp_pct"] <= rec["gap_greedy_pct"] + slack
        # branch-and-bound's bound is never looser than the LP it was given
        assert rec["exact_a_value"] <= rec["exact_upper_bound"]
        assert rec["exact_upper_bound"] <= max(rec["lp_bound"], rec["exact_a_value"])
        assert rec["exact_fixed_in"] + rec["exact_fixed_out"] <= rec["n"]


def test_aggregates_recompute_from_log(small_run):
    grid, rows, records = small_run
    for row in rows:
        combo = [r for r in records if r["n"] == row.n and r["kappa"] == row.kappa]
        gaps = [r["gap_greedy_pct"] for r in combo]
        assert row.greedy_gap_avg == pytest.approx(float(np.mean(gaps)))
        assert row.greedy_gap_max == pytest.approx(float(np.max(gaps)))
        times = [r["exact_time_s"] for r in combo]
        assert row.exact_time_max == pytest.approx(float(np.max(times)))
        assert row.exact_budget_hits == sum(
            1 for r in combo if r["exact_status"] != "optimal"
        )


def test_run_experiment_objectives_are_deterministic(small_run):
    grid, rows, _ = small_run
    again = run_experiment(grid, 4, ["exact", "lp-bound", "greedy", "grasp"], 123)
    objective_fields = [
        "exact_gap_avg", "exact_gap_max", "greedy_gap_avg", "greedy_gap_max",
        "grasp_gap_avg", "grasp_gap_max",
    ]
    for row, row2 in zip(rows, again):
        for name in objective_fields:
            assert getattr(row, name) == getattr(row2, name)


def test_run_experiment_empty_methods_and_validation(tmp_path):
    assert run_experiment([(8, 0.2)], 3, [], 0) == []
    with pytest.raises(ValueError):
        run_experiment([(8, 0.2)], 3, ["simplex"], 0)
    with pytest.raises(ValueError):
        run_experiment([(400, 0.02)], 1, ["exact"], 0, node_budget=None)


@pytest.mark.parametrize(
    "grid, instances",
    [([(8, 0.2), (1, 0.5)], 2), ([(8, 0.2), (8, 0.0)], 2), ([(8, 0.2)], 0), ([(8, 0.2)], -2)],
    ids=["late-bad-n", "late-bad-kappa", "zero-instances", "negative-instances"],
)
def test_run_experiment_checks_the_whole_request_before_any_work(monkeypatch, grid, instances):
    def refuse(*args, **kwargs):
        raise AssertionError("an instance was generated before the request was checked")

    monkeypatch.setattr(pclopt.bench, "generate_instance", refuse)
    progress = []
    for methods in (METHODS, []):
        with pytest.raises(ValueError):
            run_experiment(grid, instances, methods, 0, progress=progress.append)
    assert progress == []


def test_run_experiment_builds_coefficients_once_per_instance(coefficient_builds):
    run_experiment([(20, 0.04)], 1, METHODS, 0)
    assert len(coefficient_builds) == 1


def test_run_experiment_runs_each_heuristic_once_per_instance(monkeypatch):
    calls = {"greedy": 0, "grasp": 0}
    for name in calls:
        original = getattr(pclopt.heuristics, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (pclopt.bench, pclopt.exact):
            monkeypatch.setattr(module, name, counting)
    run_experiment([(20, 0.04)], 1, METHODS, 0)
    assert calls == {"greedy": 1, "grasp": 1}


@pytest.mark.parametrize("methods", [METHODS, ["exact"]], ids=["all", "exact"])
def test_run_experiment_solves_the_root_lp_once_per_instance(monkeypatch, methods):
    calls = []
    original = pclopt.exact.lp_relaxation

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (pclopt.bench, pclopt.exact):
        monkeypatch.setattr(module, "lp_relaxation", counting)
    run_experiment([(20, 0.04)], 2, methods, 0)
    assert len(calls) == 2


def test_run_experiment_partial_methods():
    rows = run_experiment([(6, 0.3)], 2, ["greedy"], 5)
    row = rows[0]
    assert row.greedy_time_avg is not None
    assert row.exact_time_avg is None
    assert row.greedy_gap_avg is None  # no bound requested, no gaps


GOLDEN_CSV = (
    "combo,exact_time_avg,exact_time_max,ub_time_avg,ub_time_max,"
    "greedy_time_avg,greedy_time_max,grasp_time_avg,grasp_time_max,"
    "exact_gap_avg,exact_gap_max,greedy_gap_avg,greedy_gap_max,"
    "grasp_gap_avg,grasp_gap_max\n"
    '"(20, 0.02)",9.9,11.8,3.6,5.6,0.1,0.2,39.1,39.7,'
    "0.11,0.20,0.28,0.46,0.20,0.31\n"
    "Average,----,----,----,----,----,----,----,----,"
    "0.11,0.20,0.28,0.46,0.20,0.31\n"
    "# reference gap targets at production scale (n=400-1000): "
    "mip_gap_avg_pct=0.03 heuristic_gap_avg_pct=0.18 "
    "heuristic_gap_worst_pct=0.46 grasp_gap_avg_pct=0.16 "
    "grasp_gap_worst_pct=0.31\n"
)


def synthetic_row():
    return ExperimentRow(
        n=20, kappa=0.02, instance_count=25,
        exact_time_avg=9.94, exact_time_max=11.8, ub_time_avg=3.61, ub_time_max=5.6,
        greedy_time_avg=0.15, greedy_time_max=0.18,
        grasp_time_avg=39.1, grasp_time_max=39.7,
        exact_gap_avg=0.11, exact_gap_max=0.2,
        greedy_gap_avg=0.28, greedy_gap_max=0.46,
        grasp_gap_avg=0.2, grasp_gap_max=0.31,
    )


def test_csv_golden_render():
    assert emit_report([synthetic_row()], "csv") == GOLDEN_CSV


def test_average_row_dashes_runtimes_and_averages_gaps():
    row_a = synthetic_row()
    row_b = synthetic_row()
    row_b.kappa = 0.04
    row_b.greedy_gap_avg = 0.30
    report = emit_report([row_a, row_b], "csv")
    average_line = report.splitlines()[-2]
    assert average_line.startswith("Average,----")
    assert ",0.29," in average_line  # mean of 0.28 and 0.30


def test_markdown_render_contains_table():
    report = emit_report([synthetic_row()], "markdown")
    assert report.startswith("| combo")
    assert "| (20, 0.02) |" in report
    assert "| Average" in report
    assert "# reference gap targets" in report


def test_json_round_trip_and_empty_handling():
    rows = [synthetic_row()]
    payload = emit_report(rows, "json")
    restored = [ExperimentRow.from_dict(item) for item in json.loads(payload)]
    assert restored == rows
    assert json.loads(emit_report([], "json")) == []
    with pytest.raises(ValueError):
        emit_report([], "csv")
    with pytest.raises(ValueError):
        emit_report([], "markdown")
    with pytest.raises(ValueError):
        emit_report(rows, "xml")
