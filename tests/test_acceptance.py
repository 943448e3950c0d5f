"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The benchmark-backed
criteria share a single desk-scale run (grid n in {20, 50, 100}, kappa in
{0.02, 0.04, 0.06}, 25 instances per combination).
"""

import json
import math
import time

import numpy as np
import pytest

from pclopt import (
    DESK_GRID,
    GeneratorConfig,
    GraspConfig,
    a_value,
    branch_and_bound,
    brute_force_oracle,
    choice_probabilities,
    coefficients,
    derive_seed,
    emit_report,
    expected_revenue,
    generate_instance,
    grasp,
    greedy,
    lambert_w0,
    optimal_uniform_price,
    run_experiment,
    simulate_choice,
)

from pclopt.heuristics import _construct
from pclopt.objective import ratio_order

from conftest import pair_sum_a, random_feasible_assortment


def _report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}: {name} {detail}".rstrip())
    assert ok, f"{name} {detail}"


def _instance(seed, n, kappa, beta=0.1):
    return generate_instance(GeneratorConfig(n=n, kappa=kappa, seed=seed, beta=beta))


@pytest.fixture(scope="module")
def desk_bench(tmp_path_factory):
    log_path = tmp_path_factory.mktemp("acceptance") / "desk.jsonl"
    t0 = time.perf_counter()
    rows = run_experiment(
        DESK_GRID,
        25,
        ["exact", "lp-bound", "greedy", "grasp"],
        20_240,
        grasp_rcl_max=5,
        node_budget=50_000,
        log_path=log_path,
        jobs=2,
    )
    elapsed = time.perf_counter() - t0
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    return rows, records, elapsed


def test_criterion_1_lambert_residual():
    t0 = time.perf_counter()
    ys = np.concatenate([[0.0], np.logspace(-8.0, 8.0, 9_999)])
    worst = 0.0
    for y in ys:
        w = lambert_w0(float(y))
        # relative to y, also below 1, where W(y) ~ y
        residual = abs(w * math.exp(w) - y)
        worst = max(worst, residual / y if y > 0.0 else residual)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1 (Lambert-W residual)",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst residual {worst:.2e} over {ys.size} points in {elapsed:.2f}s",
    )


def test_criterion_2_uniform_price_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_rev, worst_id = 0.0, 0.0
    for trial in range(200):
        n = int(rng.integers(2, 31))
        inst = _instance(int(rng.integers(2**32)), n, float(rng.uniform(0.05, 0.6)))
        x = random_feasible_assortment(inst, rng)
        price, revenue = optimal_uniform_price(inst, x)
        realized = expected_revenue(inst, np.full(n, price), x)
        worst_rev = max(worst_rev, abs(realized - revenue) / max(1.0, revenue))
        worst_id = max(worst_id, abs(revenue - (price - 1.0 / inst.beta)))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 2 (uniform-price identities)",
        worst_rev <= 1e-8 and worst_id <= 1e-10 and elapsed < 10.0,
        f"revenue err {worst_rev:.2e}, identity err {worst_id:.2e} in {elapsed:.1f}s",
    )


def test_criterion_3_uniform_price_dominance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_excess = -np.inf
    for trial in range(50):
        n = int(rng.integers(2, 31))
        inst = _instance(int(rng.integers(2**32)), n, float(rng.uniform(0.05, 0.6)))
        x = random_feasible_assortment(inst, rng)
        _, best = optimal_uniform_price(inst, x)
        scale = 3.0 / inst.beta
        for _ in range(1_000):
            prices = rng.uniform(0.0, scale, n)
            worst_excess = max(worst_excess, expected_revenue(inst, prices, x) - best)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 3 (uniform-price dominance)",
        worst_excess <= 1e-8 and elapsed < 60.0,
        f"max excess {worst_excess:.2e} over 50x1000 price vectors in {elapsed:.1f}s",
    )


def test_criterion_4_normalization_and_monte_carlo():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    trials = 1_000_000
    bound = 4.0 * math.sqrt(0.25 / trials)
    worst_norm, worst_dev = 0.0, 0.0
    for trial in range(10):
        n = int(rng.integers(2, 21))
        inst = _instance(int(rng.integers(2**32)), n, float(rng.uniform(0.1, 0.6)))
        prices = rng.uniform(0.0, 20.0, n)
        x = random_feasible_assortment(inst, rng)
        dist = choice_probabilities(inst, prices, x)
        worst_norm = max(
            worst_norm, abs(dist.no_purchase + dist.product_probs.sum() - 1.0)
        )
        sim = simulate_choice(inst, prices, x, rng_seed=trial, trials=trials)
        worst_dev = max(
            worst_dev,
            float(np.max(np.abs(sim.product_probs - dist.product_probs))),
            abs(sim.no_purchase - dist.no_purchase),
        )
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 4 (normalization + Monte Carlo)",
        worst_norm <= 1e-10 and worst_dev <= bound and elapsed < 60.0,
        f"norm err {worst_norm:.2e}, MC dev {worst_dev:.4f} (bound {bound}) in {elapsed:.1f}s",
    )


def test_criterion_5_linearization_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    n = 10
    worst = 0.0
    for trial in range(20):
        inst = _instance(int(rng.integers(2**32)), n, float(rng.uniform(0.1, 0.9)))
        for mask in range(1 << n):
            x = np.array([(mask >> k) & 1 for k in range(n)], dtype=np.int8)
            direct = pair_sum_a(inst, x)
            linear = a_value(inst, x)
            worst = max(worst, abs(direct - linear) / max(1.0, abs(direct)))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 5 (linearization identity)",
        worst <= 1e-9 and elapsed < 30.0,
        f"worst rel err {worst:.2e} over 20x2^10 assortments in {elapsed:.1f}s",
    )


def test_criterion_6_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    kappas = [0.02, 0.04, 0.06]
    mismatches = 0
    for trial in range(100):
        n = int(rng.integers(6, 17))
        inst = _instance(int(rng.integers(2**32)), n, kappas[trial % 3])
        oracle = brute_force_oracle(inst)
        result = branch_and_bound(inst)
        if result.a_value != oracle.a_value or not np.array_equal(
            result.assortment, oracle.assortment
        ):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 6 (oracle equivalence)",
        mismatches == 0 and elapsed < 300.0,
        f"{mismatches} mismatches over 100 instances in {elapsed:.1f}s",
    )


def test_criterion_7_bound_and_revenue_chains(desk_bench):
    _, records, _ = desk_bench
    slack = 1e-8
    violations = 0
    for rec in records:
        ok = (
            rec["majorant_bound"] >= rec["lp_bound"] - slack
            and rec["lp_bound"] >= rec["exact_a_value"] - slack
            and rec["exact_a_value"] >= rec["grasp_a_value"] - slack
            and rec["grasp_a_value"] >= rec["greedy_a_value"] - slack
            and rec["revenue_upper_bound"] >= rec["exact_revenue"] - slack
            and rec["exact_revenue"] >= rec["grasp_revenue"] - slack
            and rec["grasp_revenue"] >= rec["greedy_revenue"] - slack
        )
        violations += not ok
    _report(
        "criterion 7 (bound and revenue chains)",
        violations == 0 and len(records) == 225,
        f"{violations} violations over {len(records)} benchmark instances",
    )


def test_criterion_8_desk_scale_benchmark(desk_bench):
    rows, records, elapsed = desk_bench
    report = emit_report(rows, "csv")
    combos_ok = [(row.n, row.kappa) for row in rows] == DESK_GRID
    gaps_ok = all(row.grasp_gap_avg <= row.greedy_gap_avg + 1e-8 for row in rows)
    reference_recorded = "reference gap targets" in report
    budget_note = sum(row.exact_budget_hits for row in rows)
    _report(
        "criterion 8 (desk-scale benchmark)",
        combos_ok and gaps_ok and reference_recorded and elapsed < 900.0,
        f"9 combos x 25 instances in {elapsed:.0f}s, "
        f"{budget_note} budget-limited exact solves, "
        "grasp avg gap <= greedy avg gap on every combo",
    )


def test_criterion_9_grasp_degeneracy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    mismatches = 0
    for trial in range(1_000):
        n = int(rng.integers(2, 26))
        inst = _instance(int(rng.integers(2**32)), n, float(rng.uniform(0.05, 0.7)))
        base = greedy(inst)
        # the rcl = 1 construction is greedy bit for bit, and GRASP's local
        # search from it only makes improving moves: with none, its answer
        # is greedy's
        order = ratio_order(coefficients(inst).theta, inst.weights)
        construction = _construct(inst, order, 1, np.random.default_rng((trial, 1)))
        degenerate = grasp(inst, GraspConfig(rcl_max=1, seed=trial))
        same = (
            np.array_equal(construction, base.assortment)
            and degenerate.a_value >= base.a_value
            and degenerate.revenue >= base.revenue
        )
        if degenerate.stats.improvement_count == 0:
            same = same and (
                np.array_equal(degenerate.assortment, base.assortment)
                and degenerate.a_value == base.a_value
                and degenerate.price == base.price
                and degenerate.revenue == base.revenue
            )
        mismatches += not same
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 9 (GRASP degeneracy)",
        mismatches == 0 and elapsed < 30.0,
        f"{mismatches} mismatches over 1000 instances in {elapsed:.1f}s",
    )


def test_criterion_10_determinism():
    config = GeneratorConfig(n=15, kappa=0.3, seed=77)
    gen_same = json.dumps(generate_instance(config).to_dict()) == json.dumps(
        generate_instance(config).to_dict()
    )

    inst = generate_instance(config)
    grasp_config = GraspConfig(rcl_max=5, seed=13)
    grasp_same = json.dumps(grasp(inst, grasp_config).to_dict()) == json.dumps(
        grasp(inst, grasp_config).to_dict()
    )

    sims = [
        simulate_choice(inst, np.full(15, 8.0), np.ones(15, dtype=int), 5, 50_000)
        for _ in range(2)
    ]
    sim_same = (
        np.array_equal(sims[0].product_probs, sims[1].product_probs)
        and sims[0].no_purchase == sims[1].no_purchase
    )

    def bench_objectives():
        rows = run_experiment(
            [(10, 0.3)], 3, ["exact", "lp-bound", "greedy", "grasp"], 99
        )
        return json.dumps(
            [
                {
                    key: value
                    for key, value in row.to_dict().items()
                    if "time" not in key
                }
                for row in rows
            ]
        )

    bench_same = bench_objectives() == bench_objectives()
    seed_stable = derive_seed(99, 10, 0.3, 0) == derive_seed(99, 10, 0.3, 0)

    _report(
        "criterion 10 (seeded determinism)",
        gen_same and grasp_same and sim_same and bench_same and seed_stable,
        "generate, grasp, simulate, and bench objectives are run-to-run identical",
    )
