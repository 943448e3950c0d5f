import math

import numpy as np
import pytest

from pclopt import (
    BranchBoundConfig,
    GraspConfig,
    a_value,
    branch_and_bound,
    brute_force_oracle,
    coefficients,
    grasp,
    greedy,
    knapsack_majorant_bound,
    lambert_w0,
    lp_relaxation,
    pair_count,
    revenue_upper_bound,
)

from conftest import random_instance, toy_instance


def test_formulation_shapes_and_signs():
    inst = random_instance(1, n=7)
    coeffs = coefficients(inst)
    assert coeffs.mu.size == pair_count(7) == 21
    assert np.all(coeffs.mu <= 0.0)
    assert coeffs.lin_costs == pytest.approx(6.0 * np.exp(inst.alpha))


def test_brute_force_tie_breaks_toward_product_one():
    inst = toy_instance([0.0, 0.0], [1.0, 1.0], 1.0, gamma=0.5)
    for solver in (brute_force_oracle, branch_and_bound):
        result = solver(inst)
        assert result.assortment.tolist() == [1, 0]
        assert result.a_value == pytest.approx(1.0, abs=1e-12)
        assert result.status == "optimal"


def test_brute_force_prefers_the_pair_when_it_fits():
    inst = toy_instance([0.0, 0.0], [1.0, 1.0], 2.0, gamma=0.5)
    for solver in (brute_force_oracle, branch_and_bound):
        result = solver(inst)
        assert result.assortment.tolist() == [1, 1]
        assert result.a_value == pytest.approx(math.sqrt(2.0), abs=1e-12)


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_exact_ties_resolve_toward_low_indices(gamma):
    # four identical products, room for two: every pair attains the optimum
    inst = toy_instance([0.0] * 4, [1.0] * 4, 2.0, gamma=gamma)
    for solver in (brute_force_oracle, branch_and_bound):
        result = solver(inst)
        assert result.assortment.tolist() == [1, 1, 0, 0]
        assert result.status == "optimal"


def test_brute_force_refuses_large_instances():
    inst = random_instance(3, n=23)
    with pytest.raises(ValueError):
        brute_force_oracle(inst)


def test_lp_relaxation_tight_when_everything_fits():
    inst = random_instance(5, n=8, kappa=0.99)
    inst.capacity = float(inst.weights.sum()) + 1.0
    lp = lp_relaxation(inst)
    assert lp.x_frac == pytest.approx(np.ones(8), abs=1e-7)
    assert lp.objective_value == pytest.approx(
        a_value(inst, np.ones(8, dtype=int)), rel=1e-7
    )


def test_lp_relaxation_binding_two_product_case():
    inst = toy_instance([0.0, 0.0], [1.0, 1.0], 1.0, gamma=0.5)
    lp = lp_relaxation(inst)
    assert lp.x_frac.sum() == pytest.approx(1.0, abs=1e-8)
    assert lp.objective_value == pytest.approx(1.0, abs=1e-8)


def test_lp_solution_structure_and_bound_property():
    for seed in range(12):
        inst = random_instance(seed + 60, n=int(np.random.default_rng(seed).integers(4, 12)))
        lp = lp_relaxation(inst)
        I, J = inst.pair_i, inst.pair_j
        # constraints hold and y sits on its lower envelope
        assert float(inst.weights @ lp.x_frac) <= inst.capacity + 1e-8
        assert np.all(lp.x_frac >= -1e-9) and np.all(lp.x_frac <= 1 + 1e-9)
        assert np.all(1.0 + lp.y_frac - lp.x_frac[I] - lp.x_frac[J] >= -1e-8)
        assert lp.y_frac == pytest.approx(
            np.maximum(0.0, lp.x_frac[I] + lp.x_frac[J] - 1.0), abs=1e-8
        )
        oracle = brute_force_oracle(inst)
        assert lp.objective_value >= oracle.a_value - 1e-8


def test_majorant_bound_cases_and_chain():
    inst = toy_instance([0.0, math.log(2.0)], [1.0, 1.0], 3.0, gamma=0.5)
    assert knapsack_majorant_bound(inst) == pytest.approx(3.0, rel=1e-12)  # (n-1) sum theta

    # capacity below the lightest weight: one fractional item at the best ratio
    inst = toy_instance(np.log([2.0, 5.0]), [2.0, 4.0], 0.5, gamma=0.5)
    best_ratio = 5.0 / 4.0
    assert knapsack_majorant_bound(inst) == pytest.approx(0.5 * best_ratio, rel=1e-12)

    for seed in range(10):
        inst = random_instance(seed + 400)
        major = knapsack_majorant_bound(inst)
        lp = lp_relaxation(inst)
        oracle = brute_force_oracle(inst)
        assert major >= lp.objective_value - 1e-8
        assert lp.objective_value >= oracle.a_value - 1e-8


@pytest.mark.filterwarnings("error")  # a numpy overflow warning fails the test
def test_overflowing_majorant_is_silent():
    # theta = exp(708): (n-1) theta and its knapsack sums overflow to inf
    inst = toy_instance([708.0] * 5, [1, 2, 3, 4, 5], 6.0, gamma=0.5)
    assert knapsack_majorant_bound(inst) == math.inf
    with pytest.raises(OverflowError):
        branch_and_bound(inst)


def test_branch_and_bound_matches_oracle():
    rng = np.random.default_rng(14)
    for _ in range(25):
        n = int(rng.integers(4, 13))
        inst = random_instance(int(rng.integers(2**32)), n=n)
        oracle = brute_force_oracle(inst)
        # from the empty assortment and from the GRASP answer
        for incumbent in (None, grasp(inst).assortment):
            result = branch_and_bound(inst, incumbent=incumbent)
            assert result.status == "optimal"
            assert result.a_value == oracle.a_value
            assert np.array_equal(result.assortment, oracle.assortment)
            assert result.a_value <= result.upper_bound + 1e-8
            assert abs(result.revenue - lambert_w0(result.a_value / math.e) / inst.beta) <= 1e-10


def test_branch_and_bound_linear_case_is_easy():
    # gamma = 1 everywhere makes the objective linear; the capacity matches
    # the two best ratio items exactly, so the root relaxation is integral
    inst = toy_instance(np.log([4.0, 3.0, 2.0, 1.0]), [1.0, 1.0, 1.0, 1.0], 2.0, gamma=1.0)
    result = branch_and_bound(inst)
    assert result.assortment.tolist() == [1, 1, 0, 0]
    assert result.status == "optimal"
    assert result.stats.nodes <= inst.n


def test_branch_and_bound_budget_exhaustion():
    inst = random_instance(99, n=14, kappa=0.4)
    config = BranchBoundConfig(node_budget=1)
    seeded = grasp(inst)
    result = branch_and_bound(inst, config, incumbent=seeded.assortment)
    assert result.status == "feasible"
    assert result.a_value <= result.upper_bound + 1e-8
    # the incumbent is still the one the heuristic seeded
    assert result.a_value >= seeded.a_value


def test_branch_and_bound_incumbent_never_below_heuristics():
    for seed in range(8):
        inst = random_instance(seed + 800)
        seeded = grasp(inst, GraspConfig(seed=seed))
        result = branch_and_bound(inst, incumbent=seeded.assortment)
        assert result.a_value >= seeded.a_value
        assert result.a_value >= greedy(inst).a_value


@pytest.mark.parametrize(
    "incumbent",
    [[1, 1, 1, 1], [1, 1, 0], [1, 2, 0, 0]],
    ids=["over-capacity", "wrong-length", "not-binary"],
)
def test_branch_and_bound_rejects_a_bad_incumbent(incumbent):
    inst = toy_instance([0.0] * 4, [1.0] * 4, 2.0, gamma=0.5)
    with pytest.raises(ValueError):
        branch_and_bound(inst, incumbent=incumbent)


def test_branch_and_bound_global_bound_is_monotone():
    inst = random_instance(42, n=12, kappa=0.3)
    config = BranchBoundConfig(record_bound_history=True)
    result = branch_and_bound(inst, config)
    history = result.stats.bound_history
    assert history, "expected a recorded bound trace"
    assert all(b1 >= b2 - 1e-9 for b1, b2 in zip(history, history[1:]))
    assert all(b >= result.a_value - 1e-9 for b in history)


@pytest.mark.parametrize(
    "alpha, expected_x, expected_a",
    [([-1.0, -2.0, -3.0], [1, 1, 0], 0.871094), ([1.0, 2.0, 3.0], [0, 1, 1], 47.560130)],
)
def test_subnormal_gamma_keeps_the_true_optimum(alpha, expected_x, expected_a):
    # alpha / gamma overflows at gamma = 1e-310; rho must tend to max theta
    inst = toy_instance(alpha, [1.0, 1.0, 1.0], 2.0, gamma=1e-310)
    for result in (brute_force_oracle(inst), branch_and_bound(inst)):
        assert result.assortment.tolist() == expected_x
        assert result.a_value == pytest.approx(expected_a, abs=1e-6)


def test_revenue_upper_bound_chain():
    inst = toy_instance([0.0, 0.0], [1.0, 1.0], 1.0, gamma=0.5)
    assert revenue_upper_bound(inst) == pytest.approx(2.784645427610738, abs=1e-6)

    # unconstrained: the relaxation is tight, so the bound equals the optimum
    inst = random_instance(19, n=7)
    inst.capacity = float(inst.weights.sum()) + 1.0
    oracle = brute_force_oracle(inst)
    assert revenue_upper_bound(inst) == pytest.approx(oracle.revenue, rel=1e-6)

    for seed in range(8):
        inst = random_instance(seed + 250)
        assert revenue_upper_bound(inst) >= brute_force_oracle(inst).revenue - 1e-8


def test_result_serialization():
    inst = random_instance(61, n=6)
    result = branch_and_bound(inst)
    payload = result.to_dict()
    assert payload["status"] == "optimal"
    assert payload["assortment"] == result.assortment.tolist()
    assert set(payload["stats"]) == {"nodes", "lp_solves", "wall_time_s"}
