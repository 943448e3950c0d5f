import numpy as np
import pytest

from pclopt import (
    GraspConfig,
    a_value,
    brute_force_oracle,
    grasp,
    greedy,
    is_feasible,
)

from conftest import random_instance, toy_instance


def test_greedy_picks_top_ratios_that_fit():
    inst = toy_instance(np.log([3.0, 2.0, 1.0]), [2.0, 2.0, 2.0], 4.0)
    assert greedy(inst).assortment.tolist() == [1, 1, 0]


def test_greedy_sorts_by_ratio_not_by_theta():
    # ratios are 5/10 = 0.5 and 4/1 = 4.0: product 1 is scanned first and fits
    inst = toy_instance(np.log([5.0, 4.0]), [10.0, 1.0], 1.0)
    assert greedy(inst).assortment.tolist() == [0, 1]


def test_greedy_with_nothing_fitting():
    inst = toy_instance([0.0, 0.0], [2.0, 3.0], 1.0)
    result = greedy(inst)
    assert result.assortment.tolist() == [0, 0]
    assert result.a_value == 0.0
    assert result.revenue == 0.0


def test_greedy_skips_and_continues():
    # product 1 (ratio 4) fits, product 0 (ratio 3, weight 2) does not,
    # product 2 (ratio 1, weight 1) still fits afterwards
    inst = toy_instance(np.log([6.0, 4.0, 1.0]), [2.0, 1.0, 1.0], 2.0)
    assert greedy(inst).assortment.tolist() == [0, 1, 1]


def test_grasp_with_rcl_one_and_no_search_is_greedy():
    for seed in range(50):
        inst = random_instance(seed)
        g = greedy(inst)
        zero = grasp(inst, GraspConfig(rcl_max=1, max_iter=0, seed=seed))
        assert np.array_equal(zero.assortment, g.assortment)
        assert zero.a_value == g.a_value
        assert zero.price == g.price
        assert zero.revenue == g.revenue


def test_grasp_never_loses_to_greedy():
    for seed in range(30):
        inst = random_instance(seed + 40)
        g = greedy(inst)
        best = grasp(inst, GraspConfig(rcl_max=5, max_iter=80, seed=seed))
        assert best.a_value >= g.a_value
        assert best.revenue >= g.revenue - 1e-12


def test_grasp_is_deterministic_and_feasible():
    inst = random_instance(123)
    config = GraspConfig(rcl_max=4, max_iter=60, seed=7)
    first = grasp(inst, config)
    second = grasp(inst, config)
    assert np.array_equal(first.assortment, second.assortment)
    assert first.a_value == second.a_value
    assert is_feasible(inst, first.assortment)
    assert 1 <= first.stats.construction_rcl <= 4
    assert first.stats.improvement_count >= 0


def test_grasp_never_beats_the_oracle():
    for seed in range(15):
        inst = random_instance(seed + 900, n=10)
        best = grasp(inst, GraspConfig(rcl_max=5, max_iter=80, seed=seed))
        oracle = brute_force_oracle(inst)
        assert best.a_value <= oracle.a_value + 1e-9 * max(1.0, oracle.a_value)


def test_local_search_repairs_a_bad_construction():
    # two heavy high-ratio products can be beaten by swapping in the light one
    inst = toy_instance(np.log([10.0, 1.05, 1.0]), [5.0, 1.0, 1.0], 6.0, gamma=0.9)
    result = grasp(inst, GraspConfig(rcl_max=3, max_iter=200, seed=0))
    assert result.a_value >= greedy(inst).a_value
    assert is_feasible(inst, result.assortment)


def test_grasp_result_values_recompute():
    inst = random_instance(55)
    result = grasp(inst, GraspConfig(rcl_max=3, max_iter=40, seed=2))
    assert result.a_value == a_value(inst, result.assortment)


def test_config_validation():
    with pytest.raises(ValueError):
        GraspConfig(rcl_max=0)
    with pytest.raises(ValueError):
        GraspConfig(max_iter=-1)
    with pytest.raises(ValueError):
        GraspConfig(seed=-3)
