import numpy as np
import pytest

from pclopt import (
    GeneratorConfig,
    GraspConfig,
    a_value,
    brute_force_oracle,
    generate_instance,
    grasp,
    greedy,
    is_feasible,
)
from pclopt.heuristics import _construct, _ratio_order

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


_PINNED = {
    # offered products of greedy, of GRASP (rcl_max=5, max_iter=80, seed=3)
    # and of each rcl = 1..5 construction, with the A values and the RNG's
    # next draw after each construction, as recorded before the construction
    # was vectorized
    "real-weights": dict(
        greedy=([0, 6, 7, 13, 23, 26, 29, 31, 32], 1330.736351191984),
        grasp=([0, 6, 7, 13, 23, 26, 29, 31, 32], 1330.736351191984, 1, 1),
        rounds=[
            [0, 6, 7, 13, 23, 26, 29, 31, 32],
            [0, 1, 7, 12, 13, 23, 26, 29, 31, 32],
            [0, 6, 7, 13, 23, 26, 29, 31, 32],
            [0, 6, 7, 12, 13, 20, 26, 29, 31, 32],
            [0, 6, 7, 12, 23, 26, 29, 31, 32],
        ],
        next_draws=[978, 775, 835, 64, 690],
    ),
    "integer-weights": dict(
        greedy=([10, 14, 19, 28, 29, 35, 38, 40, 41, 49, 52], 2081.2142667715243),
        grasp=([10, 14, 19, 28, 29, 35, 38, 40, 41, 49, 52], 2081.2142667715243, 1, 2),
        rounds=[
            [10, 14, 19, 28, 29, 35, 38, 40, 41, 49, 52],
            [10, 14, 19, 28, 29, 35, 38, 40, 41, 49, 52],
            [13, 14, 19, 28, 29, 35, 38, 40, 41, 49, 52],
            [10, 14, 19, 28, 29, 35, 38, 40, 41, 49, 52],
            [10, 14, 28, 29, 35, 38, 39, 40, 41, 49, 52],
        ],
        next_draws=[978, 775, 553, 712, 179],
    ),
    "ratio-ties": dict(
        greedy=([0, 1, 2, 3, 6], 121.31267338845541),
        grasp=([0, 1, 2, 6, 8], 121.31267338845542, 3, 1),
        rounds=[[0, 1, 2, 3, 6], [0, 1, 2, 3, 6], [0, 1, 2, 6, 8], [0, 1, 2, 3, 6], [0, 1, 6, 7, 9]],
        next_draws=[978, 813, 999, 117, 898],
    ),
}


def _pinned_instance(name):
    if name == "real-weights":
        return generate_instance(GeneratorConfig(n=40, kappa=0.1, seed=11))
    if name == "integer-weights":
        return generate_instance(
            GeneratorConfig(n=60, kappa=0.06, seed=12, integer_weights=True)
        )
    # ratios 2, 2, 2, 2, 1, 2, 3, 1, 2, 2: most picks are decided by index
    return toy_instance(
        np.log([4, 2, 4, 2, 3, 6, 3, 1, 2, 4]), [2, 1, 2, 1, 3, 3, 1, 1, 1, 2], 7.0, gamma=0.6
    )


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_construction_picks_and_draws_are_pinned(name):
    inst = _pinned_instance(name)
    pinned = _PINNED[name]
    g = greedy(inst)
    assert (np.flatnonzero(g.assortment).tolist(), g.a_value) == pinned["greedy"]
    best = grasp(inst, GraspConfig(rcl_max=5, max_iter=80, seed=3))
    assert (
        np.flatnonzero(best.assortment).tolist(),
        best.a_value,
        best.stats.construction_rcl,
        best.stats.improvement_count,
    ) == pinned["grasp"]
    order = _ratio_order(inst)
    rounds, next_draws = [], []
    for rcl in range(1, 6):
        rng = np.random.default_rng((3, rcl))
        rounds.append(np.flatnonzero(_construct(inst, order, rcl, rng)).tolist())
        next_draws.append(int(rng.integers(1000)))
    assert rounds == pinned["rounds"]
    assert next_draws == pinned["next_draws"]
