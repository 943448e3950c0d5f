import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pclopt import (
    GeneratorConfig,
    GraspConfig,
    a_value,
    brute_force_oracle,
    derive_seed,
    generate_instance,
    grasp,
    greedy,
    is_feasible,
    pair_count,
)
import pclopt.heuristics
from pclopt.heuristics import _IMPROVE_TOL, _construct, _local_search, _mu_rows
from pclopt.objective import coefficients, ratio_order

from conftest import ROUNDING_ALPHA, ROUNDING_CENTS, random_instance, toy_instance


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
    # GRASP's rcl = 1 construction is greedy bit for bit; its search only
    # makes improving moves, and where it makes none the answer is greedy's
    for seed in range(50):
        inst = random_instance(seed)
        g = greedy(inst)
        order = ratio_order(coefficients(inst).theta, inst.weights)
        x = _construct(inst, order, 1, np.random.default_rng((seed, 1)))
        assert np.array_equal(x, g.assortment)
        one = grasp(inst, GraspConfig(rcl_max=1, seed=seed))
        assert one.a_value >= g.a_value
        assert one.revenue >= g.revenue
        if one.stats.improvement_count == 0:
            assert np.array_equal(one.assortment, g.assortment)
            assert (one.a_value, one.price, one.revenue) == (g.a_value, g.price, g.revenue)


def test_grasp_never_loses_to_greedy():
    for seed in range(30):
        inst = random_instance(seed + 40)
        g = greedy(inst)
        best = grasp(inst, GraspConfig(rcl_max=5, seed=seed))
        assert best.a_value >= g.a_value
        assert best.revenue >= g.revenue - 1e-12


def test_grasp_is_deterministic_and_feasible():
    inst = random_instance(123)
    config = GraspConfig(rcl_max=4, seed=7)
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
        best = grasp(inst, GraspConfig(rcl_max=5, seed=seed))
        oracle = brute_force_oracle(inst)
        assert best.a_value <= oracle.a_value + 1e-9 * max(1.0, oracle.a_value)


def test_local_search_repairs_a_bad_construction():
    # two heavy high-ratio products can be beaten by swapping in the light one
    inst = toy_instance(np.log([10.0, 1.05, 1.0]), [5.0, 1.0, 1.0], 6.0, gamma=0.9)
    result = grasp(inst, GraspConfig(rcl_max=3, seed=0))
    assert result.a_value >= greedy(inst).a_value
    assert is_feasible(inst, result.assortment)


def test_grasp_result_values_recompute():
    inst = random_instance(55)
    result = grasp(inst, GraspConfig(rcl_max=3, seed=2))
    assert result.a_value == a_value(inst, result.assortment)


def test_config_validation():
    with pytest.raises(ValueError):
        GraspConfig(rcl_max=0)
    with pytest.raises(ValueError):
        GraspConfig(seed=-3)


@pytest.mark.parametrize("shift", [-700.0, 700.0])
def test_grasp_is_scale_free(shift):
    # a common shift of alpha scales every A by exp(shift); the constructions,
    # the moves accepted and the answer must not depend on that scale
    for seed in range(30):
        base = generate_instance(GeneratorConfig(40, 0.1, seed))
        shifted = toy_instance(
            base.alpha + shift, base.weights, base.capacity, gamma=base.gamma_upper
        )
        expected, result = grasp(base), grasp(shifted)
        assert np.array_equal(result.assortment, expected.assortment)
        assert result.stats.construction_rcl == expected.stats.construction_rcl
        assert result.stats.improvement_count == expected.stats.improvement_count


_PINNED = {
    # offered products of greedy, of GRASP (rcl_max=5, seed=3)
    # and of each rcl = 1..5 construction, with the A values and the RNG's
    # next draw after each construction, as recorded before the construction
    # was vectorized
    "real-weights": dict(
        greedy=([0, 6, 7, 13, 23, 26, 29, 31, 32], 1330.7363511919839),
        grasp=([0, 6, 7, 13, 23, 26, 29, 31, 32], 1330.7363511919839, 1, 2),
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
        # products 3 and 8 are interchangeable: [0, 1, 2, 6, 8] (rcl 3) ties
        # rcl 1's answer exactly, and tie_break_prefer keeps product 3
        grasp=([0, 1, 2, 3, 6], 121.31267338845541, 1, 1),
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
    best = grasp(inst, GraspConfig(rcl_max=5, seed=3))
    assert (
        np.flatnonzero(best.assortment).tolist(),
        best.a_value,
        best.stats.construction_rcl,
        best.stats.improvement_count,
    ) == pinned["grasp"]
    order = ratio_order(coefficients(inst).theta, inst.weights)
    rounds, next_draws = [], []
    for rcl in range(1, 6):
        rng = np.random.default_rng((3, rcl))
        rounds.append(np.flatnonzero(_construct(inst, order, rcl, rng)).tolist())
        next_draws.append(int(rng.integers(1000)))
    assert rounds == pinned["rounds"]
    assert next_draws == pinned["next_draws"]


_UNIT_OR_FLOAT = st.one_of(st.integers(1, 5).map(float), st.floats(0.1, 10.0))


def _moves(x):
    """Every add and swap of x, as the 0/1 vectors they lead to."""
    ones, zeros = np.flatnonzero(x), np.flatnonzero(x == 0)
    for k in zeros:
        for out in [None, *ones]:
            y = x.copy()
            y[k] = 1
            if out is not None:
                y[out] = 0
            yield y


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_local_search_ends_at_a_local_optimum(data):
    n = data.draw(st.integers(2, 30))
    shift = data.draw(st.sampled_from([0.0, -700.0, 700.0]))
    # base utilities at most 2 keep every A below the float range at shift 700
    alpha = [shift + a for a in data.draw(st.lists(st.floats(-5.0, 2.0), min_size=n, max_size=n))]
    gammas = data.draw(st.lists(
        st.one_of(st.just(1e-310), st.just(1.0), st.floats(1e-3, 1.0)),
        min_size=pair_count(n), max_size=pair_count(n),
    ))
    weights = np.array(data.draw(st.lists(_UNIT_OR_FLOAT, min_size=n, max_size=n)))
    if data.draw(st.booleans()):
        capacity = data.draw(st.floats(0.05, 1.0)) * weights.sum()
    else:  # a capacity that some assortment fills exactly
        subset = data.draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
        capacity = float(weights[np.array(subset)].sum())
    inst = toy_instance(alpha, weights, capacity, gamma=np.array(gammas))
    seed, rcl = data.draw(st.integers(0, 2**32)), data.draw(st.integers(1, 5))
    start = _construct(inst, ratio_order(coefficients(inst).theta, inst.weights), rcl,
                       np.random.default_rng((seed, rcl)))
    if data.draw(st.booleans()):  # a thinned construction, with room for adds
        start &= np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    x, moves, a_found = _local_search(inst, start, _mu_rows(inst))
    assert is_feasible(inst, x)
    a = a_value(inst, x)
    assert a_found == a
    assert a >= a_value(inst, start) and (moves > 0 or np.array_equal(x, start))
    # no feasible add or swap raises A by more than the search's tolerance
    for y in _moves(x):
        if is_feasible(inst, y):
            assert a_value(inst, y) - a <= _IMPROVE_TOL * a
    assert grasp(inst, GraspConfig(seed=seed)).a_value >= greedy(inst).a_value


@st.composite
def _decimal_weight_cases(draw):
    """(alpha, weights in cents, a nonempty subset, gamma): C is the
    subset's weight in decimal, which float sums round either side of."""
    n = draw(st.integers(2, 12))
    cents = draw(st.lists(st.integers(1, 400), min_size=n, max_size=n))
    subset = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    alpha = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    return alpha, cents, subset, draw(st.floats(0.05, 1.0))


@settings(max_examples=150, deadline=None)
@given(case=_decimal_weight_cases(), seed=st.integers(0, 2**16))
@example(case=(ROUNDING_ALPHA, ROUNDING_CENTS, [0, 1, 1, 1, 1, 0, 0], 0.5), seed=0)
def test_heuristic_answers_pass_is_feasible(case, seed):
    alpha, cents, subset, gamma = case
    capacity = sum(c for c, s in zip(cents, subset) if s) / 100
    inst = toy_instance(alpha, [c / 100 for c in cents], capacity, gamma=gamma)
    for result in (greedy(inst), grasp(inst, GraspConfig(seed=seed))):
        assert is_feasible(inst, result.assortment)


# (n, kappa, index) -> (construction_rcl, improvement_count, A, distinct
# constructions) of GRASP on the grid's instance with its grid seed, as the
# pinned searches seed it.  A round that repeats a construction repeats its
# local search, moves included: at (20, 0.04, 2) rounds 1, 2, 3 and 5 build
# one assortment, which takes 1 move, and round 4 another
PINNED_GRASP = [
    ((1000, 0.06, 0), (4, 5, 537678.7589502246, 4)),
    ((400, 0.06, 0), (1, 7, 78778.3511869557, 5)),
    ((50, 0.06, 1), (5, 4, 1404.4952804308498, 3)),
    ((20, 0.04, 2), (1, 5, 190.80432703386725, 2)),
]


@pytest.mark.parametrize("cell, expected", PINNED_GRASP,
                         ids=[f"{c[0]}-{c[1]}-{c[2]}" for c, _ in PINNED_GRASP])
def test_grasp_rounds_are_pinned(cell, expected, monkeypatch):
    n, kappa, index = cell
    rcl, improvements, a, distinct = expected
    inst = generate_instance(GeneratorConfig(n, kappa, derive_seed(0, n, kappa, index)))
    searches = []

    def counted(*args):
        searches.append(args[1])
        return _local_search(*args)

    monkeypatch.setattr(pclopt.heuristics, "_local_search", counted)
    result = grasp(inst, GraspConfig(seed=derive_seed(0, n, kappa, index, "grasp")))
    assert (result.stats.construction_rcl, result.stats.improvement_count) == (rcl, improvements)
    assert result.a_value == a == a_value(inst, result.assortment)
    # one local search per distinct construction
    assert len(searches) == len({x.tobytes() for x in searches}) == distinct



def test_grasp_never_holds_a_dense_mu():
    # GRASP builds the mu rows it reads from the pair storage, once each:
    # its peak stays below one n x n float matrix (the coefficients are
    # built before, and are not its own)
    n = 1000
    inst = generate_instance(GeneratorConfig(n, 0.06, derive_seed(0, n, 0.06, 0)))
    coefficients(inst)
    tracemalloc.start()
    try:
        grasp(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8
