"""Choice model tests, including brute-force re-derivations of the pair sums."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclopt import (
    a_value,
    choice_probabilities,
    expected_revenue,
    pair_count,
    simulate_choice,
)

from conftest import (
    EXTREME_CHOICE_CASES,
    random_feasible_assortment,
    random_instance,
    toy_instance,
)


def brute_force_distribution(inst, prices, x):
    """Plain-Python evaluation of the nest formulas, independent of the
    vectorized implementation."""
    n = inst.n
    v = [math.exp(inst.alpha[i] - inst.beta * prices[i]) for i in range(n)]
    nest_values, members = [], []
    for i in range(n):
        for j in range(i + 1, n):
            g = inst.gamma(i, j)
            vij = v[i] ** (1.0 / g) * x[i] + v[j] ** (1.0 / g) * x[j]
            nest_values.append(vij**g if vij > 0 else 0.0)
            members.append((i, j, g, vij))
    denom = 1.0 + sum(nest_values)
    q = [0.0] * n
    for value, (i, j, g, vij) in zip(nest_values, members):
        if vij == 0:
            continue
        share_i = (v[i] ** (1.0 / g)) * x[i] / vij
        q[i] += value / denom * share_i
        q[j] += value / denom * (1.0 - share_i)
    q0 = 1.0 - sum(nest_values) / denom
    return np.array(q), q0


def mpmath_distribution(inst, prices, x):
    """The nest formulas at 50 significant digits.  mpmath's exponent range
    is unbounded, so v^(1/gamma) = exp(u/gamma) is formed as written even at
    gamma = 1e-310 (exp(u) itself would round utilities u below 1e-50 away)."""
    n = inst.n
    with mpmath.workdps(50):
        u = [mpmath.mpf(inst.alpha[i]) - mpmath.mpf(inst.beta) * mpmath.mpf(prices[i])
             for i in range(n)]
        nests = []
        for i in range(n):
            for j in range(i + 1, n):
                g = mpmath.mpf(inst.gamma(i, j))
                vi, vj = mpmath.exp(u[i] / g) * x[i], mpmath.exp(u[j] / g) * x[j]
                nests.append((i, j, vi, vj, (vi + vj) ** g if vi + vj > 0 else mpmath.mpf(0)))
        denom = 1 + mpmath.fsum(nest[4] for nest in nests)
        q = [mpmath.mpf(0)] * n
        for i, j, vi, vj, value in nests:
            if value > 0:
                q[i] += value / denom * vi / (vi + vj)
                q[j] += value / denom * vj / (vi + vj)
        return np.array([float(qi) for qi in q]), float(1 / denom)


def test_symmetric_pair_splits_evenly():
    inst = toy_instance([0.0, 0.0], [1.0, 1.0], 2.0, gamma=1.0)
    dist = choice_probabilities(inst, [0.0, 0.0], [1, 1])
    assert dist.product_probs == pytest.approx([1 / 3, 1 / 3], abs=1e-12)
    assert dist.no_purchase == pytest.approx(1 / 3, abs=1e-12)


def test_empty_assortment_never_sells():
    inst = random_instance(5)
    dist = choice_probabilities(inst, np.zeros(inst.n), np.zeros(inst.n, dtype=int))
    assert dist.no_purchase == 1.0
    assert np.all(dist.product_probs == 0.0)


def test_three_products_one_left_out():
    # all alphas 0, all gammas 0.5, free prices, products 1 and 2 offered:
    # pair {1,2} contributes sqrt(2), the two singleton pairs 1 each, so
    # q0 = 1/(3+sqrt 2) and q1 = q2 = (sqrt(2)/2 + 1)/(3+sqrt 2)
    inst = toy_instance([0.0, 0.0, 0.0], [1, 1, 1], 3.0, gamma=0.5)
    dist = choice_probabilities(inst, [0.0, 0.0, 0.0], [1, 1, 0])
    root2 = math.sqrt(2.0)
    expected_q = (root2 / 2 + 1.0) / (3.0 + root2)
    assert dist.product_probs == pytest.approx([expected_q, expected_q, 0.0], abs=1e-12)
    assert dist.no_purchase == pytest.approx(1.0 / (3.0 + root2), abs=1e-12)
    # Monte Carlo cross-check of the same numbers
    sim = simulate_choice(inst, [0.0, 0.0, 0.0], [1, 1, 0], rng_seed=11, trials=200_000)
    assert sim.product_probs == pytest.approx(dist.product_probs, abs=0.005)


def test_matches_plain_python_evaluation():
    rng = np.random.default_rng(42)
    for seed in range(20):
        inst = random_instance(seed, n=int(rng.integers(2, 9)))
        prices = rng.uniform(0, 20, inst.n)
        x = (rng.random(inst.n) < 0.5).astype(int)
        dist = choice_probabilities(inst, prices, x)
        q_ref, q0_ref = brute_force_distribution(inst, prices, x)
        assert dist.product_probs == pytest.approx(q_ref, abs=1e-12)
        assert dist.no_purchase == pytest.approx(q0_ref, abs=1e-12)


def test_normalization_and_support():
    rng = np.random.default_rng(3)
    for seed in range(25):
        inst = random_instance(seed + 100)
        prices = rng.uniform(0, 30, inst.n)
        x = random_feasible_assortment(inst, rng)
        dist = choice_probabilities(inst, prices, x)
        assert abs(dist.no_purchase + dist.product_probs.sum() - 1.0) <= 1e-10
        assert np.all(dist.product_probs[x == 0] == 0.0)
        assert np.all(dist.product_probs[x == 1] > 0.0)


def test_expected_revenue_trivial_cases():
    inst = random_instance(9)
    assert expected_revenue(inst, np.full(inst.n, 3.0), np.zeros(inst.n, dtype=int)) == 0.0
    assert expected_revenue(inst, np.zeros(inst.n), np.ones(inst.n, dtype=int)) == 0.0


def test_expected_revenue_two_products_at_price_ten():
    # v_i = e^-1, V = 2/e, revenue = 10 * (2/e) / (1 + 2/e)
    inst = toy_instance([0.0, 0.0], [1.0, 1.0], 2.0, gamma=1.0)
    nest = 2.0 * math.exp(-1.0)
    expected = 10.0 * nest / (1.0 + nest)
    assert expected == pytest.approx(4.238831152341709, abs=1e-12)
    assert expected_revenue(inst, [10.0, 10.0], [1, 1]) == pytest.approx(expected, rel=1e-12)


def test_expected_revenue_equals_nest_formula():
    rng = np.random.default_rng(8)
    for seed in range(10):
        inst = random_instance(seed + 30, n=int(rng.integers(3, 8)))
        prices = rng.uniform(0, 25, inst.n)
        x = (rng.random(inst.n) < 0.6).astype(int)
        q_ref, _ = brute_force_distribution(inst, prices, x)
        assert expected_revenue(inst, prices, x) == pytest.approx(
            float(prices @ q_ref), abs=1e-10
        )


def test_simulation_matches_closed_form():
    inst = toy_instance([0.0, 0.0], [1.0, 1.0], 2.0, gamma=1.0)
    sim = simulate_choice(inst, [0.0, 0.0], [1, 1], rng_seed=0, trials=1_000_000)
    assert sim.product_probs == pytest.approx([1 / 3, 1 / 3], abs=0.005)
    assert sim.no_purchase == pytest.approx(1 / 3, abs=0.005)
    assert sim.no_purchase + sim.product_probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_simulation_empty_assortment_and_binomial_bound():
    inst = random_instance(77)
    sim = simulate_choice(inst, np.zeros(inst.n), np.zeros(inst.n, dtype=int), 1, 1000)
    assert sim.no_purchase == 1.0

    rng = np.random.default_rng(13)
    prices = rng.uniform(0, 15, inst.n)
    x = random_feasible_assortment(inst, rng)
    trials = 200_000
    sim = simulate_choice(inst, prices, x, rng_seed=5, trials=trials)
    dist = choice_probabilities(inst, prices, x)
    bound = 4.0 * math.sqrt(0.25 / trials)
    assert np.max(np.abs(sim.product_probs - dist.product_probs)) <= bound
    assert abs(sim.no_purchase - dist.no_purchase) <= bound


def test_simulation_is_deterministic_per_seed():
    inst = random_instance(21)
    prices = np.full(inst.n, 5.0)
    x = np.ones(inst.n, dtype=int)
    first = simulate_choice(inst, prices, x, rng_seed=9, trials=10_000)
    second = simulate_choice(inst, prices, x, rng_seed=9, trials=10_000)
    third = simulate_choice(inst, prices, x, rng_seed=10, trials=10_000)
    assert np.array_equal(first.product_probs, second.product_probs)
    assert first.no_purchase == second.no_purchase
    assert not np.array_equal(first.product_probs, third.product_probs)


@pytest.mark.parametrize("alpha, gamma, x, expected_q, expected_q0", EXTREME_CHOICE_CASES)
def test_extreme_utilities_and_gammas(alpha, gamma, x, expected_q, expected_q0):
    inst = toy_instance(alpha, [1, 1, 1], 3.0, gamma=gamma)
    dist = choice_probabilities(inst, [0.0, 0.0, 0.0], x)
    assert dist.product_probs == pytest.approx(expected_q, abs=1e-12)
    assert dist.no_purchase == pytest.approx(expected_q0, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_matches_mpmath_evaluation_of_the_nest_formulas(data):
    n = data.draw(st.integers(2, 6))
    alpha = data.draw(st.lists(st.floats(-700.0, 700.0), min_size=n, max_size=n))
    prices = data.draw(st.lists(st.floats(0.0, 1e4), min_size=n, max_size=n))
    gammas = data.draw(st.lists(
        st.one_of(st.just(1e-310), st.floats(1e-3, 1.0), st.just(1.0)),
        min_size=pair_count(n), max_size=pair_count(n),
    ))
    x = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    beta = data.draw(st.floats(0.01, 1.0))
    inst = toy_instance(alpha, [1.0] * n, float(n), beta=beta, gamma=np.array(gammas))
    dist = choice_probabilities(inst, prices, x)
    q_ref, q0_ref = mpmath_distribution(inst, prices, x)
    assert dist.product_probs == pytest.approx(q_ref, abs=1e-12)
    assert dist.no_purchase == pytest.approx(q0_ref, abs=1e-12)
    assert dist.no_purchase + dist.product_probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_no_purchase_odds_at_zero_prices_are_the_objective():
    # at p = 0 the nest values sum to A(x), so (1 - q0) / q0 = A(x)
    rng = np.random.default_rng(17)
    for seed in range(30):
        inst = random_instance(seed + 500)
        x = random_feasible_assortment(inst, rng)
        dist = choice_probabilities(inst, np.zeros(inst.n), x)
        odds = (1.0 - dist.no_purchase) / dist.no_purchase
        assert odds == pytest.approx(a_value(inst, x), rel=1e-12)
