import math

import pclopt.exact

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclopt import (
    Instance,
    a_value,
    coefficients,
    grasp,
    knapsack_majorant_bound,
    lp_relaxation,
    pair_count,
    pair_members,
)

from pclopt.heuristics import _add_gain
from pclopt.objective import ratio_order

from conftest import pair_sum_a, random_feasible_assortment, random_instance, toy_instance


def test_a_value_hand_cases():
    inst = toy_instance([0.0, 0.0], [1.0, 1.0], 2.0, gamma=0.5)
    assert a_value(inst, [0, 0]) == 0.0
    assert a_value(inst, [1, 1]) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    # a singleton pair term collapses to theta_i = exp(alpha_i)
    inst = toy_instance([0.0, 3.7], [1.0, 1.0], 2.0, gamma=0.5)
    assert a_value(inst, [1, 0]) == pytest.approx(1.0, abs=1e-12)


def test_coefficient_signs_and_dominance():
    for seed in range(15):
        inst = random_instance(seed)
        coeffs = coefficients(inst)
        I, J = inst.pair_i, inst.pair_j
        assert np.all(coeffs.mu <= 0.0)
        # rho = mu + theta_i + theta_j >= max(theta_i, theta_j)
        assert np.all(coeffs.mu >= -np.minimum(coeffs.theta[I], coeffs.theta[J]))
        # mu vanishes exactly when gamma is 1
        unit = inst.gamma_upper == 1.0
        assert np.all(coeffs.mu[unit] == 0.0)
        assert np.all(np.abs(coeffs.mu[~unit]) > 1e-12)


def test_coefficients_are_built_once_and_cached(coefficient_builds):
    inst = random_instance(8)
    first = coefficients(inst)
    assert coefficients(inst) is first
    a_value(inst, np.ones(inst.n, dtype=np.int8))
    grasp(inst)
    assert coefficient_builds == [inst]


def test_round_tripped_instance_builds_its_own_coefficients(coefficient_builds):
    inst = random_instance(9)
    original = coefficients(inst)
    copy = Instance.from_dict(inst.to_dict())
    rebuilt = coefficients(copy)
    assert rebuilt is not original
    assert coefficient_builds == [inst, copy]
    assert np.array_equal(rebuilt.theta, original.theta)
    assert np.array_equal(rebuilt.mu, original.mu)


def test_mu_zero_iff_gamma_one():
    inst = toy_instance([0.3, -0.5, 1.0], [1, 1, 1], 3.0, gamma=[1.0, 0.5, 1.0])
    coeffs = coefficients(inst)
    assert coeffs.mu[0] == 0.0
    assert coeffs.mu[2] == 0.0
    assert coeffs.mu[1] < -1e-12


def test_linearization_identity_exhaustive():
    for seed in range(5):
        inst = random_instance(seed + 50, n=8)
        for mask in range(1 << inst.n):
            x = np.array([(mask >> k) & 1 for k in range(inst.n)], dtype=np.int8)
            direct = pair_sum_a(inst, x)
            linear = a_value(inst, x)
            assert abs(direct - linear) <= 1e-9 * max(1.0, abs(direct))


def test_mu_is_exactly_zero_on_an_all_unit_gamma_instance(monkeypatch):
    # (theta_i + theta_j) - theta_i - theta_j leaves the sum's rounding,
    # about -1e-16 on a quarter of these pairs, and each such mu put a
    # noise row into the LP
    rng = np.random.default_rng(0)
    n = 200
    weights = rng.uniform(1.0, 10.0, n)
    inst = toy_instance(
        np.log(5.0 * (1.0 - rng.random(n))), weights, 0.04 * weights.sum(), gamma=1.0
    )
    assert np.all(coefficients(inst).mu == 0.0)
    rows = []
    solve_highs = pclopt.exact._solve_highs

    def recording(cost, a_ub, b_ub):
        rows.append(b_ub.size)
        return solve_highs(cost, a_ub, b_ub)

    monkeypatch.setattr(pclopt.exact, "_solve_highs", recording)
    lp = lp_relaxation(inst)
    assert rows == [1]  # the capacity row alone
    assert lp.objective_value == pytest.approx(knapsack_majorant_bound(inst), rel=1e-14)


def test_linearization_identity_vanishes_at_gamma_one():
    inst = toy_instance([0.0, 0.0], [1.0, 1.0], 2.0, gamma=1.0)
    coeffs = coefficients(inst)
    assert coeffs.mu[0] == 0.0
    assert a_value(inst, [1, 1]) == pytest.approx(2.0, abs=1e-12)


def test_add_gain_on_empty_assortment():
    inst = random_instance(4)
    gain = _add_gain(inst, np.array([], dtype=np.intp))
    assert np.array_equal(gain, coefficients(inst).lin_costs)


def _flipped(x, *products):
    y = x.copy()
    y[list(products)] ^= 1
    return y


@pytest.mark.parametrize("n", [2, 3, 7, 40])
def test_mu_matrix_scatters_every_pair_both_ways(n):
    # the reference scatter over the pair index arrays
    inst = random_instance(n + 500, n=n)
    coeffs = coefficients(inst)
    I, J = pair_members(n)
    expected = np.zeros((n, n))
    expected[I, J] = coeffs.mu
    expected[J, I] = coeffs.mu
    assert np.array_equal(coeffs.mu_matrix(n), expected)


def test_swap_delta_matches_full_recomputation():
    # gain[k] is the A of adding k outside S and of removing it inside, and
    # gain[inc] - (gain[out] + mu[out, inc]) = A(x - e_out + e_inc) - A(x)
    rng = np.random.default_rng(1)
    for seed in range(20):
        inst = random_instance(seed + 200)
        mu_mat = coefficients(inst).mu_matrix(inst.n)
        x = (rng.random(inst.n) < 0.5).astype(np.int8)
        ones, zeros = np.flatnonzero(x), np.flatnonzero(x == 0)
        if ones.size == 0 or zeros.size == 0:
            continue
        gain = _add_gain(inst, ones)
        a = a_value(inst, x)
        for k in range(inst.n):
            flip = abs(a_value(inst, _flipped(x, k)) - a)
            assert gain[k] == pytest.approx(flip, rel=1e-9, abs=1e-9)
        for out in ones:
            for inc in zeros:
                delta = gain[inc] - (gain[out] + mu_mat[out, inc])
                expected = a_value(inst, _flipped(x, out, inc)) - a
                assert delta == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_carried_gain_matches_a_fresh_build():
    # the local search's update over a run of swaps: gain += mu[inc] - mu[out]
    rng = np.random.default_rng(2)
    for seed in range(10):
        inst = random_instance(seed + 400, n=40)
        coeffs = coefficients(inst)
        mu_mat = coeffs.mu_matrix(inst.n)
        x = random_feasible_assortment(inst, rng)
        if not 0 < x.sum() < inst.n:
            continue
        gain = _add_gain(inst, np.flatnonzero(x))
        for _ in range(200):
            out = rng.choice(np.flatnonzero(x))
            inc = rng.choice(np.flatnonzero(x == 0))
            x[out], x[inc] = 0, 1
            gain += mu_mat[inc] - mu_mat[out]
        fresh = _add_gain(inst, np.flatnonzero(x))
        # 0 <= gain <= lin_costs, the scale of each entry
        assert np.all(np.abs(gain - fresh) <= 1e-12 * coeffs.lin_costs)


def test_a_value_monotone_under_inclusion():
    rng = np.random.default_rng(6)
    for seed in range(10):
        inst = random_instance(seed + 300)
        x = (rng.random(inst.n) < 0.4).astype(np.int8)
        zeros = np.flatnonzero(x == 0)
        if zeros.size == 0:
            continue
        base = a_value(inst, x)
        grown = x.copy()
        grown[zeros[0]] = 1
        assert a_value(inst, grown) >= base


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_value_matches_the_pair_sum(data):
    n = data.draw(st.integers(2, 12))
    shift = data.draw(st.sampled_from([0.0, -700.0, 700.0]))
    # base utilities at most 3 keep A below the float range at shift 700
    alpha = [shift + a for a in data.draw(st.lists(st.floats(-5.0, 3.0), min_size=n, max_size=n))]
    gammas = data.draw(st.lists(
        st.one_of(st.just(1e-310), st.just(1.0), st.floats(1e-3, 1.0)),
        min_size=pair_count(n), max_size=pair_count(n),
    ))
    inst = toy_instance(alpha, [1.0] * n, float(n), gamma=np.array(gammas))
    x = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int8)
    assert a_value(inst, x) == pytest.approx(pair_sum_a(inst, x), rel=1e-13, abs=0.0)


def test_a_value_is_finite_where_its_linear_part_overflows():
    # (n-1) sum theta = 6 exp(708.5) overflows; A = 3 exp(708.5) does not
    inst = toy_instance([708.5] * 3, [1.0] * 3, 3.0, gamma=1e-310)
    assert a_value(inst, [1, 1, 1]) == pytest.approx(3.0 * math.exp(708.5), rel=1e-13)
    assert a_value(inst, [1, 1, 1]) == pytest.approx(pair_sum_a(inst, [1, 1, 1]), rel=1e-13)


@pytest.mark.parametrize("values, weights, expected", [
    # the plain quotients overflow to -inf, and underflow to -0.0
    ([1e304, 3e304, 2e304], [1e-300] * 3, [1, 2, 0]),
    ([1e-304, 3e-304, 2e-304], [1e300] * 3, [1, 2, 0]),
    # values 1e607 apart over unit weights keep the plain order
    ([8e307, 1e-300, 2e-300], [1.0] * 3, [0, 2, 1]),
])
def test_ratio_order_holds_where_the_plain_quotient_leaves_the_float_range(
        values, weights, expected):
    assert ratio_order(np.array(values), np.array(weights)).tolist() == expected


def test_ratio_order_refuses_weights_no_single_scale_serves():
    with pytest.raises(OverflowError):
        ratio_order(np.array([1.0, 1.0]), np.array([5e-324, 1e300]))
