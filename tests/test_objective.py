import math

import numpy as np
import pytest

from pclopt import (
    Instance,
    a_value,
    a_value_linearized,
    coefficients,
    incremental_a_delta,
)

from conftest import random_instance, toy_instance


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
        assert np.all(coeffs.rho >= np.maximum(coeffs.theta[I], coeffs.theta[J]))
        # mu vanishes exactly when gamma is 1
        unit = inst.gamma_upper == 1.0
        assert np.all(coeffs.mu[unit] == 0.0)
        assert np.all(np.abs(coeffs.mu[~unit]) > 1e-12)


def test_coefficients_are_built_once_and_cached(coefficient_builds):
    inst = random_instance(8)
    first = coefficients(inst)
    assert coefficients(inst) is first
    a_value(inst, np.ones(inst.n, dtype=np.int8))
    incremental_a_delta(inst, np.zeros(inst.n, dtype=np.int8), 0, "add")
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
            direct = a_value(inst, x)
            linear = a_value_linearized(inst, x)
            assert abs(direct - linear) <= 1e-9 * max(1.0, abs(direct))


def test_linearization_identity_vanishes_at_gamma_one():
    inst = toy_instance([0.0, 0.0], [1.0, 1.0], 2.0, gamma=1.0)
    coeffs = coefficients(inst)
    assert coeffs.mu[0] == 0.0
    assert a_value_linearized(inst, [1, 1]) == pytest.approx(2.0, abs=1e-12)


def test_incremental_delta_on_empty_assortment():
    inst = random_instance(4)
    coeffs = coefficients(inst)
    empty = np.zeros(inst.n, dtype=np.int8)
    for k in range(inst.n):
        delta = incremental_a_delta(inst, empty, k, "add")
        assert delta == pytest.approx((inst.n - 1) * coeffs.theta[k], rel=1e-12)


def test_incremental_delta_add_remove_cancels_exactly():
    rng = np.random.default_rng(0)
    inst = random_instance(11)
    x = (rng.random(inst.n) < 0.5).astype(np.int8)
    k = int(np.flatnonzero(x == 0)[0])
    add = incremental_a_delta(inst, x, k, "add")
    x_after = x.copy()
    x_after[k] = 1
    remove = incremental_a_delta(inst, x_after, k, "remove")
    assert abs(add + remove) <= 1e-12


def test_incremental_delta_matches_full_recomputation():
    rng = np.random.default_rng(1)
    for seed in range(20):
        inst = random_instance(seed + 200)
        x = (rng.random(inst.n) < 0.5).astype(np.int8)
        k = int(rng.integers(inst.n))
        direction = "remove" if x[k] else "add"
        delta = incremental_a_delta(inst, x, k, direction)
        x_new = x.copy()
        x_new[k] = 1 - x_new[k]
        expected = a_value(inst, x_new) - a_value(inst, x)
        assert delta == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_incremental_delta_direction_preconditions():
    inst = random_instance(2)
    x = np.zeros(inst.n, dtype=np.int8)
    x[0] = 1
    with pytest.raises(ValueError):
        incremental_a_delta(inst, x, 0, "add")
    with pytest.raises(ValueError):
        incremental_a_delta(inst, x, 1, "remove")
    with pytest.raises(ValueError):
        incremental_a_delta(inst, x, 1, "toggle")


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
