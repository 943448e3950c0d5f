import math

import numpy as np
import pytest

from pclopt import (
    a_value,
    expected_revenue,
    lambert_w0,
    optimal_uniform_price,
    price_for_a,
)

from conftest import random_feasible_assortment, random_instance, toy_instance


def test_empty_assortment_price_and_revenue():
    inst = toy_instance([0.0, 0.0], [1.0, 1.0], 2.0, beta=0.1)
    price, revenue = optimal_uniform_price(inst, [0, 0])
    assert price == pytest.approx(10.0, abs=1e-12)
    assert revenue == 0.0


def test_single_unit_product():
    # A = 1, so price = (1 + W(1/e)) / beta and revenue = W(1/e) / beta
    inst = toy_instance([0.0, 2.0], [1.0, 10.0], 1.0, beta=0.1, gamma=0.7)
    assert a_value(inst, [1, 0]) == pytest.approx(1.0, abs=1e-12)
    price, revenue = optimal_uniform_price(inst, [1, 0])
    assert price == pytest.approx(12.784645427610738, abs=1e-6)
    assert revenue == pytest.approx(2.784645427610738, abs=1e-6)


def test_revenue_price_identity_and_consistency():
    rng = np.random.default_rng(17)
    for seed in range(30):
        inst = random_instance(seed)
        x = random_feasible_assortment(inst, rng)
        price, revenue = optimal_uniform_price(inst, x)
        assert abs(revenue - (price - 1.0 / inst.beta)) <= 1e-10
        realized = expected_revenue(inst, np.full(inst.n, price), x)
        assert realized == pytest.approx(revenue, rel=1e-8, abs=1e-12)


def test_uniform_price_beats_random_price_vectors():
    rng = np.random.default_rng(23)
    for seed in range(10):
        inst = random_instance(seed + 500)
        x = random_feasible_assortment(inst, rng)
        _, best = optimal_uniform_price(inst, x)
        scale = 3.0 / inst.beta
        for _ in range(200):
            prices = rng.uniform(0.0, scale, inst.n)
            assert expected_revenue(inst, prices, x) <= best + 1e-8


def test_revenue_monotone_under_inclusion():
    rng = np.random.default_rng(29)
    for seed in range(10):
        inst = random_instance(seed + 700)
        x = random_feasible_assortment(inst, rng)
        zeros = np.flatnonzero(x == 0)
        if zeros.size == 0:
            continue
        _, before = optimal_uniform_price(inst, x)
        grown = x.copy()
        grown[int(zeros[rng.integers(zeros.size)])] = 1
        _, after = optimal_uniform_price(inst, grown)
        assert after >= before - 1e-12


def test_price_formula_matches_lambert():
    inst = random_instance(31)
    x = np.ones(inst.n, dtype=np.int8)
    a = a_value(inst, x)
    w = lambert_w0(a / math.e)
    price, revenue = optimal_uniform_price(inst, x)
    assert price == pytest.approx((1.0 + w) / inst.beta, rel=1e-14)
    assert revenue == pytest.approx(w / inst.beta, rel=1e-14)
    assert price_for_a(a, inst.beta) == (price, revenue)
    for a_bar in (0.0, 1e-9, 1.0, a, 1e9):
        price, revenue = price_for_a(a_bar, inst.beta)
        br, y = inst.beta * revenue, a_bar / math.e
        assert abs(br * math.exp(br) - y) <= 1e-12 * max(1.0, y)
        assert price == pytest.approx(revenue + 1.0 / inst.beta, rel=1e-14)
