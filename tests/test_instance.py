import numpy as np
import pytest

from pclopt import (
    Instance,
    ValidationError,
    is_feasible,
    pair_count,
    pair_index,
    pair_members,
    total_weight,
    validate_assortment,
    validate_prices,
)
from pclopt.instance import tie_break_prefer

from conftest import toy_instance


def test_pair_index_matches_storage_order():
    n = 6
    I, J = pair_members(n)
    assert I.size == pair_count(n) == 15
    for position, (i, j) in enumerate(zip(I, J)):
        assert pair_index(n, int(i), int(j)) == position
        assert pair_index(n, int(j), int(i)) == position  # symmetric lookup


def test_pair_index_rejects_diagonal():
    with pytest.raises(ValueError):
        pair_index(5, 2, 2)


def test_gamma_lookup_is_symmetric():
    inst = toy_instance([0.0, 0.5, 1.0], [1, 1, 1], 2.0, gamma=[0.3, 0.6, 0.9])
    assert inst.gamma(0, 2) == 0.6
    assert inst.gamma(2, 0) == 0.6


@pytest.mark.parametrize(
    "patch, path",
    [
        ({"n": 1}, "n"),
        ({"n": "two"}, "n"),
        ({"alpha": [0.0]}, "alpha"),
        ({"weights": [1.0, -1.0]}, "weights[1]"),
        ({"weights": [1.0, float("inf")]}, "weights[1]"),
        ({"capacity": 0.0}, "capacity"),
        ({"beta": -0.1}, "beta"),
        ({"gamma_upper": [0.0]}, "gamma_upper[0]"),
        ({"gamma_upper": [1.5]}, "gamma_upper[0]"),
        ({"gamma_upper": [0.5, 0.5]}, "gamma_upper"),
        # JSON strings and booleans where the schema has numbers
        ({"capacity": "5"}, "capacity"),
        ({"capacity": True}, "capacity"),
        ({"beta": "0.1"}, "beta"),
        ({"beta": True}, "beta"),
        ({"alpha": ["0.5", "0.5"]}, "alpha"),
        ({"alpha": [0.5, "0.5"]}, "alpha"),
        ({"weights": [True, True]}, "weights"),
        ({"gamma_upper": ["0.5"]}, "gamma_upper"),
        ({"gamma_upper": [False]}, "gamma_upper"),
        # JSON integers beyond the float range
        ({"capacity": 10**400}, "capacity"),
        ({"beta": -(10**400)}, "beta"),
        ({"alpha": [10**400, 0.0]}, "alpha"),
        ({"weights": [1.0, 10**400]}, "weights"),
        # an integer beyond int64 makes numpy infer objects, checked one by one
        ({"alpha": [10**30, "0.5"]}, "alpha"),
    ],
)
def test_validation_errors_carry_field_paths(patch, path):
    data = {
        "n": 2,
        "alpha": [0.0, 0.0],
        "weights": [1.0, 1.0],
        "capacity": 1.0,
        "beta": 0.1,
        "gamma_upper": [0.5],
    }
    data.update(patch)
    with pytest.raises(ValidationError) as err:
        Instance.from_dict(data)
    assert err.value.path == path


def test_from_dict_rejects_missing_and_unknown_fields():
    base = {
        "n": 2,
        "alpha": [0.0, 0.0],
        "weights": [1.0, 1.0],
        "capacity": 1.0,
        "beta": 0.1,
        "gamma_upper": [0.5],
    }
    missing = dict(base)
    del missing["beta"]
    with pytest.raises(ValidationError) as err:
        Instance.from_dict(missing)
    assert err.value.path == "beta"

    unknown = dict(base, extra=1)
    with pytest.raises(ValidationError) as err:
        Instance.from_dict(unknown)
    assert err.value.path == "extra"


def test_json_round_trip():
    inst = toy_instance([0.1, -0.2, 0.3], [1.5, 2.5, 3.5], 4.0, gamma=[0.2, 0.4, 0.6])
    clone = Instance.from_dict(inst.to_dict())
    assert clone.n == inst.n
    assert np.array_equal(clone.alpha, inst.alpha)
    assert np.array_equal(clone.weights, inst.weights)
    assert clone.capacity == inst.capacity
    assert clone.beta == inst.beta
    assert np.array_equal(clone.gamma_upper, inst.gamma_upper)


def test_assortment_and_price_validation():
    inst = toy_instance([0.0, 0.0], [1.0, 2.0], 2.0)
    assert validate_assortment(inst, [1, 0]).dtype == np.int8
    with pytest.raises(ValidationError):
        validate_assortment(inst, [1, 2])
    with pytest.raises(ValidationError):
        validate_assortment(inst, [1, 0, 0])
    with pytest.raises(ValidationError):
        validate_prices(inst, [1.0, -2.0])
    # JSON strings and booleans where prices are numbers
    for prices in (["12", "12"], ["12", 12.0], [True, 12], [12.0, False], [True, True]):
        with pytest.raises(ValidationError) as err:
            validate_prices(inst, prices)
        assert err.value.path == "prices"
    with pytest.raises(ValidationError) as err:
        validate_prices(inst, [10**400, 1.0])
    assert err.value.path == "prices"


@pytest.mark.parametrize(
    "x, path",
    [
        ([1, 2, 0], "assortment[1]"),
        ([0, 0, -1], "assortment[2]"),
        ([0.5, 1, 0], "assortment[0]"),
        ([1, 0], "assortment"),
        ([[1, 0, 0]], "assortment"),
    ],
)
def test_assortment_errors_carry_field_paths(x, path):
    inst = toy_instance([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 2.0)
    with pytest.raises(ValidationError) as err:
        validate_assortment(inst, x)
    assert err.value.path == path


def test_validated_assortment_is_an_int8_copy():
    inst = toy_instance([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 2.0)
    x = np.array([1, 0, 1], dtype=np.int8)
    checked = validate_assortment(inst, x)
    assert checked.dtype == np.int8 and checked is not x
    assert validate_assortment(inst, [1.0, 0.0, 1]).tolist() == [1, 0, 1]
    # a boolean among the entries is refused, as among prices
    with pytest.raises(ValidationError) as err:
        validate_assortment(inst, [1.0, 0.0, True])
    assert err.value.path == "assortment"


def test_feasibility_is_the_capacity_check():
    inst = toy_instance([0.0, 0.0], [1.0, 2.0], 2.0)
    assert total_weight(inst, [1, 0]) == 1.0
    assert is_feasible(inst, [0, 1])
    assert not is_feasible(inst, [1, 1])


def test_tie_break_prefers_lower_indexed_products():
    # (1,0) offers product 0, which beats offering product 1
    assert tie_break_prefer(np.array([1, 0]), np.array([0, 1]))
    assert not tie_break_prefer(np.array([0, 1]), np.array([1, 0]))
    assert not tie_break_prefer(np.array([1, 0]), np.array([1, 0]))
    assert tie_break_prefer(np.array([1, 0, 1]), np.array([0, 1, 1]))
