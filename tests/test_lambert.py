import math

import numpy as np
import pytest
from scipy.special import lambertw as scipy_lambertw

from pclopt import lambert_w0


def test_fixed_points():
    assert lambert_w0(0.0) == 0.0
    assert abs(lambert_w0(math.e) - 1.0) <= 1e-14
    # frozen from iterating w e^w = 1/e and back-substituting
    assert lambert_w0(1.0 / math.e) == pytest.approx(0.2784645427610738, abs=1e-12)


def test_residual_bound_over_wide_range():
    ys = np.concatenate([[0.0], np.logspace(-12, 8, 2000)])
    for y in ys:
        w = lambert_w0(float(y))
        assert abs(w * math.exp(w) - y) <= 1e-12 * max(1.0, y)
        assert w >= 0.0
    assert lambert_w0(0.0) == 0.0  # w == 0 iff y == 0
    assert lambert_w0(1e-300) > 0.0


def test_log_form_residual_near_float_max():
    # w e^w overflows here; w + log w = log y is the residual that stays finite
    ys = np.concatenate([np.logspace(295, 308, 400), [1e300, 1.7976931348623157e308]])
    for y in ys:
        w = lambert_w0(float(y))
        assert math.isfinite(w) and w > 0.0
        assert abs(w + math.log(w) - math.log(y)) <= 1e-14 * math.log(y)


def test_matches_reference_implementation():
    for y in np.logspace(-8, 8, 100):
        assert lambert_w0(float(y)) == pytest.approx(
            float(scipy_lambertw(float(y)).real), rel=1e-12
        )


def test_monotone_increasing():
    ys = np.logspace(-6, 6, 200)
    ws = [lambert_w0(float(y)) for y in ys]
    assert all(b > a for a, b in zip(ws, ws[1:]))


def test_rejects_negative_and_nan():
    with pytest.raises(ValueError):
        lambert_w0(-1e-9)
    with pytest.raises(ValueError):
        lambert_w0(float("nan"))


def test_infinite_argument_is_an_overflow():
    # an A(x) that overflowed must not be priced as NaN
    with pytest.raises(OverflowError):
        lambert_w0(math.inf)
