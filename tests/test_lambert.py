import math

import mpmath
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
    # relative to y, also below 1: W(y) ~ y there, so an absolute residual
    # passes a start value with a relative error of y/2
    ys = np.concatenate([[0.0], np.logspace(-300, 8, 2000)])
    for y in ys:
        w = lambert_w0(float(y))
        assert abs(w * math.exp(w) - y) <= 1e-12 * y
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


def test_relative_error_against_mpmath_over_the_float_range():
    # an absolute residual |w e^w - y| below y = 1 hid a start value returned
    # unchanged (relative error y/2, 7.06e-8 at y = 1.412e-7)
    float_max = 1.7976931348623157e308
    ys = [5e-324, 1e-300, 1.412e-7, 1.0 / math.e, float_max]
    ys += [float(y) for y in np.logspace(-320, 308, 1000)]
    with mpmath.workdps(40):
        for y in ys:
            w = lambert_w0(y)
            exact = mpmath.lambertw(mpmath.mpf(y)).real
            assert abs(float((w - exact) / exact)) <= 1e-13, y


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
