"""Optimal uniform pricing via the Lambert-W function.

For a fixed assortment x the revenue-maximizing prices are identical across
offered products:

    p*(x) = (1 + W(A(x)/e)) / beta
    R*(x) = W(A(x)/e) / beta = p*(x) - 1/beta

where W is the principal Lambert-W branch (the inverse of w -> w e^w)
restricted to the nonnegative ray, which is all this problem needs since
A(x) >= 0.
"""

from __future__ import annotations

import math

from .instance import Instance, validate_assortment
from .objective import a_value

_RESIDUAL_TOL = 1e-14
_MAX_ITER = 50


def lambert_w0(y: float) -> float:
    """Principal-branch Lambert W on y >= 0: the w >= 0 with w e^w = y.

    Halley iteration from w0 = log(1 + y); converges to residual
    |w e^w - y| <= 1e-14 max(1, y) in a handful of steps anywhere on the
    nonnegative ray.
    """
    y = float(y)
    if math.isnan(y) or y < 0:
        raise ValueError("lambert_w0 is defined here for y >= 0 only")
    if y == 0.0:
        return 0.0
    w = math.log1p(y)
    for _ in range(_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - y
        if abs(f) <= _RESIDUAL_TOL * max(1.0, y):
            break
        w -= f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * (w + 1.0)))
    return w


def optimal_uniform_price(instance: Instance, x) -> tuple[float, float]:
    """(price, revenue) of the best uniform price for assortment x.

    The empty assortment yields price 1/beta and revenue 0, the continuous
    limit of the formulas at A = 0.
    """
    x = validate_assortment(instance, x)
    a = a_value(instance, x)
    w = lambert_w0(a / math.e)
    price = (1.0 + w) / instance.beta
    revenue = w / instance.beta
    return price, revenue
