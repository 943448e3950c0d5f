"""Optimal uniform pricing via the Lambert-W function, and the answer type.

For a fixed assortment x the revenue-maximizing prices are identical across
offered products:

    p*(x) = (1 + W(A(x)/e)) / beta
    R*(x) = W(A(x)/e) / beta = p*(x) - 1/beta

where W is the principal Lambert-W branch (the inverse of w -> w e^w)
restricted to the nonnegative ray, which is all this problem needs since
A(x) >= 0.  ``lambert_w0`` computes W to about 1e-14 relative over the
whole float range, and ``price_for_a`` evaluates this formula for every
solver answer.

Every solver answers with a ``SolveResult``: an assortment (or only a
bound on A) priced through ``price_for_a``.  The type lives here, in the
lowest module all solvers import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import Instance, validate_assortment
from .objective import a_value

_RESIDUAL_TOL = 1e-14
_MAX_ITER = 50


def lambert_w0(y: float) -> float:
    """Principal-branch Lambert W on y >= 0: the w >= 0 with w e^w = y.

    Newton's method on the log form w + log w = log y, which stays finite
    from the smallest subnormal to the float maximum, started from
    w0 = log(1 + y).  That start is at least W(y) and less than e y, and
    the log form is concave in w, so the first step lands in (0, W(y)] and
    the iterates rise from there to W(y).  They stop once a step is within
    1e-14 of w: at most 5 steps from y = 5e-324 to the float maximum.
    y = inf raises OverflowError.
    """
    y = float(y)
    if math.isnan(y) or y < 0:
        raise ValueError("lambert_w0 is defined here for y >= 0 only")
    if y == math.inf:
        raise OverflowError("the A(x) being priced overflows the float range")
    if y == 0.0:
        return 0.0
    log_y = math.log(y)
    w = math.log1p(y)
    for _ in range(_MAX_ITER):
        step = (w + math.log(w) - log_y) * w / (w + 1.0)
        w -= step
        if abs(step) <= _RESIDUAL_TOL * w:
            break
    return w


def price_for_a(a: float, beta: float) -> tuple[float, float]:
    """(price, revenue) of the best uniform price when A(x) = a.

    A = 0 yields price 1/beta and revenue 0, the continuous limit of the
    formulas.  An A that overflowed to inf raises OverflowError.
    """
    w = lambert_w0(a / math.e)
    return (1.0 + w) / beta, w / beta


def optimal_uniform_price(instance: Instance, x) -> tuple[float, float]:
    """(price, revenue) of the best uniform price for assortment x."""
    x = validate_assortment(instance, x)
    return price_for_a(a_value(instance, x), instance.beta)


@dataclass
class SolveStats:
    """Search effort behind an answer: branch-and-bound nodes (brute force
    counts the 2^n assortments), root LP solves and their simplex
    iterations, summed over the restricted LPs, the products the root LP's
    reduced costs fixed in and out at the root, against the starting
    incumbent, and those the search's last re-fix, against its best
    incumbent, fixed in and out beyond them (0 when the incumbent never
    rises).
    Heuristic answers set ``improvement_count``, the moves GRASP's local
    search accepted (GRASP also ``construction_rcl``), and serialize those
    in place of the search counts.  Heuristics and the LP bound leave
    ``wall_time_s`` at 0, so their results repeat; the CLI stamps it."""

    nodes: int = 0
    lp_solves: int = 0
    lp_iterations: int = 0
    fixed_in: int = 0
    fixed_out: int = 0
    refixed_in: int = 0
    refixed_out: int = 0
    wall_time_s: float = 0.0
    construction_rcl: int | None = None
    improvement_count: int | None = None

    def to_dict(self) -> dict:
        if self.improvement_count is not None:
            return {
                "wall_time_s": self.wall_time_s,
                "construction_rcl": self.construction_rcl,
                "improvement_count": self.improvement_count,
            }
        return {
            "nodes": self.nodes,
            "lp_solves": self.lp_solves,
            "lp_iterations": self.lp_iterations,
            "fixed_in": self.fixed_in,
            "fixed_out": self.fixed_out,
            "refixed_in": self.refixed_in,
            "refixed_out": self.refixed_out,
            "wall_time_s": self.wall_time_s,
        }


@dataclass
class SolveResult:
    assortment: np.ndarray | None
    a_value: float | None
    price: float
    revenue: float
    upper_bound: float | None
    status: str  # optimal | feasible | bound-only | heuristic
    stats: SolveStats

    def to_dict(self) -> dict:
        return {
            "assortment": None if self.assortment is None else self.assortment.tolist(),
            "a_value": self.a_value,
            "price": self.price,
            "revenue": self.revenue,
            "upper_bound": self.upper_bound,
            "status": self.status,
            "stats": self.stats.to_dict(),
        }
