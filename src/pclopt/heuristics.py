"""Greedy construction and GRASP for maximizing A(x) under the capacity limit.

One construction routine serves both heuristics.  It walks the products in
theta_i / w_i order (bang per unit of display space) and repeatedly adds
one of the first rcl products that still fit.  Greedy is that construction
with rcl = 1.  GRASP runs it for restricted-candidate-list sizes
1..rcl_max, follows each construction with a swap local search, and keeps
the best assortment found.  Its rcl = 1 round is greedy followed by
strictly improving swaps, so GRASP can never do worse than greedy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance, tie_break_prefer
from .objective import a_value, coefficients, incremental_a_delta
from .pricing import SolveResult, SolveStats, optimal_uniform_price

# accept a swap only if it improves A beyond float noise, to avoid cycling
_IMPROVE_TOL = 1e-12


@dataclass
class GraspConfig:
    rcl_max: int = 5
    max_iter: int = 80
    seed: int = 0

    def __post_init__(self):
        if self.rcl_max < 1:
            raise ValueError("rcl_max must be at least 1")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def _ratio_order(instance: Instance) -> np.ndarray:
    """Product indices by theta_i / w_i descending, ties to the smaller index."""
    ratio = coefficients(instance).theta / instance.weights
    return np.lexsort((np.arange(instance.n), -ratio))


def _heuristic_result(instance, x, a, rcl, improvements) -> SolveResult:
    price, revenue = optimal_uniform_price(instance, x)
    return SolveResult(
        assortment=x,
        a_value=a,
        price=price,
        revenue=revenue,
        upper_bound=None,
        status="heuristic",
        stats=SolveStats(construction_rcl=rcl, improvement_count=improvements),
    )


def greedy(instance: Instance) -> SolveResult:
    """One pass over the ratio-sorted products, adding whatever still fits.

    Products that do not fit are skipped, not terminal: a lighter product
    later in the ratio order may still fit.  This is GRASP's rcl = 1
    construction, as a product that does not fit never fits later.
    """
    x = _construct(instance, _ratio_order(instance), 1, None)
    return _heuristic_result(instance, x, a_value(instance, x), None, 0)


def _construct(instance, order, rcl, rng):
    """Randomized greedy: repeatedly pick uniformly among the rcl best-ratio
    unselected products that still fit, until nothing fits.  The RNG is
    drawn only when the pool holds more than one product."""
    weights = instance.weights[order]
    taken = np.zeros(instance.n, dtype=bool)
    remaining = instance.capacity
    while True:
        pool = np.flatnonzero(~taken & (weights <= remaining))[:rcl]
        if pool.size == 0:
            break
        k = pool[int(rng.integers(pool.size))] if pool.size > 1 else pool[0]
        taken[k] = True
        remaining -= weights[k]
    x = np.zeros(instance.n, dtype=np.int8)
    x[order[taken]] = 1
    return x


def _local_search(instance, x, max_iter, rng):
    """Swap local search: draw one offered and one unoffered product, flip
    both, keep the move iff it is feasible and strictly increases A."""
    n = instance.n
    weights = instance.weights
    x = x.copy()
    current_weight = float(weights @ x.astype(float))
    current_a = a_value(instance, x)
    accepted = 0
    for _ in range(max_iter):
        ones = np.flatnonzero(x == 1)
        zeros = np.flatnonzero(x == 0)
        if ones.size == 0 or zeros.size == 0:
            break
        out = int(ones[rng.integers(ones.size)])
        inc = int(zeros[rng.integers(zeros.size)])
        if current_weight - weights[out] + weights[inc] > instance.capacity:
            continue
        delta = incremental_a_delta(instance, x, inc, "add")
        x[inc] = 1
        delta += incremental_a_delta(instance, x, out, "remove")
        if delta > _IMPROVE_TOL * max(1.0, current_a):
            x[out] = 0
            current_weight += weights[inc] - weights[out]
            current_a += delta
            accepted += 1
        else:
            x[inc] = 0
    return x, accepted


def grasp(instance: Instance, config: GraspConfig | None = None) -> SolveResult:
    """Best assortment over rcl = 1..rcl_max randomized rounds.

    Each round gets its own RNG stream derived from (seed, round), so rounds
    are independently reproducible.  Rounds tie-break by A, then by the
    canonical assortment preference, so the output is deterministic.
    """
    if config is None:
        config = GraspConfig()
    order = _ratio_order(instance)

    best_x = None
    best_a = -np.inf
    best_rcl = 1
    improvements = 0
    for rcl in range(1, config.rcl_max + 1):
        rng = np.random.default_rng((config.seed, rcl))
        x = _construct(instance, order, rcl, rng)
        x, accepted = _local_search(instance, x, config.max_iter, rng)
        improvements += accepted
        a = a_value(instance, x)
        if a > best_a or (a == best_a and tie_break_prefer(x, best_x)):
            best_x, best_a, best_rcl = x, a, rcl
    return _heuristic_result(instance, best_x, best_a, best_rcl, improvements)
