"""Greedy construction and GRASP for maximizing A(x) under the capacity limit.

One construction routine serves both heuristics.  It walks the products in
theta_i / w_i order (bang per unit of display space) and repeatedly adds
one of the first rcl products that still fit.  Greedy is that construction
with rcl = 1.  GRASP runs it for restricted-candidate-list sizes
1..rcl_max, follows each construction with a swap local search, and keeps
the best assortment found.  Its rcl = 1 round is greedy followed by
strictly improving swaps, so GRASP can never do worse than greedy.

The local search carries each product's single-flip gain in A across its
trials (the one-flip bookkeeping of binary quadratic local search), so a
swap trial costs O(1) and an accepted swap O(n).  A round takes all its
draws in one RNG call, from the same stream as one draw per pick.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import _CAPACITY_REL_TOL, Instance, fits_capacity, pair_index, tie_break_prefer
from .objective import a_value, coefficients, ratio_order
# optimal_uniform_price is unused; the benchmark's tracer patches it
from .pricing import SolveResult, SolveStats, optimal_uniform_price, price_for_a  # noqa: F401

# accept a swap only if it improves A by more than this share of A (float noise), to avoid cycling
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


def _heuristic_result(instance, x, a, rcl, improvements) -> SolveResult:
    price, revenue = price_for_a(a, instance.beta)
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
    x = _construct(instance, ratio_order(coefficients(instance).theta, instance.weights), 1, None)
    return _heuristic_result(instance, x, a_value(instance, x), None, 0)


def _construct(instance, order, rcl, rng):
    """Randomized greedy: repeatedly pick uniformly among the rcl best-ratio
    unselected products that still fit, until nothing fits.  The RNG is
    drawn only when the pool holds more than one product.  The pool admits
    weights up to rounding past the room left; a pick the capacity rule
    refuses (a sum within rounding of C) is dropped for good, and redrawn.

    The room only shrinks, so a product that stops fitting never fits
    again: it leaves the ratio-ordered list of candidates for good, as a
    pick does.  The list is linked through ``after``, so a construction
    visits each product once to drop it, plus the pool at every pick."""
    weights = instance.weights[order].tolist()
    n = instance.n
    after = list(range(1, n + 1))  # the next candidate's position; n ends the list
    head = 0
    taken = []
    load = 0.0

    def offered(*picks):
        x = np.zeros(n, dtype=np.int8)
        x[order[taken + list(picks)]] = 1
        return x

    while True:
        room = instance.capacity * (1 + 2 * _CAPACITY_REL_TOL) - load
        # the pool is the first rcl candidates that fit, consecutive in the
        # list once those that do not are unlinked
        pool = []
        k = head
        while k < n and len(pool) < rcl:
            if weights[k] <= room:
                pool.append(k)
            elif pool:
                after[pool[-1]] = after[k]
            else:
                head = after[k]
            k = after[k]
        if not pool:
            return offered()
        i = int(rng.integers(len(pool))) if len(pool) > 1 else 0
        k = pool[i]
        if i:
            after[pool[i - 1]] = after[k]
        else:
            head = after[k]
        if fits_capacity(instance, load + weights[k], lambda _: offered(k)):
            taken.append(k)
            load += weights[k]


def _add_gain(instance, offered):
    """gain[k] = A(x + e_k) - A(x) for k outside the offered set S and
    A(x) - A(x - e_k) for k in it: (n-1) theta_k plus k's mu entries
    against S (mu's diagonal is zero).  Summing the |S| rows of one
    gathered block keeps this O(|S| n)."""
    coeffs = coefficients(instance)
    n = instance.n
    return coeffs.lin_costs + coeffs.mu_matrix(n, offered, np.arange(n)).sum(axis=0)


def _local_search(instance, x, max_iter, rng):
    """Swap local search: draw one offered and one unoffered product, flip
    both, keep the move iff it is feasible and strictly increases A.

    A trial costs O(1): with the add gain carried across trials, the swap
    changes A by gain[inc] - (gain[out] + mu[out, inc]), one pair entry.
    An accepted swap costs O(n): it adds mu[inc] - mu[out], two rows
    gathered as one block, to the gain and rebuilds the ascending offered
    and unoffered index arrays.  Swaps keep |S|, so all trials' draws come
    from one RNG call, the same stream as one integers(|S|) and one
    integers(n - |S|) call per trial.
    """
    x = x.copy()
    ones, zeros = np.flatnonzero(x), np.flatnonzero(x == 0)
    if ones.size == 0 or zeros.size == 0:
        return x, 0
    weights = instance.weights.tolist()  # float sums, in fewer cycles

    def swapped(_):
        trial = x.copy()
        trial[out], trial[inc] = 0, 1
        return trial

    n = instance.n
    coeffs = coefficients(instance)
    gain = _add_gain(instance, ones)
    current_weight = float(instance.weights @ x.astype(float))
    current_a = a_value(instance, x)
    accepted = 0
    draws = rng.integers(np.tile([ones.size, zeros.size], max_iter))
    for i, j in draws.reshape(max_iter, 2).tolist():
        out, inc = ones[i], zeros[j]
        if not fits_capacity(instance, current_weight - weights[out] + weights[inc], swapped):
            continue
        delta = gain[inc] - (gain[out] + coeffs.mu[pair_index(n, out, inc)])
        if delta > _IMPROVE_TOL * current_a:
            x[out], x[inc] = 0, 1
            gain += np.subtract(*coeffs.mu_matrix(n, [inc, out], np.arange(n)))
            ones, zeros = np.flatnonzero(x), np.flatnonzero(x == 0)
            current_weight += weights[inc] - weights[out]
            current_a += delta
            accepted += 1
    return x, accepted


def grasp(instance: Instance, config: GraspConfig | None = None) -> SolveResult:
    """Best assortment over rcl = 1..rcl_max randomized rounds.

    Each round gets its own RNG stream derived from (seed, round), so rounds
    are independently reproducible.  Rounds tie-break by A, then by the
    canonical assortment preference, so the output is deterministic.
    """
    if config is None:
        config = GraspConfig()
    order = ratio_order(coefficients(instance).theta, instance.weights)

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
