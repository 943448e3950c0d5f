"""Greedy construction and GRASP for maximizing A(x) under the capacity limit.

One construction routine serves both heuristics.  It walks the products in
theta_i / w_i order (bang per unit of display space) and repeatedly adds
one of the first rcl products that still fit.  Greedy is that construction
with rcl = 1.  GRASP runs it for restricted-candidate-list sizes
1..rcl_max, follows each construction with a local search to a local
optimum (GRASP as Feo & Resende define it, J. Global Optim. 6, 1995), and
keeps the best assortment found.  Its rcl = 1 round is greedy followed by
strictly improving moves, so GRASP can never do worse than greedy.

The local search is deterministic best improvement over add and swap
moves, scored on the carried single-flip gain in A and the offered
products' mu rows (the one-flip bookkeeping of binary quadratic local
search): O(|S| n) per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import _CAPACITY_REL_TOL, Instance, fits_capacity, tie_break_prefer
from .objective import a_value, coefficients, ratio_order
# optimal_uniform_price is unused; the benchmark's tracer patches it
from .pricing import SolveResult, SolveStats, optimal_uniform_price, price_for_a  # noqa: F401

# accept a move only if it improves A by more than this share of A (float noise), to avoid cycling
_IMPROVE_TOL = 1e-12


@dataclass
class GraspConfig:
    rcl_max: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.rcl_max < 1:
            raise ValueError("rcl_max must be at least 1")
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
    """(gain, block): the mu rows of the offered set S, one per product, and
    gain[k] = A(x + e_k) - A(x) for k outside S and A(x) - A(x - e_k) for
    k in it: (n-1) theta_k plus the block's column sum (mu's diagonal is
    zero).  O(|S| n)."""
    coeffs = coefficients(instance)
    block = coeffs.mu_matrix(instance.n, offered, np.arange(instance.n))
    return coeffs.lin_costs + block.sum(axis=0), block


def _local_search(instance, x):
    """Best improvement over add and swap moves, to a local optimum: each
    step makes the feasible move that raises A most, until none raises it
    by more than _IMPROVE_TOL * A.  No drop raises A (mu_kj >= -min(theta_k,
    theta_j) puts gain_k at (n - |S|) theta_k or more), so none is tried.

    A row of the offered products' mu block, or the zero row below them
    for the adds, scores swapping its product out for each k: gain[k] -
    (gain[out] + mu[out, k]).  Loads past C by more than rounding are not
    scored, and the best move left goes through ``fits_capacity``.  An
    accepted move gathers the added product's mu row, moves the gain by
    it less the row it replaces, and takes that row's place.
    """
    n, weights = instance.n, instance.weights
    offered = np.flatnonzero(x)
    gain, block = _add_gain(instance, offered)
    block = np.vstack([block, np.zeros(n)])
    load, a, moves = float(weights @ x.astype(float)), a_value(instance, x), 0
    limit = instance.capacity * (1 + 2 * _CAPACITY_REL_TOL)
    while True:
        freed = np.append(weights[offered], 0.0)
        scores = block + np.append(gain[offered], 0.0)[:, None]
        np.subtract(gain, scores, out=scores)
        scores[:, offered] = -np.inf
        np.putmask(scores, weights > (limit - load) + freed[:, None], -np.inf)
        while True:
            r, k = divmod(int(scores.argmax()), n)
            delta = float(scores[r, k])
            if not delta > _IMPROVE_TOL * a:
                return x, moves
            trial = x.copy()
            trial[offered[r:r + 1]], trial[k] = 0, 1  # the add row drops nothing
            new_load = load - freed[r] + weights[k]
            if fits_capacity(instance, new_load, lambda _: trial):
                break
            scores[r, k] = -np.inf
        row = coefficients(instance).mu_matrix(n, [k], np.arange(n))[0]
        gain += row - block[r]
        block[r] = row
        if r < offered.size:
            offered[r] = k
        else:
            offered, block = np.append(offered, k), np.vstack([block, np.zeros(n)])
        x, load, a, moves = trial, new_load, a + delta, moves + 1


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
        x, accepted = _local_search(instance, x)
        improvements += accepted
        a = a_value(instance, x)
        if a > best_a or (a == best_a and tie_break_prefer(x, best_x)):
            best_x, best_a, best_rcl = x, a, rcl
    return _heuristic_result(instance, best_x, best_a, best_rcl, improvements)
