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
search): O(|S| n) per step.  A GRASP call builds each mu row it reads
once, from the pair storage, and a round whose construction an earlier
round made takes that round's local search as it ended.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import _CAPACITY_REL_TOL, Instance, fits_capacity, pair_position, tie_break_prefer
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


def _mu_rows(instance):
    """A getter of mu's dense rows, row(k) = mu[k, :] with its zero
    diagonal, each built on first use from the pair storage and kept for
    every later round: the column part, pairs (j, k) for j < k, at
    ``pair_position(n, arange(k), k)``, then row k's own slice, pairs
    (k, j) for j > k.  The rows are shared: no caller writes to them."""
    n, mu = instance.n, coefficients(instance).mu
    rows = {}

    def row(k):
        k = int(k)
        got = rows.get(k)
        if got is None:
            start = pair_position(n, k, k + 1)
            got = rows[k] = np.concatenate([mu[pair_position(n, np.arange(k), k)], [0.0],
                                            mu[start:start + n - 1 - k]])
        return got

    return row


def _add_gain(instance, offered, row):
    """(gain, block): the mu rows of the offered set S, one per product,
    from the getter ``row`` (``_mu_rows``), and gain[k] = A(x + e_k) - A(x)
    for k outside S and A(x) - A(x - e_k) for k in it: (n-1) theta_k plus
    the block's column sum (mu's diagonal is zero).  O(|S| n)."""
    block = np.array([row(k) for k in offered]).reshape(len(offered), instance.n)
    return coefficients(instance).lin_costs + block.sum(axis=0), block


def _local_search(instance, x, row):
    """Best improvement over add and swap moves, to a local optimum: each
    step makes the feasible move that raises A most, until none raises it
    by more than _IMPROVE_TOL * A.  No drop raises A (mu_kj >= -min(theta_k,
    theta_j) puts gain_k at (n - |S|) theta_k or more), so none is tried.
    Returns (x, moves, A(x)), A evaluated anew only where a move was made.

    A row of the offered products' mu block, or the zero row below them
    for the adds, scores swapping its product out for each k: gain[k] -
    (gain[out] + mu[out, k]).  Loads past C by more than rounding are not
    scored, and the best move left goes through ``fits_capacity``.  An
    accepted move takes the added product's mu row from the getter ``row``
    (``_mu_rows``), moves the gain by it less the row it replaces, and
    takes that row's place.
    """
    n, weights = instance.n, instance.weights
    offered = np.flatnonzero(x)
    gain, block = _add_gain(instance, offered, row)
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
                # the carried A is exact until the first move
                return x, moves, a_value(instance, x) if moves else a
            trial = x.copy()
            trial[offered[r:r + 1]], trial[k] = 0, 1  # the add row drops nothing
            new_load = load - freed[r] + weights[k]
            if fits_capacity(instance, new_load, lambda _: trial):
                break
            scores[r, k] = -np.inf
        added = row(k)
        gain += added - block[r]
        block[r] = added
        if r < offered.size:
            offered[r] = k
        else:
            offered, block = np.append(offered, k), np.vstack([block, np.zeros(n)])
        x, load, a, moves = trial, new_load, a + delta, moves + 1


def grasp(instance: Instance, config: GraspConfig | None = None) -> SolveResult:
    """Best assortment over rcl = 1..rcl_max randomized rounds.

    Each round gets its own RNG stream derived from (seed, round), so rounds
    are independently reproducible.  Rounds tie-break by A, then by the
    canonical assortment preference, so the output is deterministic.  A
    round that repeats an earlier construction repeats its local search,
    whose moves ``improvement_count`` counts again.
    """
    if config is None:
        config = GraspConfig()
    order = ratio_order(coefficients(instance).theta, instance.weights)

    row = _mu_rows(instance)
    # the local search is deterministic: a construction met before
    # continues as it did then
    searched = {}
    best_x = None
    best_a = -np.inf
    best_rcl = 1
    improvements = 0
    for rcl in range(1, config.rcl_max + 1):
        rng = np.random.default_rng((config.seed, rcl))
        x = _construct(instance, order, rcl, rng)
        key = x.tobytes()
        if key not in searched:
            searched[key] = _local_search(instance, x, row)
        x, accepted, a = searched[key]
        improvements += accepted
        if a > best_a or (a == best_a and tie_break_prefer(x, best_x)):
            best_x, best_a, best_rcl = x, a, rcl
    return _heuristic_result(instance, best_x, best_a, best_rcl, improvements)
