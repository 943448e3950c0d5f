"""Exact maximization of A(x) under the capacity constraint.

Three routes to the optimum / bounds on it:

* ``brute_force_oracle`` enumerates all assortments (small n only).
* ``lp_relaxation`` solves the linear relaxation of the linearized program

      max  sum mu_ij y_ij + (n-1) sum theta_i x_i
      s.t. sum w_i x_i <= C,   1 + y_ij >= x_i + x_j,   y_ij >= 0,  x in [0,1]

  Because every mu_ij <= 0, a pair row only matters when x_i + x_j > 1 at
  the optimum, so the LP is solved by generating violated pair rows lazily;
  the restricted LPs stay tiny even for large n.
* ``lp_bound_answer`` is the bound-only answer: no assortment, the LP
  bound as ``upper_bound``, priced as if that A were attained, which gives
  ``revenue_upper_bound``.
* ``branch_and_bound`` proves optimality over binary x, bounding every
  node with the fractional-knapsack majorant of its free products (the mu
  terms of the fixed-on products folded in), starting from the caller's
  incumbent (in practice GRASP's answer) or from the empty assortment.

``knapsack_majorant_bound`` is the root version of that bound: dropping
the nonpositive mu terms leaves (n-1) sum theta_i x_i, whose
fractional-knapsack optimum dominates the LP bound and hence A(x*).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .heuristics import grasp, greedy  # noqa: F401 -- unused; the benchmark's tracer patches them
from .instance import Instance, is_feasible, tie_break_prefer, validate_assortment
from .objective import a_value, coefficients
from .pricing import SolveResult, SolveStats, optimal_uniform_price, price_for_a

_BRUTE_FORCE_MAX_N = 22
_CHUNK_BITS = 16
# inflate majorant bounds so float noise can never prune the true optimum
_MAJORANT_SAFETY = 1e-9
# a relaxed value this close to 0 or 1 counts as integral
_INTEGRALITY_TOL = 1e-6
# prune a node whose bound exceeds the incumbent by at most this relative slack
_PRUNE_REL_TOL = 1e-9


class InstanceTooLarge(ValueError):
    """The instance is beyond brute force's enumeration limit."""


@dataclass
class LpSolution:
    x_frac: np.ndarray
    y_frac: np.ndarray
    objective_value: float
    lp_solves: int


@dataclass
class BranchBoundConfig:
    node_budget: int | None = None
    time_budget_s: float | None = None
    record_bound_history: bool = False


def _fractional_knapsack(values, weights, capacity):
    """Relaxed knapsack over [0,1] items: fill by value/weight ratio.

    Items with nonpositive value are left at zero.  Returns (optimum, fill)
    with fill the fractional solution over the given items.
    """
    m = values.size
    fill = np.zeros(m)
    if m == 0 or capacity <= 0:
        return 0.0, fill
    order = np.lexsort((np.arange(m), -values / weights))
    total = 0.0
    remaining = capacity
    # an overflowing bound becomes inf silently (also in the callers' float
    # arithmetic) and is refused when priced
    with np.errstate(over="ignore"):
        for k in order:
            if values[k] <= 0.0 or remaining <= 0.0:
                break
            if weights[k] <= remaining:
                fill[k] = 1.0
                total += values[k]
                remaining -= weights[k]
            else:
                frac = remaining / weights[k]
                fill[k] = frac
                total += values[k] * frac
                break
    return float(total), fill


def knapsack_majorant_bound(instance: Instance) -> float:
    """(n-1) times the fractional-knapsack optimum of theta under the capacity.

    Valid because dropping the mu terms (all <= 0) and relaxing x to [0,1]
    both only increase the optimum, so this dominates the LP bound and A(x*).
    """
    theta = coefficients(instance).theta
    best, _ = _fractional_knapsack(theta, instance.weights, instance.capacity)
    return (instance.n - 1) * best


def lp_relaxation(instance: Instance) -> LpSolution:
    """Optimal LP relaxation; its objective bounds A(x) for all feasible x.

    Solved by lazy pair-row generation: pairs (mu < 0) enter the restricted
    LP only once the current solution violates x_i + x_j <= 1; when no
    uncovered pair is violated, the restricted optimum equals the full LP
    optimum.  The reported objective is the canonical full one.
    """
    n = instance.n
    I, J = instance.pair_i, instance.pair_j
    coeffs = coefficients(instance)
    lin_costs, mu = coeffs.lin_costs, coeffs.mu
    included = np.zeros(mu.size, dtype=bool)
    # HiGHS gives up or returns a wrong vertex on costs far from 1, so the
    # largest cost is scaled into [1, 2) by a power of two: every mantissa
    # and the optimal vertex are kept, and ldexp takes subnormal costs too
    exponent = 1 - np.frexp(lin_costs.max())[1]

    solves = 0
    for _ in range(mu.size + 2):
        sel = np.flatnonzero(included)
        k = sel.size
        cost = np.ldexp(np.concatenate([-lin_costs, -mu[sel]]), exponent)
        row = np.concatenate(
            [np.zeros(n, dtype=int),
             np.repeat(np.arange(1, k + 1), 3)]
        )
        col = np.concatenate(
            [np.arange(n),
             np.stack([I[sel], J[sel], n + np.arange(k)], axis=1).ravel()]
        ) if k else np.arange(n)
        val = np.concatenate(
            [instance.weights,
             np.tile([1.0, 1.0, -1.0], k)]
        )
        a_ub = sp.csr_matrix((val, (row, col)), shape=(1 + k, n + k))
        b_ub = np.concatenate([[instance.capacity], np.ones(k)])
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(0, 1), method="highs")
        solves += 1
        if res.status != 0:
            raise RuntimeError(f"LP solve failed with status {res.status}: {res.message}")
        x = res.x[:n]
        violated = (mu < -1e-15) & ~included & (x[I] + x[J] - 1.0 > 1e-12)
        if not violated.any():
            y = np.maximum(0.0, x[I] + x[J] - 1.0)
            with np.errstate(over="ignore", invalid="ignore"):
                objective = float(lin_costs @ x + mu @ y)
            if not np.isfinite(objective):
                raise OverflowError("the LP bound overflows the float range")
            return LpSolution(
                x_frac=x, y_frac=y, objective_value=objective, lp_solves=solves
            )
        included |= violated
    raise RuntimeError("pair-row generation failed to converge")


def lp_bound_answer(instance: Instance) -> SolveResult:
    """The bound-only answer: no assortment, the LP bound on A, and the
    price and revenue that bound implies through the price formula."""
    lp = lp_relaxation(instance)
    price, revenue = price_for_a(lp.objective_value, instance.beta)
    return SolveResult(
        assortment=None,
        a_value=None,
        price=price,
        revenue=revenue,
        upper_bound=lp.objective_value,
        status="bound-only",
        stats=SolveStats(lp_solves=lp.lp_solves),
    )


def revenue_upper_bound(instance: Instance) -> float:
    """Revenue bound: the revenue of the bound-only answer."""
    return lp_bound_answer(instance).revenue


def brute_force_oracle(instance: Instance) -> SolveResult:
    """Exhaustive optimum over all 2^n assortments (guarded at n <= 22).

    Feasible assortments are screened with the linearized objective in bulk;
    near-maximal candidates are then re-evaluated with the canonical pair-sum
    A so the reported value uses the same arithmetic as every other solver.
    Ties prefer the assortment offering the lowest-indexed products.
    """
    n = instance.n
    if n > _BRUTE_FORCE_MAX_N:
        raise InstanceTooLarge(
            f"brute force enumerates 2^n assortments; n={n} exceeds the "
            f"limit of {_BRUTE_FORCE_MAX_N}"
        )
    t0 = time.perf_counter()
    coeffs = coefficients(instance)
    I, J = instance.pair_i, instance.pair_j
    lin_costs = coeffs.lin_costs
    bit_values = 1 << np.arange(n, dtype=np.int64)

    best_lin = -np.inf
    candidates: list[int] = []
    total = 1 << n
    chunk = 1 << min(_CHUNK_BITS, n)
    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.int64)
        bits = (masks[:, None] & bit_values[None, :]) != 0
        feasible = bits @ instance.weights <= instance.capacity
        if not feasible.any():
            continue
        bits = bits[feasible]
        masks = masks[feasible]
        with np.errstate(over="ignore", invalid="ignore"):
            a_lin = bits @ lin_costs + (bits[:, I] & bits[:, J]) @ coeffs.mu
        if not np.isfinite(a_lin).all():
            raise OverflowError("A(x) overflows the float range on a feasible assortment")
        best_lin = max(best_lin, float(a_lin.max()))
        window = best_lin - 1e-7 * max(1.0, abs(best_lin))
        keep = a_lin >= window
        candidates = [m for m in candidates if m[1] >= window]
        candidates.extend(zip(masks[keep].tolist(), a_lin[keep].tolist()))

    best_x = None
    best_a = -np.inf
    for mask, _ in candidates:
        x = ((mask & bit_values) != 0).astype(np.int8)
        if float(instance.weights @ x.astype(float)) > instance.capacity:
            continue
        a = a_value(instance, x)
        if a > best_a or (a == best_a and tie_break_prefer(x, best_x)):
            best_x, best_a = x, a

    price, revenue = optimal_uniform_price(instance, best_x)
    return SolveResult(
        assortment=best_x,
        a_value=best_a,
        price=price,
        revenue=revenue,
        upper_bound=best_a,
        status="optimal",
        stats=SolveStats(nodes=total, lp_solves=0, wall_time_s=time.perf_counter() - t0),
    )


def branch_and_bound(
    instance: Instance, config: BranchBoundConfig | None = None, incumbent=None
) -> SolveResult:
    """Exact maximizer of A(x) over feasible assortments.

    Depth-first search branching on the fractional product of the node's
    knapsack fill (include-branch explored first).  Every node is bounded by
    the fractional-knapsack majorant with the mu interactions of the
    fixed-on products folded in.  A node closes when its bound cannot beat
    the incumbent, or when its fill is integral, feasible and attains the
    majorant.

    The search starts from ``incumbent`` (a feasible 0/1 assortment, such as
    GRASP's answer) or else from the empty one.  Exhausting the node or time
    budget of the search returns status "feasible" with the best incumbent
    and the tightest global bound still open.
    """
    if config is None:
        config = BranchBoundConfig()
    t0 = time.perf_counter()
    n = instance.n
    weights = instance.weights
    coeffs = coefficients(instance)
    mu_mat = coeffs.mu_matrix(n)
    lin_costs = coeffs.lin_costs

    inc_x = validate_assortment(instance, np.zeros(n) if incumbent is None else incumbent)
    if not is_feasible(instance, inc_x):
        raise ValueError("incumbent exceeds the capacity")
    inc_a = a_value(instance, inc_x)

    stats = SolveStats(bound_history=[] if config.record_bound_history else None)

    root_majorant, _ = _fractional_knapsack(lin_costs, weights, instance.capacity)
    root_bound = root_majorant * (1 + _MAJORANT_SAFETY) + 1e-12
    lb0 = np.zeros(n, dtype=np.int8)
    ub0 = np.ones(n, dtype=np.int8)
    stack: list[tuple[np.ndarray, np.ndarray, float]] = [(lb0, ub0, root_bound)]
    stopped = False

    def maybe_update(x_cand: np.ndarray) -> float:
        nonlocal inc_x, inc_a
        a = a_value(instance, x_cand)
        if a > inc_a or (a == inc_a and tie_break_prefer(x_cand, inc_x)):
            inc_x, inc_a = x_cand, a
        return a

    while stack:
        if config.node_budget is not None and stats.nodes >= config.node_budget:
            stopped = True
            break
        if (
            config.time_budget_s is not None
            and time.perf_counter() - t0 > config.time_budget_s
        ):
            stopped = True
            break
        lb, ub, bound = stack.pop()
        stats.nodes += 1
        prune_tol = _PRUNE_REL_TOL * max(1.0, abs(inc_a))

        fixed_on = lb == 1
        weight_fixed = float(weights @ fixed_on)
        if weight_fixed > instance.capacity:
            continue
        residual = instance.capacity - weight_fixed
        free = (lb == 0) & (ub == 1)
        overweight = free & (weights > residual)
        if overweight.any():
            ub = ub.copy()
            ub[overweight] = 0
            free = free & ~overweight

        if not free.any():
            maybe_update(lb.copy())
            if stats.bound_history is not None:
                stats.bound_history.append(_global_bound(inc_a, stack))
            continue

        # linearized objective with the fixed-on set folded in:
        # value(x) = fixed_part + sum over free offered of c_tilde + free-free mu
        mu_fold = mu_mat @ fixed_on.astype(float)
        fixed_part = float(lin_costs @ fixed_on) + 0.5 * float(fixed_on @ mu_fold)
        c_tilde = lin_costs + mu_fold
        free_idx = np.flatnonzero(free)
        majorant_free, fill = _fractional_knapsack(
            np.clip(c_tilde[free_idx], 0.0, None), weights[free_idx], residual
        )
        majorant = fixed_part + majorant_free
        bound = min(bound, majorant * (1 + _MAJORANT_SAFETY) + 1e-12)

        if bound <= inc_a + prune_tol:
            if stats.bound_history is not None:
                stats.bound_history.append(_global_bound(inc_a, stack))
            continue

        x_rel = lb.astype(float)
        x_rel[free_idx] = fill
        fractionality = np.where(free, np.minimum(x_rel, 1.0 - x_rel), -1.0)
        branch_var = int(np.argmax(fractionality))

        if fractionality[branch_var] <= _INTEGRALITY_TOL:
            x_int = np.where(x_rel > 0.5, 1, 0).astype(np.int8)
            if float(weights @ x_int.astype(float)) <= instance.capacity:
                # a fill attaining the raw majorant is optimal in the subtree
                if maybe_update(x_int) >= majorant - prune_tol:
                    if stats.bound_history is not None:
                        stats.bound_history.append(_global_bound(inc_a, stack))
                    continue
            if fractionality[branch_var] <= 0.0:
                branch_var = int(free_idx[0])

        child_up = (lb.copy(), ub.copy(), bound)
        child_up[0][branch_var] = 1
        child_down = (lb.copy(), ub.copy(), bound)
        child_down[1][branch_var] = 0
        stack.append(child_down)
        stack.append(child_up)
        if stats.bound_history is not None:
            stats.bound_history.append(_global_bound(inc_a, stack))

    upper = _global_bound(inc_a, stack) if stopped else inc_a
    status = "feasible" if stopped else "optimal"
    price, revenue = optimal_uniform_price(instance, inc_x)
    stats.wall_time_s = time.perf_counter() - t0
    return SolveResult(
        assortment=inc_x,
        a_value=inc_a,
        price=price,
        revenue=revenue,
        upper_bound=upper,
        status=status,
        stats=stats,
    )


def _global_bound(incumbent_a: float, stack) -> float:
    open_bounds = max((node[2] for node in stack), default=incumbent_a)
    return max(incumbent_a, open_bounds)
