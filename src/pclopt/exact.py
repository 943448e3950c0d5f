"""Exact maximization of A(x) under the capacity constraint.

Three routes to the optimum / bounds on it:

* ``brute_force_oracle`` enumerates all assortments (small n only).
* ``lp_relaxation`` solves the linear relaxation of the linearized program

      max  sum mu_ij y_ij + (n-1) sum theta_i x_i
      s.t. sum w_i x_i <= C,   1 + y_ij >= x_i + x_j,   y_ij >= 0,  x in [0,1]

  Because every mu_ij <= 0, a pair row only matters when x_i + x_j > 1 at
  the optimum, and such pairs lie among a short prefix of the
  fractional-knapsack ratio order.  The first restricted LP holds every
  pair of that prefix, so one HiGHS solve usually suffices; violated rows
  outside it are still generated lazily, which keeps the answer exact.
  Each restricted LP goes to HiGHS through the binding scipy ships
  (``_solve_highs``), with linprog's options but not its wrapper.  The
  binding is loaded from its file (``_load_highs``), so importing pclopt
  imports neither scipy.optimize nor scipy.sparse: the matrix is built as
  CSC arrays in numpy (``_lp_matrix``), the same arrays scipy.sparse
  would hold.  Its answer carries the dual certificate of its bound: the
  row duals, the reduced costs of x and the weak-duality value.
* ``lp_bound_answer`` is the bound-only answer: no assortment, the LP
  bound as ``upper_bound``, priced as if that A were attained, which gives
  ``revenue_upper_bound``.
* ``branch_and_bound`` proves optimality over binary x.  A solve runs
  GRASP (the caller's incumbent), then the root LP, then reduced-cost
  fixing, then the core search:

  - the root LP's certificate bounds every assortment with a product in,
    and every one with it out; a product whose bound either way falls
    below the incumbent is fixed the other way (the reduction step of
    Caprara, Pisinger & Toth, INFORMS J. Comput. 1999, with LP reduced
    costs as in Nemhauser & Wolsey 1988);
  - the products left free form a small core (in the sense of Pisinger's
    knapsack core), searched depth first with every node bounded by the
    fractional-knapsack majorant of its free products, the mu terms of
    the fixed-in products folded in.

``knapsack_majorant_bound`` is the root version of that bound: dropping
the nonpositive mu terms leaves (n-1) sum theta_i x_i, whose
fractional-knapsack optimum dominates the LP bound and hence A(x*).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy

from .heuristics import grasp, greedy  # noqa: F401 -- unused; the benchmark's tracer patches them
from .instance import (_CAPACITY_REL_TOL, Instance, fits_capacity, is_feasible, pair_positions,
                       tie_break_prefer, validate_assortment)
from .objective import a_value, coefficients, ratio_key, ratio_order, weight_exponents
from .pricing import SolveResult, SolveStats, optimal_uniform_price, price_for_a

_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs():
    """HiGHS's extension module as scipy ships it, without importing
    ``scipy.optimize``, whose import takes 0.3 s for a module pclopt never
    calls.

    The module is loaded from its file under scipy's install and registered
    under its own name, so a later ``import scipy.optimize`` finds and
    reuses it: loaded again under any name, its types are registered twice
    and that import fails.  A module scipy has already loaded is reused.
    ``import scipy`` runs first: it is cheap, and on some platforms it sets
    up the library paths the extension loads from.
    """
    loaded = sys.modules.get(_HIGHS_MODULE)
    if loaded is not None:
        return loaded
    folder = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_core" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(
            f"scipy {scipy.__version__} at {folder} has no HiGHS extension module "
            f"_core (looked for the suffixes {importlib.machinery.EXTENSION_SUFFIXES})"
        )
    spec = importlib.util.spec_from_file_location(_HIGHS_MODULE, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_HIGHS_MODULE] = module
    return module


highs = _load_highs()


def __getattr__(name):
    # ``linprog`` is no longer called here, but the benchmark's tracer still
    # wraps ``pclopt.exact.linprog`` by name; ROADMAP item 1 points that span
    # at ``_solve_highs`` and deletes this.  Importing scipy.optimize only
    # on first access keeps it out of pclopt's start-up.
    if name == "linprog":
        from scipy.optimize import linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_BRUTE_FORCE_MAX_N = 22
_CHUNK_BITS = 16
# the knapsack fill sorts this many best-ratio items first, and 4 times as
# many while it uses them up; the root fill at n = 1000 takes about 115
# products, and a node of the core search has at most its core (30-66 free
# products on the kappa = 0.04, n = 1000 instances of master seed 0)
_KNAPSACK_CORE = 64
# inflate majorant bounds so float noise can never put them below the optimum
_MAJORANT_SAFETY = 1e-9
# a relaxed value this close to 0 or 1 counts as integral
_INTEGRALITY_TOL = 1e-6
# close a subtree whose integral fill attains its majorant to this relative
# slack; a tied assortment inside it is not searched for
_ATTAIN_REL_TOL = 1e-9
# prune a node only when its majorant falls below the incumbent by more than
# this relative slack, so a subtree that ties the incumbent to rounding is
# searched for an assortment tie_break_prefer ranks first.  Relative,
# because any absolute slack fails at some scale of A: 1e-12 is rounded
# away at A = 1e304 and prunes every node at A = 1e-304.
_TIE_REL_TOL = 1e-12
# the first restricted LP holds every pair among this multiple of the
# knapsack fill's support, in ratio order; the prefix grows by the same
# factor past the deepest product of a violated row
_SEED_PREFIX_FACTOR = 1.25
# HiGHS options of every LP solve, the ones linprog(method="highs") passes
# for these arguments: presolve only slows these LPs down, and the
# feasibility tolerances are the tightest HiGHS takes
_HIGHS_OPTIONS = highs.HighsOptions()
_HIGHS_OPTIONS.presolve = "off"
_HIGHS_OPTIONS.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
_HIGHS_OPTIONS.primal_feasibility_tolerance = 1e-10
_HIGHS_OPTIONS.dual_feasibility_tolerance = 1e-10
_HIGHS_OPTIONS.output_flag = False
_HIGHS_OPTIONS.log_to_console = False
_HIGHS_OPTIONS.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
# the LP reports its primal objective when the duals certify it to this
# relative gap, which is rounding; past it, the duals' bound
_DUALITY_GAP_REL_TOL = 1e-13


class InstanceTooLarge(ValueError):
    """The instance is beyond brute force's enumeration limit."""


@dataclass
class LpSolution:
    """The LP optimum (x, y), its objective and the HiGHS solves it took,
    with the dual certificate of the last restricted LP, unscaled: the
    pair positions of its pair rows and their duals (every other pair row's
    dual is 0), the reduced costs of x and the weak-duality value
    D >= objective_value.  The duals are kept sparse: a dense vector over
    every pair would take 4 MB at n = 1000 for about 6.5k rows.

    Every omitted pair's y column has reduced cost mu <= 0 at a zero dual,
    so the certificate holds for the full program: D - max(0, r_k) + r_k
    bounds every assortment that offers product k, and D - max(0, r_k)
    every one that does not.
    """

    x_frac: np.ndarray
    y_frac: np.ndarray
    objective_value: float
    lp_solves: int
    pair_rows: np.ndarray
    pair_duals: np.ndarray
    reduced_costs: np.ndarray
    dual_bound: float


@dataclass
class BranchBoundConfig:
    node_budget: int | None = None
    time_budget_s: float | None = None

    def __post_init__(self):
        if self.node_budget is not None and self.node_budget < 0:
            raise ValueError("node_budget must be nonnegative")
        if self.time_budget_s is not None and not (
            math.isfinite(self.time_budget_s) and self.time_budget_s >= 0
        ):
            raise ValueError("time_budget_s must be finite and nonnegative")


def _fractional_knapsack(values, weights, capacity, exponents=None):
    """Relaxed knapsack over [0,1] items: fill by value/weight ratio.

    Items with nonpositive value are left at zero.  Returns (optimum, fill)
    with fill the fractional solution over the given items.  The fill
    stops at its break item, so only the best-ratio items are sorted: those
    keyed at most the 64th smallest ``ratio_key`` (ties included), a
    prefix of ``ratio_order``, and 4 times as many while the fill uses them
    up.  That costs O(m) plus a sort of O(fill) items.  ``exponents`` is
    passed on to ``ratio_key``.  An overflowing optimum is inf, which
    pricing refuses.
    """
    m = values.size
    fill = np.zeros(m)
    if m == 0 or capacity <= 0:
        return 0.0, fill
    values = np.maximum(values, 0.0)
    key = ratio_key(values, weights, exponents)
    total = 0.0
    remaining = capacity
    taken, size = 0, _KNAPSACK_CORE
    while True:
        if size < m:
            core = np.flatnonzero(key <= np.partition(key, size - 1)[size - 1])
            order = core[np.argsort(key[core], kind="stable")][taken:]
        else:
            order = np.argsort(key, kind="stable")[taken:]
        for k, value, weight in zip(order.tolist(), values[order].tolist(),
                                    weights[order].tolist()):
            if value <= 0.0 or remaining <= 0.0:
                return total, fill
            if weight <= remaining:
                fill[k] = 1.0
                total += value
                remaining -= weight
            else:
                frac = remaining / weight
                fill[k] = frac
                return total + value * frac, fill
        taken += order.size
        if taken == m:
            return total, fill
        size *= 4


def knapsack_majorant_bound(instance: Instance) -> float:
    """(n-1) times the fractional-knapsack optimum of theta under the capacity.

    Valid because dropping the mu terms (all <= 0) and relaxing x to [0,1]
    both only increase the optimum, so this dominates the LP bound and A(x*).
    """
    theta = coefficients(instance).theta
    best, _ = _fractional_knapsack(theta, instance.weights, instance.capacity)
    return (instance.n - 1) * best


def _lp_matrix(weights, pair_i, pair_j):
    """The restricted LP's constraint matrix in CSC form, as the arrays
    (data, indices, indptr) that ``scipy.sparse.csc_array`` holds for it.

    Row 0 is the capacity row, ``weights`` on the n x columns; row 1 + k is
    the pair row x_{pair_i[k]} + x_{pair_j[k]} - y_k, y_k being column
    n + k.  Each x column holds its capacity entry, then its pair rows in
    the order given; each y column its single -1.  Like scipy's conversion
    from coordinates, a stable sort by column of the entries in that order
    lays them out, and the index arrays keep the coordinates' int64.
    """
    n, k = weights.size, pair_i.size
    row = np.concatenate([np.zeros(n, dtype=np.int64), np.repeat(np.arange(1, k + 1), 3)])
    col = np.concatenate([np.arange(n),
                          np.stack([pair_i, pair_j, n + np.arange(k)], axis=1).ravel()])
    val = np.concatenate([weights, np.tile([1.0, 1.0, -1.0], k)])
    order = np.argsort(col, kind="stable")
    indptr = np.zeros(n + k + 1, dtype=np.int64)
    np.cumsum(np.bincount(col, minlength=n + k), out=indptr[1:])
    return val[order], row[order], indptr


def _transposed_product(a_ub, u) -> np.ndarray:
    """A'u for A = a_ub in CSC form (data, indices, indptr).  Each column's
    terms are added from 0 in storage order, as scipy's CSR mat-vec of A'
    adds them, so the sums are scipy's ``a_ub.T @ u`` bit for bit."""
    data, indices, indptr = a_ub
    cols = indptr.size - 1
    return np.bincount(np.repeat(np.arange(cols), np.diff(indptr)),
                       weights=data * u[indices], minlength=cols)


def _weak_duality_bound(cost, a_ub, b_ub, u, exponent) -> tuple[float, np.ndarray]:
    """(D, r), unscaled by 2^-exponent: the reduced costs r = -cost - A'u
    and D = u'b plus the positive reduced costs.  For any u >= 0, D bounds
    max -cost'z over A z <= b, 0 <= z <= 1 above, and D - max(0, r_k) +
    r_k (D - max(0, r_k)) bounds it with z_k fixed at 1 (0)."""
    reduced = -cost - _transposed_product(a_ub, u)
    dual = np.ldexp(u @ b_ub + np.maximum(0.0, reduced).sum(), -exponent)
    return float(dual), np.ldexp(reduced, -exponent)


def _refined_duals(cost, a_ub, u, z) -> np.ndarray:
    """HiGHS's duals u after one least-squares step that zeroes the reduced
    costs of the columns strictly inside their bounds (the basic ones),
    moving only the rows with u > 0.

    HiGHS leaves a basic column a residual reduced cost up to its dual
    tolerance, and the weak-duality bound counts it at the column's upper
    bound: 1.7e-11 on one y column put the bound 1e-11 (relative) above
    the LP optimum.
    """
    basic = np.flatnonzero((z > 0.0) & (z < 1.0))
    rows = np.flatnonzero(u > 0.0)
    if not (basic.size and rows.size):
        return u
    residual = -cost[basic] - _transposed_product(a_ub, u)[basic]
    # the dense block A[rows, basic]', built from the CSC arrays
    data, indices, indptr = a_ub
    col = np.repeat(np.arange(z.size), np.diff(indptr))
    keep = np.isin(col, basic) & np.isin(indices, rows)
    block = np.zeros((basic.size, rows.size))
    block[np.searchsorted(basic, col[keep]), np.searchsorted(rows, indices[keep])] = data[keep]
    step = np.linalg.lstsq(block, residual, rcond=None)[0]
    refined = u.copy()
    refined[rows] = np.maximum(0.0, u[rows] + step)
    return refined


def _solve_highs(cost, a_ub, b_ub) -> tuple[np.ndarray, np.ndarray]:
    """min cost'z over a_ub z <= b_ub, 0 <= z <= 1, with a_ub in CSC form
    as the arrays (data, indices, indptr): (z, row duals), the duals signed
    as linprog's ``ineqlin.marginals``.

    One HiGHS solve through scipy's bundled binding, with the options
    linprog passes, so it returns linprog's answer bit for bit without its
    input checks and per-call option parsing.  A fresh solver per call
    carries no basis between solves.  Any status but optimal raises
    RuntimeError.
    """
    data, indices, indptr = a_ub
    rows, cols = b_ub.size, cost.size
    lp = highs.HighsLp()
    lp.num_col_ = cols
    lp.num_row_ = rows
    lp.col_cost_ = cost
    lp.col_lower_ = np.zeros(cols)
    lp.col_upper_ = np.ones(cols)
    lp.row_lower_ = np.full(rows, -highs.kHighsInf)
    lp.row_upper_ = b_ub
    matrix = lp.a_matrix_
    matrix.format_ = highs.MatrixFormat.kColwise
    matrix.num_col_ = cols
    matrix.num_row_ = rows
    matrix.start_ = indptr
    matrix.index_ = indices
    matrix.value_ = data
    solver = highs._Highs()
    solver.passOptions(_HIGHS_OPTIONS)
    if solver.passModel(lp) == highs.HighsStatus.kError:
        raise RuntimeError("LP solve failed: HiGHS refused the model")
    if (solver.run() == highs.HighsStatus.kError
            or solver.getModelStatus() != highs.HighsModelStatus.kOptimal):
        status = solver.modelStatusToString(solver.getModelStatus())
        raise RuntimeError(f"LP solve failed: {status}")
    solution = solver.getSolution()
    return np.array(solution.col_value), np.array(solution.row_dual)


def lp_relaxation(instance: Instance) -> LpSolution:
    """Optimal LP relaxation; its objective bounds A(x) for all feasible x.

    The first restricted LP holds every pair row (mu < 0) among the first
    ceil(1.25 s) products in fractional-knapsack ratio order, s being the
    number of products the knapsack fill offers: the LP optimum spends the
    capacity on about that prefix, so one HiGHS solve usually suffices.
    The lazy net keeps the answer exact: the rows are the pair rows among
    the prefix; when the solution violates x_i + x_j <= 1 on a pair outside
    it, the prefix grows to 1.25 times the ratio rank of the deepest
    violated product and the LP is solved again; when no uncovered pair is
    violated, the restricted optimum is the full LP optimum.  Only pairs of
    products with positive x can violate their row, so the scan and y_frac
    cost O(p^2) for p such products.  Each restricted LP is built in CSC
    form and solved by ``_solve_highs``, which returns linprog's x and
    duals bit for bit at a fraction of its per-call cost.

    The reported objective is the canonical full one at x, unless HiGHS's
    duals, as returned and refined on its basis, both bound the LP above
    it by more than rounding; then it is the smaller dual bound, which
    stays valid when HiGHS stops within its tolerance.  The certificate is
    that of the duals with the smaller bound.  Where the objective at x
    overflows, the dual bound is reported, and it is inf when it overflows
    too: pricing refuses it, and branch-and-bound then fixes nothing and
    keeps its own bounds.
    """
    n = instance.n
    I, J = instance.pair_i, instance.pair_j
    coeffs = coefficients(instance)
    lin_costs, mu = coeffs.lin_costs, coeffs.mu
    order = ratio_order(lin_costs, instance.weights)
    rank = np.empty(n, dtype=int)
    rank[order] = np.arange(n)
    _, fill = _fractional_knapsack(lin_costs, instance.weights, instance.capacity)
    prefix = math.ceil(_SEED_PREFIX_FACTOR * np.count_nonzero(fill))
    # HiGHS gives up or returns a wrong vertex on costs far from 1, so the
    # largest cost is scaled into [1, 2) by a power of two: every mantissa
    # and the optimal vertex are kept, and ldexp takes subnormal costs too.
    # The capacity row likewise, on its largest weight: HiGHS refuses matrix
    # entries from 1e15 and drops those below 1e-9
    exponent = 1 - np.frexp(lin_costs.max())[1]
    row_exponent = 1 - np.frexp(instance.weights.max())[1]

    solves = 0
    for _ in range(mu.size + 2):
        seeded, _, _ = pair_positions(order[:prefix], n)
        sel = np.sort(seeded[mu[seeded] < 0.0])
        k = sel.size
        cost = np.ldexp(np.concatenate([-lin_costs, -mu[sel]]), exponent)
        a_ub = _lp_matrix(np.ldexp(instance.weights, row_exponent), I[sel], J[sel])
        b_ub = np.concatenate([[np.ldexp(instance.capacity, row_exponent)], np.ones(k)])
        z, row_dual = _solve_highs(cost, a_ub, b_ub)
        solves += 1
        x = z[:n]
        pos, i, j = pair_positions(np.flatnonzero(x > 0.0), n)
        excess = x[i] + x[j] - 1.0
        outside = np.maximum(rank[i], rank[j]) >= prefix
        violated = (mu[pos] < 0.0) & outside & (excess > 1e-12)
        if not violated.any():
            y = np.zeros(mu.size)
            y[pos] = np.maximum(0.0, excess)
            # HiGHS may stop on a reduced cost below its tolerance with x
            # short of the optimum; the weak-duality bound of its duals
            # never falls below it; when it lies past rounding, the duals
            # refined on the basis give the tighter of two valid bounds
            u = np.maximum(0.0, -row_dual)
            with np.errstate(over="ignore", invalid="ignore"):
                objective = float(lin_costs @ x + mu @ y)
                dual, reduced = _weak_duality_bound(cost, a_ub, b_ub, u, exponent)
                if dual - objective > _DUALITY_GAP_REL_TOL * abs(objective):
                    refined = _refined_duals(cost, a_ub, u, z)
                    refined_dual, refined_reduced = _weak_duality_bound(
                        cost, a_ub, b_ub, refined, exponent)
                    if refined_dual < dual:
                        u, dual, reduced = refined, refined_dual, refined_reduced
            if (not math.isfinite(objective)
                    or dual - objective > _DUALITY_GAP_REL_TOL * abs(objective)):
                objective = dual
            return LpSolution(
                x_frac=x, y_frac=y, objective_value=objective, lp_solves=solves,
                pair_rows=sel, pair_duals=np.ldexp(u[1:], -exponent),
                reduced_costs=reduced[:n], dual_bound=dual,
            )
        deepest = rank[np.concatenate([i[violated], j[violated]])].max()
        prefix = max(prefix, math.ceil(_SEED_PREFIX_FACTOR * (deepest + 1)))
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
    near-maximal candidates are then re-evaluated with ``a_value``, A on the
    offered set, so the reported value uses the same arithmetic as every
    other solver.
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
        feasible = fits_capacity(instance, bits @ instance.weights, bits.__getitem__)
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


def _reduced_cost_fixing(lp: LpSolution, inc_a: float) -> tuple[np.ndarray, np.ndarray]:
    """(fixed_in, fixed_out) masks: the products whose certificate bound
    with them out (in) falls below the incumbent's A by more than the tie
    slack, so every assortment tied with the incumbent keeps its freedom.
    Both bounds are weak duality for any duals u >= 0, so an inaccurate LP
    solve fixes nothing wrongly; a product fixed both ways is fixed in."""
    threshold = inc_a * (1 - _TIE_REL_TOL)
    with np.errstate(invalid="ignore"):  # an infinite D fixes nothing
        without = lp.dual_bound - np.maximum(0.0, lp.reduced_costs)
        fixed_in = without < threshold
        return fixed_in, ~fixed_in & (without + lp.reduced_costs < threshold)


def branch_and_bound(
    instance: Instance, config: BranchBoundConfig | None = None, incumbent=None,
    root_lp: LpSolution | None = None,
) -> SolveResult:
    """Exact maximizer of A(x) over feasible assortments.

    The search starts from ``incumbent`` (a feasible 0/1 assortment, such as
    GRASP's answer) or else from the empty one, and from ``root_lp``, the
    instance's ``lp_relaxation``, which it solves itself when not given.
    The LP's certificate fixes products in and out against the incumbent
    (``_reduced_cost_fixing``); the rest, the core, are searched.

    Depth-first search over the core, branching on the fractional product
    of the node's knapsack fill (include-branch explored first).  The core
    has its own arrays: the free products' linear costs with the mu terms
    of the fixed-in products folded in, their mu block and the capacity
    the fixed-in products leave.  A node is the boolean core masks ``on``
    (fixed in) and ``free``, its inherited bound and ``mu_fold`` = mu block
    @ on, and is bounded by the fractional-knapsack majorant of its free
    products with the mu terms of ``on`` folded in.  The include-child adds
    the branching product to ``on`` and its mu row to the fold; the
    exclude-child shares its parent's ``on`` and fold, and both share one
    ``free``.  Nothing is written in place, so a node costs O(core) plus a
    sort of the O(fill) best-ratio free products.  A node closes when its
    fixed-in products do not fit (a fixed-in set that does not fit closes
    the search at once), when its bound cannot beat the incumbent, or when
    its fill is integral, feasible and attains the majorant.

    Exhausting the node or time budget returns status "feasible", the best
    incumbent and, as ``upper_bound``, the LP value or the largest bound
    still open, whichever is smaller (never below the incumbent), which a
    larger budget never loosens.  ``stats`` counts the core's nodes, the
    root LP's solves and the fixed products.
    """
    if config is None:
        config = BranchBoundConfig()
    t0 = time.perf_counter()
    n = instance.n
    weights, capacity = instance.weights, instance.capacity
    coeffs = coefficients(instance)

    inc_x = validate_assortment(instance, np.zeros(n) if incumbent is None else incumbent)
    if not is_feasible(instance, inc_x):
        raise ValueError("incumbent exceeds the capacity")
    inc_a = a_value(instance, inc_x)

    lp = lp_relaxation(instance) if root_lp is None else root_lp
    fixed_in, fixed_out = _reduced_cost_fixing(lp, inc_a)
    fixed = np.flatnonzero(fixed_in)
    core = np.flatnonzero(~(fixed_in | fixed_out))
    mu_mat = coeffs.mu_matrix(n)
    mu_core = mu_mat[np.ix_(core, core)]
    lin_core = coeffs.lin_costs[core] + mu_mat[np.ix_(core, fixed)].sum(axis=1)
    w_core = weights[core]
    weight_in = float(weights[fixed].sum())
    value_in = (float(coeffs.lin_costs[fixed].sum())
                + 0.5 * float(mu_mat[np.ix_(fixed, fixed)].sum()))

    stats = SolveStats(lp_solves=lp.lp_solves, fixed_in=fixed.size,
                       fixed_out=int(np.count_nonzero(fixed_out)))
    exponents = weight_exponents(weights)
    root_majorant, _ = _fractional_knapsack(lin_core, w_core, capacity - weight_in, exponents)
    # a node is (on, free, bound, mu_fold), over the core
    m = core.size
    stack = [(np.zeros(m, dtype=bool), np.ones(m, dtype=bool),
              (value_in + root_majorant) * (1 + _MAJORANT_SAFETY), np.zeros(m))]
    stopped = False

    def offered(on) -> np.ndarray:
        x = fixed_in.astype(np.int8)
        x[core[on]] = 1
        return x

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
        on, free, bound, mu_fold = stack.pop()
        stats.nodes += 1
        attain_tol = _ATTAIN_REL_TOL * abs(inc_a)

        weight_fixed = weight_in + float(w_core @ on)
        if not fits_capacity(instance, weight_fixed, lambda _: offered(on)):
            continue
        residual = capacity - weight_fixed
        # a product that fits to rounding stays free for the integral check
        free = free & (w_core - residual <= _CAPACITY_REL_TOL * capacity)
        if not free.any():
            maybe_update(offered(on))
            continue

        # linearized objective with the fixed-on set folded in:
        # value(x) = fixed_part + sum over free offered of c_tilde + free-free mu
        fixed_part = value_in + float(lin_core @ on) + 0.5 * float(on @ mu_fold)
        free_idx = np.flatnonzero(free)
        c_tilde = lin_core[free_idx] + mu_fold[free_idx]
        majorant_free, fill = _fractional_knapsack(
            c_tilde, w_core[free_idx], residual, exponents
        )
        majorant = fixed_part + majorant_free
        bound = min(bound, majorant * (1 + _MAJORANT_SAFETY))

        # the bound is a majorant times (1 + safety); prune it when that
        # majorant is below the incumbent by more than the tie slack
        if bound <= inc_a * (1 - _TIE_REL_TOL) * (1 + _MAJORANT_SAFETY):
            continue

        # the fill has at most one fractional product; an integral fill
        # branches on the first free product
        fractionality = np.minimum(fill, 1.0 - fill)
        pick = int(np.argmax(fractionality))
        if fractionality[pick] <= _INTEGRALITY_TOL:
            filled = free_idx[fill > 0.5]
            on_filled = on.copy()
            on_filled[filled] = True
            x_int = offered(on_filled)
            load = weight_fixed + float(w_core[filled].sum())
            # a fill attaining the raw majorant is optimal in the subtree
            if (fits_capacity(instance, load, lambda _: x_int)
                    and maybe_update(x_int) >= majorant - attain_tol):
                continue

        branch_var = free_idx[pick]
        child_on, child_free = on.copy(), free.copy()
        child_on[branch_var], child_free[branch_var] = True, False
        stack.append((on, child_free, bound, mu_fold))
        stack.append((child_on, child_free, bound, mu_fold + mu_core[branch_var]))

    upper = inc_a
    if stopped:
        upper = max(inc_a, min(lp.objective_value, max(node[2] for node in stack)))
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
