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
  The pairs among the products the knapsack fill takes whole, most of
  that prefix's pairs, get no row: each is folded into the costs as
  mu_ij (x_i + x_j - 1), which is the Lagrangian of its row at the
  multiplier -mu_ij (Caprara, Pisinger & Toth, INFORMS J. Comput. 1999)
  and never below mu_ij y_ij, so the folded LP bounds the LP above and
  its duals, with -mu_ij on the folded pairs, certify the full program.
  A folded pair left short of x_i + x_j >= 1 is unfolded lazily, in the
  same round as the prefix, which keeps the value exact.
  Each restricted LP goes to HiGHS through the binding scipy ships
  (``_solve_highs``), with linprog's options but not its wrapper, and its
  dual simplex starts from the basis of the fractional-knapsack fill
  (``_start_basis``), near the LP optimum, not from the all-slack basis
  linprog starts from, and without HiGHS's matrix scaling.  That basis
  is primal feasible, with y basic on the pair rows the fill makes
  tight: at n = 1000 (kappa 0.02-0.06, master seed 0, indices 0-3) the
  dual simplex takes 0-223 iterations where the all-slack start takes
  331-3,410 on the same folded LPs.  The binding is loaded from its
  file (``_load_highs``), so importing pclopt imports neither
  scipy.optimize nor scipy.sparse: the matrix is built as CSR arrays in
  numpy (``_lp_matrix``), the same arrays scipy.sparse would hold.  Its
  answer carries the dual certificate of its bound: the row duals, the
  reduced costs of x and the weak-duality value.
* ``lp_bound_answer`` is the bound-only answer: no assortment, the LP
  bound as ``upper_bound``, priced as if that A were attained, which bounds
  the revenue.
* ``branch_and_bound`` proves optimality over binary x.  A solve runs
  GRASP (the caller's incumbent), then the root LP, then reduced-cost
  fixing and the search:

  - the root LP's certificate bounds every assortment with a product in,
    and every one with it out; a product whose bound either way falls
    below the incumbent is fixed the other way (the reduction step of
    Caprara, Pisinger & Toth, INFORMS J. Comput. 1999, with LP reduced
    costs as in Nemhauser & Wolsey 1988);
  - the search runs over the products not fixed out, depth first, with
    the fixed-in ones on from the root node; each node is bounded by the
    fractional-knapsack majorant of its free products, the mu terms of
    its products on folded in.  The free products are a small core (in
    the sense of Pisinger's knapsack core), so each fill sorts all of
    them, once, in ``ratio_order``, and ends at the products it takes
    whole and the one it takes in part; a node carries its load and the
    value of its products on from its parent, and an exclude child its
    parent's ratio order and the fill up to the branching product;
  - each time the search raises the incumbent, the same certificate fixes
    products against the new A, in the same masks the root's fixing
    starts, at every node popped after that was pushed before it: each
    node is stamped with the generation of the masks it holds.

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
from .instance import (_CAPACITY_REL_TOL, Instance, fits_capacity, is_feasible, pair_members,
                       pair_positions, tie_break_prefer, validate_assortment)
from .objective import a_value, coefficients, ratio_order, weight_exponents
# optimal_uniform_price is unused; the benchmark's tracer patches it
from .pricing import SolveResult, SolveStats, optimal_uniform_price, price_for_a  # noqa: F401

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
# inflate majorant bounds so float noise can never put them below the optimum
_MAJORANT_SAFETY = 1e-9
# a relaxed value this close to 0 or 1 counts as integral
_INTEGRALITY_TOL = 1e-6
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
# the pair rows among the knapsack fill's products taken whole are folded
# into the costs, all but those of the last fraction _FOLD_MARGIN of them
# in ratio order, the ones the LP optimum may offer in part
_FOLD_MARGIN = 0.05
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
_BASIS_STATUS = np.array([highs.HighsBasisStatus.kLower, highs.HighsBasisStatus.kBasic,
                          highs.HighsBasisStatus.kUpper], dtype=object)


class InstanceTooLarge(ValueError):
    """The instance is beyond brute force's enumeration limit."""


@dataclass
class LpSolution:
    """The LP optimum x, its objective, the HiGHS solves it took and
    their simplex iterations, with the dual certificate of the last
    restricted LP, unscaled: the pair positions of its pair rows and of its
    folded pairs, in storage order, and their duals, -mu on a folded pair
    (every other pair's dual is 0), the reduced costs of x and the
    weak-duality value D >= objective_value (raised to the objective where
    rounding puts the duals' value a few ulps below it).  The duals are
    kept sparse: a dense vector over every pair would take 4 MB at
    n = 1000 for about 10k rows and folded pairs.

    A folded pair's y column has reduced cost mu + (-mu) = 0, and every
    omitted pair's y column has reduced cost mu <= 0 at a zero dual, so
    the certificate holds for the full program: D - max(0, r_k) + r_k
    bounds every assortment that offers product k, and D - max(0, r_k)
    every one that does not.
    """

    x_frac: np.ndarray
    objective_value: float
    lp_solves: int
    simplex_iterations: int
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


def _fill(values, weights, count, total, remaining):
    """The greedy fill of a relaxed knapsack over [0,1] items, resumed at
    item ``count`` of ``values`` and ``weights``, lists of Python floats in
    ratio order: ``total`` is the value of the items before it, all taken
    whole, and ``remaining`` the capacity they leave.  The fill stops at an
    item of nonpositive value, at no room left, or at the first item that
    does not fit, which it takes in part.  Returns the state there,
    (count, total, remaining, fraction): the items taken whole are the
    first ``count``, and item ``count`` is taken in part, by ``fraction``,
    or by nothing where ``fraction`` is None.  The sums run over Python
    floats, so an overflowing total is a silent inf, which pricing refuses.
    """
    for value, weight in zip(values[count:], weights[count:]):
        if value <= 0.0 or remaining <= 0.0:
            break
        if weight > remaining:
            return count, total, remaining, remaining / weight
        total += value
        remaining -= weight
        count += 1
    return count, total, remaining, None


def _fractional_knapsack(values, weights, capacity, exponents=None, order=None):
    """Relaxed knapsack over [0,1] items: fill by value/weight ratio.

    Items with nonpositive value are left at zero.  The fill (``_fill``)
    runs down ``ratio_order``, one stable sort of every item (``exponents``
    is passed on to ``ratio_key``), or down ``order``, a caller's copy of
    that order for nonnegative ``values``, so the items it takes whole are
    a prefix of that order.  Returns (optimum, taken, fractional,
    fraction): their positions, and the position of the one item taken in
    part with its fraction, or (None, 0.0).
    """
    if values.size == 0 or capacity <= 0:
        return 0.0, np.zeros(0, dtype=np.intp), None, 0.0
    values = np.maximum(values, 0.0)
    if order is None:
        order = ratio_order(values, weights, exponents)
    values = values[order].tolist()
    count, total, _, fraction = _fill(values, weights[order].tolist(), 0, 0.0, capacity)
    if fraction is None:
        return total, order[:count], None, 0.0
    return total + values[count] * fraction, order[:count], int(order[count]), fraction


def _knapsack_fill(m, taken, fractional, fraction) -> np.ndarray:
    """A ``_fractional_knapsack`` return as its fractional solution over m items."""
    fill = np.zeros(m)
    fill[taken] = 1.0
    if fractional is not None:
        fill[fractional] = fraction
    return fill


def knapsack_majorant_bound(instance: Instance) -> float:
    """(n-1) times the fractional-knapsack optimum of theta under the capacity.

    Valid because dropping the mu terms (all <= 0) and relaxing x to [0,1]
    both only increase the optimum, so this dominates the LP bound and A(x*).
    """
    theta = coefficients(instance).theta
    best = _fractional_knapsack(theta, instance.weights, instance.capacity)[0]
    return (instance.n - 1) * best


def _lp_matrix(weights, pair_i, pair_j):
    """The restricted LP's constraint matrix in CSR form, as the arrays
    (data, indices, indptr) that ``scipy.sparse.csr_array`` holds for it.

    Row 0 is the capacity row, ``weights`` on the n x columns; row 1 + k is
    the pair row x_{pair_i[k]} + x_{pair_j[k]} - y_k, y_k being column
    n + k.  Each row is laid out in the order it is built, which is its
    column order, so nothing is sorted.  Every column holds an entry, and
    the index arrays are int64, as scipy keeps them from int64 coordinates.
    """
    n, k = weights.size, pair_i.size
    indices = np.concatenate([np.arange(n),
                              np.stack([pair_i, pair_j, n + np.arange(k)], axis=1).ravel()])
    data = np.concatenate([weights, np.tile([1.0, 1.0, -1.0], k)])
    indptr = np.concatenate([[0], n + 3 * np.arange(k + 1)])
    return data, indices, indptr


def _transposed_product(a_ub, u) -> np.ndarray:
    """A'u for A = a_ub in CSR form (data, indices, indptr), every column
    holding an entry.  Each column's terms are added from 0 in row order,
    as scipy's CSC mat-vec of A' adds them, so the sums are scipy's
    ``a_ub.T @ u`` bit for bit."""
    data, indices, indptr = a_ub
    return np.bincount(indices, data * np.repeat(u, np.diff(indptr)))


def _weak_duality_bound(cost, a_ub, b_ub, u, exponent,
                        constant=0.0) -> tuple[float, np.ndarray]:
    """(D, r), unscaled by 2^-exponent: the reduced costs r = -cost - A'u
    and D = u'b plus the positive reduced costs plus ``constant``.  For
    any u >= 0, D bounds constant + max -cost'z over A z <= b, 0 <= z <= 1
    above, and D - max(0, r_k) + r_k (D - max(0, r_k)) bounds it with z_k
    fixed at 1 (0).  ``constant`` is in the scaled units of ``cost``, and
    joins the sum before D is unscaled."""
    reduced = -cost - _transposed_product(a_ub, u)
    dual = np.ldexp(u @ b_ub + np.maximum(0.0, reduced).sum() + constant, -exponent)
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
    # the dense block A[rows, basic]', built from the CSR arrays
    data, indices, indptr = a_ub
    row = np.repeat(np.arange(u.size), np.diff(indptr))
    keep = np.isin(indices, basic) & np.isin(row, rows)
    block = np.zeros((basic.size, rows.size))
    block[np.searchsorted(basic, indices[keep]), np.searchsorted(rows, row[keep])] = data[keep]
    step = np.linalg.lstsq(block, residual, rcond=None)[0]
    refined = u.copy()
    refined[rows] = np.maximum(0.0, u[rows] + step)
    return refined


def _start_basis(fill, fractional, pair_i, pair_j):
    """The restricted LP's start basis at the knapsack fill ``fill``, whose
    fractional product is ``fractional`` (or None), for pair rows joining
    products ``pair_i`` and ``pair_j``: the triangular basis of the
    constraints the fill makes tight (Bixby, ORSA J. Comput. 1992).

    x_k is at its upper bound where fill = 1, basic where it is fractional
    and at its lower bound where it is 0.  A pair row the fill makes tight
    or binding, fill_i + fill_j >= 1, has y basic, at x_i + x_j - 1 in
    [0, 1]; every other row has its slack basic and y at 0.  The capacity
    row is tight when the fill has a fractional product and basic
    otherwise.  Each row has one basic variable of its own, the fractional
    x that of the capacity row, so the basis is triangular, hence
    nonsingular, and its basic solution is the fill, primal feasible.
    """
    # status codes index _BASIS_STATUS: 0 lower, 1 basic, 2 upper
    y_basic = fill[pair_i] + fill[pair_j] >= 1.0
    x_status = (fill > 0.0).view(np.int8) + (fill >= 1.0)
    capacity_status = _BASIS_STATUS[1 if fractional is None else 2]
    basis = highs.HighsBasis()
    basis.col_status = _BASIS_STATUS[np.concatenate([x_status, y_basic])].tolist()
    basis.row_status = [capacity_status] + _BASIS_STATUS[1 + y_basic.view(np.int8)].tolist()
    # a basis HiGHS checks for one basic per row instead of repairing it
    basis.alien = False
    return basis


def _pass_model(solver, cost, a_ub, b_ub) -> None:
    """Hand ``solver`` the LP min cost'z over a_ub z <= b_ub, 0 <= z <= 1,
    with a_ub in CSR form as the arrays (data, indices, indptr), through
    the binding's array overload of ``passModel``.  Every column is
    continuous: the overload takes an integrality entry per column and
    refuses an empty vector.  A model HiGHS refuses raises RuntimeError."""
    data, indices, indptr = a_ub
    rows, cols = b_ub.size, cost.size
    status = solver.passModel(
        cols, rows, data.size, highs.MatrixFormat.kRowwise, highs.ObjSense.kMinimize, 0.0,
        cost, np.zeros(cols), np.ones(cols), np.full(rows, -highs.kHighsInf), b_ub,
        indptr, indices, data, np.zeros(cols, dtype=np.int32))
    if status == highs.HighsStatus.kError:
        raise RuntimeError("LP solve failed: HiGHS refused the model")


def _solve_highs(cost, a_ub, b_ub, basis=None) -> tuple[np.ndarray, np.ndarray, int]:
    """The LP of ``_pass_model`` solved: (z, row duals, simplex
    iterations), the duals signed as linprog's ``ineqlin.marginals``.

    One HiGHS solve through scipy's bundled binding, with the options
    linprog passes but without its input checks and per-call option
    parsing.  Dual simplex starts from ``basis`` (a ``HighsBasis``, such as
    ``_start_basis``) when given, with HiGHS's matrix scaling off, else
    from the all-slack basis with linprog's scaling, as linprog does:
    without a basis the answer is linprog's bit for bit.  A fresh
    solver per call carries no state between solves, so a call repeats
    bit for bit.  A basis HiGHS refuses raises RuntimeError.  From a basis,
    HiGHS may stop short of optimal (status Unknown, a dual infeasibility
    left once it removes its cost perturbation): the LP is then solved
    again from the all-slack basis, both solves' iterations counted, and
    any status but optimal there raises RuntimeError.
    """
    solver = highs._Highs()
    solver.passOptions(_HIGHS_OPTIONS)
    _pass_model(solver, cost, a_ub, b_ub)
    if basis is not None:
        # from a start basis, without linprog's scaling: on 60 n = 400 and
        # 1000 root LPs, the same reduced costs bit for bit in 10% less time
        solver.setOptionValue("simplex_scale_strategy", 0)
        if solver.setBasis(basis) == highs.HighsStatus.kError:
            raise RuntimeError("LP solve failed: HiGHS refused the start basis")
    failed = solver.run() == highs.HighsStatus.kError
    iterations = solver.getInfo().simplex_iteration_count
    if failed or solver.getModelStatus() != highs.HighsModelStatus.kOptimal:
        if basis is None:
            status = solver.modelStatusToString(solver.getModelStatus())
            raise RuntimeError(f"LP solve failed: {status}")
        del solver  # freed first: both alive at once took 13 MB more at n = 1000
        z, row_dual, cold = _solve_highs(cost, a_ub, b_ub)
        return z, row_dual, iterations + cold
    solution = solver.getSolution()
    return np.array(solution.col_value), np.array(solution.row_dual), iterations


def lp_relaxation(instance: Instance) -> LpSolution:
    """Optimal LP relaxation; its objective bounds A(x) for all feasible x.

    The first restricted LP holds every pair (mu < 0) among the first
    ceil(1.25 s) products in fractional-knapsack ratio order, s being the
    number of products the knapsack fill offers: the LP optimum spends the
    capacity on about that prefix, so one HiGHS solve usually suffices.
    The lazy net keeps the answer exact: when the solution violates
    x_i + x_j <= 1 on a pair outside the prefix, the prefix grows to 1.25
    times the ratio rank of the deepest violated product and the LP is
    solved again; when no uncovered pair is violated, the restricted
    optimum is the full LP optimum.  Only pairs of products with positive
    x can violate their row, so the scan and the objective's mu terms cost
    O(p^2) for p such products.

    A pair of the prefix gets a row unless both its products are folded:
    taken whole by the fill, and not among the last ``_FOLD_MARGIN`` of
    those in ratio order.  A folded pair's mu_ij is added to the linear
    costs of i and j, and -mu_ij to a constant ``_weak_duality_bound``
    adds in scaled units: mu_ij y_ij becomes mu_ij (x_i + x_j - 1), which
    is no smaller, as mu <= 0 and x_i + x_j - 1 <= max(0, x_i + x_j - 1).
    So the folded LP bounds the restricted LP above, and its duals with
    u_ij = -mu_ij on the folded pairs are dual feasible for the full LP,
    each folded y column at reduced cost 0: D and the reduced costs are
    weak-duality certificates whatever HiGHS returns.  The two values
    agree when every folded pair has x_i + x_j >= 1 at the folded
    optimum; a folded pair short by more than 1e-12 has its products with
    x < 1 unfolded, and the LP is solved again with their rows, in the
    same round as a grown prefix.  At n = 1000, kappa = 0.04 the fold
    takes the LP from about 10k rows to 4.5k.

    Each restricted LP is built in CSR form and solved by ``_solve_highs``
    from ``_start_basis`` at the knapsack fill: on n = 1000, kappa = 0.04
    (master seed 0, indices 0-3) that takes 45-120 simplex iterations where
    the all-slack start takes 1,074-1,773.  Without the basis the binding
    returns linprog's answer bit for bit, which is how the tests tie it to
    linprog; with it, an optimal vertex of the same LP.

    The reported objective is the canonical full one at x, unless HiGHS's
    duals, as returned and refined on its basis, both bound the LP above
    it by more than rounding; then it is the smaller dual bound, which
    stays valid when HiGHS stops within its tolerance.  The certificate is
    that of the duals with the smaller bound.  Where the objective at x
    overflows only in its linear part, it is summed halved and doubled, as
    ``a_value`` sums A; where it overflows as a whole, the dual bound is
    reported, and it is inf when it overflows too: pricing refuses it, and
    branch-and-bound then fixes nothing and keeps its own bounds.
    """
    n = instance.n
    coeffs = coefficients(instance)
    lin_costs, mu = coeffs.lin_costs, coeffs.mu
    order = ratio_order(lin_costs, instance.weights)
    rank = np.empty(n, dtype=int)
    rank[order] = np.arange(n)
    _, taken, fractional, fraction = _fractional_knapsack(lin_costs, instance.weights,
                                                          instance.capacity, order=order)
    fill = _knapsack_fill(n, taken, fractional, fraction)
    # the fill offers a prefix of the ratio order
    support = taken.size + (fractional is not None)
    prefix = math.ceil(_SEED_PREFIX_FACTOR * support)
    # HiGHS gives up or returns a wrong vertex on costs far from 1, so the
    # largest cost is scaled into [1, 2) by a power of two: every mantissa
    # and the optimal vertex are kept, and ldexp takes subnormal costs too.
    # The capacity row likewise, on its largest weight: HiGHS refuses matrix
    # entries from 1e15 and drops those below 1e-9
    exponent = 1 - np.frexp(lin_costs.max())[1]
    row_exponent = 1 - np.frexp(instance.weights.max())[1]
    row_weights = np.ldexp(instance.weights, row_exponent)
    row_capacity = np.ldexp(instance.capacity, row_exponent)

    # the products whose pair rows are folded into the costs: the fill's
    # products taken whole, less the last _FOLD_MARGIN of them in ratio order
    folding = np.zeros(n, dtype=bool)
    folding[taken[:taken.size - math.ceil(_FOLD_MARGIN * taken.size)]] = True

    solves = iterations = 0
    for _ in range(mu.size + 2):
        # sorted products give their pairs in storage order
        seeded, seeded_i, seeded_j = pair_positions(np.sort(order[:prefix]), n)
        candidate = mu[seeded] < 0.0
        folds = candidate & folding[seeded_i] & folding[seeded_j]
        rows = candidate & ~folds
        sel, pair_i, pair_j = seeded[rows], seeded_i[rows], seeded_j[rows]
        fold_i, fold_j = seeded_i[folds], seeded_j[folds]
        # a folded pair's mu moves to the linear costs of both its products
        # and its -mu to the constant, in scaled units
        fold_mu = np.ldexp(mu[seeded[folds]], exponent)
        constant = -float(fold_mu.sum())
        k = sel.size
        cost = np.concatenate([
            np.ldexp(-lin_costs, exponent)
            - (np.bincount(fold_i, fold_mu, n) + np.bincount(fold_j, fold_mu, n)),
            np.ldexp(-mu[sel], exponent)])
        a_ub = _lp_matrix(row_weights, pair_i, pair_j)
        b_ub = np.concatenate([[row_capacity], np.ones(k)])
        z, row_dual, steps = _solve_highs(cost, a_ub, b_ub,
                                          _start_basis(fill, fractional, pair_i, pair_j))
        solves += 1
        iterations += steps
        x = z[:n]
        pos, i, j = pair_positions(np.flatnonzero(x > 0.0), n)
        excess = x[i] + x[j] - 1.0
        outside = np.maximum(rank[i], rank[j]) >= prefix
        violated = (mu[pos] < 0.0) & outside & (excess > 1e-12)
        # a folded pair short of x_i + x_j >= 1 is counted above its value
        short = x[fold_i] + x[fold_j] - 1.0 < -1e-12
        if not (violated.any() or short.any()):
            # HiGHS may stop on a reduced cost below its tolerance with x
            # short of the optimum; the weak-duality bound of its duals
            # never falls below it; when it lies past rounding, the duals
            # refined on the basis give the tighter of two valid bounds
            u = np.maximum(0.0, -row_dual)
            y = np.maximum(0.0, excess)
            with np.errstate(over="ignore", invalid="ignore"):
                objective = float(lin_costs @ x + mu[pos] @ y)
                if not math.isfinite(objective):
                    # as in a_value: the linear part may overflow where the
                    # objective does not; halved, it cannot
                    objective = float(2.0 * (np.ldexp(lin_costs, -1) @ x
                                             + np.ldexp(mu[pos], -1) @ y))
                dual, reduced = _weak_duality_bound(cost, a_ub, b_ub, u, exponent, constant)
                if dual - objective > _DUALITY_GAP_REL_TOL * abs(objective):
                    refined = _refined_duals(cost, a_ub, u, z)
                    refined_dual, refined_reduced = _weak_duality_bound(
                        cost, a_ub, b_ub, refined, exponent, constant)
                    if refined_dual < dual:
                        u, dual, reduced = refined, refined_dual, refined_reduced
            if (not math.isfinite(objective)
                    or dual - objective > _DUALITY_GAP_REL_TOL * abs(objective)):
                objective = dual
            # the folded pairs' duals are -mu, which prices their y at 0
            pair_duals = -mu[seeded]
            pair_duals[rows] = np.ldexp(u[1:], -exponent)
            # rounding can put the duals' bound a few ulps below the
            # objective at x; raising D to it keeps the certificate valid
            return LpSolution(
                x_frac=x, objective_value=objective, lp_solves=solves,
                simplex_iterations=iterations, pair_rows=seeded[candidate],
                pair_duals=pair_duals[candidate], reduced_costs=reduced[:n],
                dual_bound=max(dual, objective),
            )
        if violated.any():
            deepest = rank[np.concatenate([i[violated], j[violated]])].max()
            prefix = max(prefix, math.ceil(_SEED_PREFIX_FACTOR * (deepest + 1)))
        # unfold the short pairs' products below 1, and solve again with their rows
        ends = np.concatenate([fold_i[short], fold_j[short]])
        folding[ends[x[ends] < 1.0]] = False
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
        stats=SolveStats(lp_solves=lp.lp_solves, lp_iterations=lp.simplex_iterations),
    )


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
    I, J = pair_members(n)
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

    price, revenue = price_for_a(best_a, instance.beta)
    return SolveResult(
        assortment=best_x,
        a_value=best_a,
        price=price,
        revenue=revenue,
        upper_bound=best_a,
        status="optimal",
        stats=SolveStats(nodes=total, lp_solves=0, wall_time_s=time.perf_counter() - t0),
    )


def _reduced_cost_fixing(dual_bound: float, reduced_costs: np.ndarray,
                         inc_a: float) -> tuple[np.ndarray, np.ndarray]:
    """(fixed_in, fixed_out) masks over ``reduced_costs``: the products
    whose certificate bound with them out (in), D - max(0, r_k) (+ r_k),
    falls below the incumbent's A by more than the tie slack, so every
    assortment tied with the incumbent keeps its freedom.  Both bounds are
    weak duality for any duals u >= 0, so an inaccurate LP solve fixes
    nothing wrongly; a product fixed both ways is fixed in."""
    threshold = inc_a * (1 - _TIE_REL_TOL)
    with np.errstate(invalid="ignore"):  # an infinite D fixes nothing
        without = dual_bound - np.maximum(0.0, reduced_costs)
        fixed_in = without < threshold
        return fixed_in, ~fixed_in & (without + reduced_costs < threshold)


def branch_and_bound(
    instance: Instance, config: BranchBoundConfig | None = None, incumbent=None,
    root_lp: LpSolution | None = None,
) -> SolveResult:
    """Exact maximizer of A(x) over feasible assortments.

    The search starts from ``incumbent`` (a feasible 0/1 assortment, such as
    GRASP's answer) or else from the empty one, and from ``root_lp``, the
    instance's ``lp_relaxation``, which it solves itself when not given.
    The LP's certificate fixes products in and out against the incumbent
    (``_reduced_cost_fixing``).  The search runs over the products not
    fixed out, and its root node holds the fixed-in ones on.  Each time
    the incumbent's A rises, the same rule runs again, and every node
    popped after drops the products it fixes out from ``free`` and moves
    the free ones it fixes in to ``on``: one fixing mechanism, at the root
    and below it.  Both bounds are weak duality for the root duals, so
    they hold in every subtree, and the tie slack keeps every tied
    assortment free.

    Depth-first search, branching on the fractional product of the node's
    knapsack fill (include-branch explored first).  A node is two boolean
    masks over the products not fixed out, ``on`` and ``free``, its
    inherited bound, ``mu_fold`` = mu block @ on, its load w.on, its
    ``fixed_part`` lin.on + 1/2 on.mu_fold and the generation of its
    fixing masks.  It is bounded by ``fixed_part`` plus the
    fractional-knapsack majorant of its free products, the mu terms of
    ``on`` folded in.  The include-child adds the branching product b to
    ``on``, its mu row to the fold, w_b to the load and lin_b + mu_fold[b]
    to the fixed part; the exclude-child shares its parent's ``on``, fold
    and sums, and both share one ``free``.  Nothing is written in place.
    Only a node pushed before the latest re-fix applies its masks, and
    only one they move products on for sums its load and fixed part anew.
    So a node costs a few O(m) steps for the m products not fixed out,
    plus one fill over its free products in ratio order, one stable sort,
    which ends at the products it takes whole and the one it takes in
    part.  The exclude-child's c_tilde and residual are its parent's, so
    its ratio order is the parent's without b: it is pushed with its free
    products in that order, their c_tilde and w as Python floats, and the
    fill's state before b where b was the fractional product (the start of
    the fill otherwise), and resumes the fill there, with no capacity
    check, gather or sort, as the exclude branch of depth-first knapsack
    search does (Horowitz & Sahni, J. ACM 1974; Martello & Toth's MT1).  A
    node popped after a re-fix drops that and fills anew.  A node closes
    when its products on do not fit (fixed-in products that do not fit
    close the search at its root) or when its bound cannot beat the
    incumbent by more than the tie slack.  An integral, feasible fill
    updates the incumbent and the node still branches, so its subtree is
    searched for an assortment an ulp better or ranked first by
    ``tie_break_prefer``.

    Exhausting the node or time budget returns status "feasible", the best
    incumbent and, as ``upper_bound``, the LP value or the largest bound
    still open, whichever is smaller (never below the incumbent), which a
    larger budget never loosens.  ``stats`` counts the search's nodes, the
    root LP's solves, the products fixed at the root and those its last
    re-fix fixed beyond them.
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
    fixed_in, fixed_out = _reduced_cost_fixing(lp.dual_bound, lp.reduced_costs, inc_a)
    # the products fixing against inc_a leaves in play
    kept = np.flatnonzero(~fixed_out)
    mu_kept = coeffs.mu_matrix(n, kept, kept)
    lin_kept = coeffs.lin_costs[kept]
    w_kept = weights[kept]
    reduced_kept = lp.reduced_costs[kept]

    stats = SolveStats(lp_solves=lp.lp_solves, lp_iterations=lp.simplex_iterations,
                       fixed_in=int(np.count_nonzero(fixed_in)),
                       fixed_out=int(np.count_nonzero(fixed_out)))
    exponents = weight_exponents(weights)

    def fixed_sums(on, mu_fold) -> tuple[float, float]:
        """(load, fixed_part) of ``on`` from scratch: w.on and lin.on + 1/2 on.mu_fold."""
        return float(w_kept @ on), float(lin_kept @ on) + 0.5 * float(on @ mu_fold)

    # a node is (on, free, bound, mu_fold, load, fixed_part, stamp, carried)
    # over the kept products, ``carried`` an exclude child's fill or None;
    # the root starts with the fixed-in ones on, as re-fixing would move
    # them, and is stamped with generation 0, the root's fixing
    root_on = fixed_in[kept]
    root_fold = mu_kept @ root_on
    stack = [(root_on, ~root_on, math.inf, root_fold, *fixed_sums(root_on, root_fold), 0,
              None)]
    stopped = False
    # the root's masks hold fixing against inc_a; re-fixed, in a new
    # generation, when A rises
    refix_a = inc_a
    refix_in = refix_out = np.zeros(kept.size, dtype=bool)
    generation = 0

    def offered(on) -> np.ndarray:
        x = np.zeros(n, dtype=np.int8)
        x[kept[on]] = 1
        return x

    def maybe_update(x_cand: np.ndarray) -> None:
        nonlocal inc_x, inc_a
        a = a_value(instance, x_cand)
        if a > inc_a or (a == inc_a and tie_break_prefer(x_cand, inc_x)):
            inc_x, inc_a = x_cand, a

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
        on, free, bound, mu_fold, load, fixed_part, stamp, carried = stack.pop()
        stats.nodes += 1

        # re-fix against the incumbent; the masks depend on its A alone, and
        # a node stamped with their generation was pushed with them applied
        if inc_a > refix_a:
            refix_a = inc_a
            refix_in, refix_out = _reduced_cost_fixing(lp.dual_bound, reduced_kept, inc_a)
            generation += 1
        if stamp != generation:
            carried = None
            free = free & ~refix_out
            moved = free & refix_in
            if moved.any():
                on, free = on | moved, free & ~moved
                mu_fold = mu_fold + mu_kept[moved].sum(axis=0)
                load, fixed_part = fixed_sums(on, mu_fold)

        residual = capacity - load
        if carried is None:
            if not fits_capacity(instance, load, lambda _: offered(on)):
                continue
            # a product that fits to rounding stays free for the integral check
            free = free & (w_kept - residual <= _CAPACITY_REL_TOL * capacity)
            free_idx = free.nonzero()[0]
            if not free_idx.size:
                maybe_update(offered(on))
                continue
            # linearized objective with the fixed-on set folded in: value(x)
            # = fixed_part + sum over free offered of c_tilde + free-free mu;
            # the fill leaves c_tilde <= 0 out
            c_tilde = np.maximum(lin_kept[free_idx] + mu_fold[free_idx], 0.0)
            w_free = w_kept[free_idx]
            order = ratio_order(c_tilde, w_free, exponents)
            carried = (free_idx[order].tolist(), c_tilde[order].tolist(),
                       w_free[order].tolist(), 0, 0.0, residual)
        # the free products in ratio order, their c_tilde and w, and the
        # state of the fill where it resumes
        ordered, values, w_free, count, total, remaining = carried
        count, total, remaining, fraction = _fill(values, w_free, count, total, remaining)
        majorant = fixed_part + (total if fraction is None else total + values[count] * fraction)
        bound = min(bound, majorant * (1 + _MAJORANT_SAFETY))

        # the bound is a majorant times (1 + safety); prune it when that
        # majorant is below the incumbent by more than the tie slack
        if bound <= inc_a * (1 - _TIE_REL_TOL) * (1 + _MAJORANT_SAFETY):
            continue

        # the fill has at most one fractional product; a fill integral to
        # the tolerance is checked as an assortment, and one with no
        # fractional product branches on the first free product
        fraction = 0.0 if fraction is None else fraction
        fractionality = min(fraction, 1.0 - fraction)
        if fractionality <= _INTEGRALITY_TOL:
            filled = ordered[:count + (fraction > 0.5)]
            on_filled = on.copy()
            on_filled[filled] = True
            x_int = offered(on_filled)
            if fits_capacity(instance, load + float(w_kept[filled].sum()), lambda _: x_int):
                maybe_update(x_int)

        # the exclude child keeps its parent's on, fold and sums, so its
        # fill is the parent's with the branching product left out: past
        # the fractional product it resumes at the state before it
        if fractionality > 0.0:
            at, state = count, (count, total, remaining)
        else:
            at, state = ordered.index(min(ordered)), (0, 0.0, residual)
        branch_var = ordered[at]
        child_on, child_free = on.copy(), free.copy()
        child_on[branch_var], child_free[branch_var] = True, False
        rest = (ordered[:at] + ordered[at + 1:], values[:at] + values[at + 1:],
                w_free[:at] + w_free[at + 1:], *state)
        stack.append((on, child_free, bound, mu_fold, load, fixed_part, generation,
                      rest if rest[0] else None))
        stack.append((child_on, child_free, bound, mu_fold + mu_kept[branch_var],
                      load + w_kept.item(branch_var),
                      fixed_part + lin_kept.item(branch_var) + mu_fold.item(branch_var),
                      generation, None))

    stats.refixed_in = int(np.count_nonzero(refix_in & ~root_on))
    stats.refixed_out = int(np.count_nonzero(refix_out))
    upper = inc_a
    if stopped:
        upper = max(inc_a, min(lp.objective_value, max(node[2] for node in stack)))
    status = "feasible" if stopped else "optimal"
    price, revenue = price_for_a(inc_a, instance.beta)
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
