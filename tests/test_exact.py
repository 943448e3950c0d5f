import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from pclopt import (
    BranchBoundConfig,
    GeneratorConfig,
    GraspConfig,
    a_value,
    branch_and_bound,
    brute_force_oracle,
    coefficients,
    derive_seed,
    generate_instance,
    grasp,
    greedy,
    is_feasible,
    knapsack_majorant_bound,
    lambert_w0,
    lp_bound_answer,
    lp_relaxation,
    pair_count,
    pair_members,
)

import pclopt.exact
from pclopt.exact import (_DUALITY_GAP_REL_TOL, _fractional_knapsack, _knapsack_fill,
                          _lp_matrix, _pass_model, _reduced_cost_fixing, _refined_duals,
                          _solve_highs, _transposed_product, _weak_duality_bound, highs)
from pclopt.instance import pair_position, pair_positions

from conftest import (
    assert_matches_all_pairs_lp,
    attained_tie_instance,
    linearized_milp,
    past_prefix_instance,
    random_instance,
    reference_fractional_knapsack,
    short_fold_instance,
    small_utility_instance,
    toy_instance,
)


def test_formulation_shapes_and_signs():
    inst = random_instance(1, n=7)
    coeffs = coefficients(inst)
    assert coeffs.mu.size == pair_count(7) == 21
    assert np.all(coeffs.mu <= 0.0)
    assert coeffs.lin_costs == pytest.approx(6.0 * np.exp(inst.alpha))


def test_brute_force_tie_breaks_toward_product_one():
    inst = toy_instance([0.0, 0.0], [1.0, 1.0], 1.0, gamma=0.5)
    for solver in (brute_force_oracle, branch_and_bound):
        result = solver(inst)
        assert result.assortment.tolist() == [1, 0]
        assert result.a_value == pytest.approx(1.0, abs=1e-12)
        assert result.status == "optimal"


def test_brute_force_prefers_the_pair_when_it_fits():
    inst = toy_instance([0.0, 0.0], [1.0, 1.0], 2.0, gamma=0.5)
    for solver in (brute_force_oracle, branch_and_bound):
        result = solver(inst)
        assert result.assortment.tolist() == [1, 1]
        assert result.a_value == pytest.approx(math.sqrt(2.0), abs=1e-12)


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_exact_ties_resolve_toward_low_indices(gamma):
    # four identical products, room for two: every pair attains the optimum
    inst = toy_instance([0.0] * 4, [1.0] * 4, 2.0, gamma=gamma)
    for solver in (brute_force_oracle, branch_and_bound):
        result = solver(inst)
        assert result.assortment.tolist() == [1, 1, 0, 0]
        assert result.status == "optimal"


def test_brute_force_refuses_large_instances():
    inst = random_instance(3, n=23)
    with pytest.raises(ValueError):
        brute_force_oracle(inst)


def test_lp_relaxation_tight_when_everything_fits():
    inst = random_instance(5, n=8, kappa=0.99)
    inst.capacity = float(inst.weights.sum()) + 1.0
    lp = lp_relaxation(inst)
    assert lp.x_frac == pytest.approx(np.ones(8), abs=1e-7)
    assert lp.objective_value == pytest.approx(
        a_value(inst, np.ones(8, dtype=int)), rel=1e-7
    )


def test_lp_relaxation_binding_two_product_case():
    inst = toy_instance([0.0, 0.0], [1.0, 1.0], 1.0, gamma=0.5)
    lp = lp_relaxation(inst)
    assert lp.x_frac.sum() == pytest.approx(1.0, abs=1e-8)
    assert lp.objective_value == pytest.approx(1.0, abs=1e-8)


def test_lp_solution_structure_and_bound_property():
    for seed in range(12):
        inst = random_instance(seed + 60, n=int(np.random.default_rng(seed).integers(4, 12)))
        lp = lp_relaxation(inst)
        I, J = pair_members(inst.n)
        # constraints hold, and the objective is that of x with every y on
        # its lower envelope, over all pairs
        assert float(inst.weights @ lp.x_frac) <= inst.capacity + 1e-8
        assert np.all(lp.x_frac >= -1e-9) and np.all(lp.x_frac <= 1 + 1e-9)
        y = np.maximum(0.0, lp.x_frac[I] + lp.x_frac[J] - 1.0)
        coeffs = coefficients(inst)
        assert lp.objective_value == pytest.approx(
            float(coeffs.lin_costs @ lp.x_frac + coeffs.mu @ y), rel=1e-9)
        oracle = brute_force_oracle(inst)
        assert lp.objective_value >= oracle.a_value - 1e-8


def test_lp_bound_holds_at_small_utilities():
    # alpha near -300 puts every mu above -1e-129: a pair row is a candidate
    # because mu < 0, not because mu is below some absolute floor
    inst = small_utility_instance()
    lp = lp_relaxation(inst)
    assert lp.objective_value >= brute_force_oracle(inst).a_value
    assert_matches_all_pairs_lp(inst, lp.objective_value)


def test_lp_bound_holds_when_highs_stops_early():
    # everything fits, but adding product 1 to {0, 2} gains 1.9e-11, below
    # HiGHS's tolerance: its x = (1, 0, 1) falls 1.8e-12 short of the optimum
    inst = toy_instance(
        [1.3316433683572457, -0.7624467064848623, 1.168735617426501],
        [3.041879829846108, 6.389630581446333, 4.66553372868759],
        14.81645683520349,
        gamma=np.array([0.08877720084723388, 1e-310, 1e-310]),
    )
    assert lp_relaxation(inst).objective_value >= brute_force_oracle(inst).a_value


def test_lp_bound_is_tight_when_a_basic_column_keeps_a_residual_reduced_cost():
    # HiGHS's duals leave the basic y column of pair (6, 7) a reduced cost
    # of 1.7e-11; counted at y's upper bound 1, it put the weak-duality
    # bound 1e-11 (relative) above the LP optimum
    gamma = np.full(pair_count(8), 1e-310)
    gamma[[3, 6]] = 1.0
    weights = [0.125, 2.0, 2.0, 2.0, 1.0, 9.0, 0.99999, 1.0]
    inst = toy_instance([0.0] * 6 + [0.99999, 1.0], weights, sum(weights) / 16, gamma=gamma)
    lp = lp_relaxation(inst)
    coeffs = coefficients(inst)
    # the refined duals certify x, so the objective at x is reported: the mu
    # terms of the pairs of products with positive x, y on its lower envelope
    pos, i, j = pair_positions(np.flatnonzero(lp.x_frac > 0.0), inst.n)
    y = np.maximum(0.0, lp.x_frac[i] + lp.x_frac[j] - 1.0)
    assert lp.objective_value == float(coeffs.lin_costs @ lp.x_frac + coeffs.mu[pos] @ y)
    assert_matches_all_pairs_lp(inst, lp.objective_value)


def test_lp_that_highs_leaves_short_of_optimal_is_solved_again_cold(monkeypatch):
    # from a start basis HiGHS may stop short of optimal (status Unknown, a
    # dual infeasibility left once it removes its cost perturbation); the LP
    # is then solved again from the all-slack basis, both solves counted.
    # Forced here: every solve from a start basis reports Unknown
    inst = generate_instance(GeneratorConfig(400, 0.04, derive_seed(0, 400, 0.04, 0)))
    solver_type, runs = highs._Highs, []

    class StopsShortWhenWarm:
        def __init__(self):
            self.solver, self.warm = solver_type(), False

        def __getattr__(self, name):
            return getattr(self.solver, name)

        def setBasis(self, basis):
            self.warm = True
            return self.solver.setBasis(basis)

        def run(self):
            status = self.solver.run()
            runs.append((self.warm, self.solver.getInfo().simplex_iteration_count))
            return status

        def getModelStatus(self):
            if self.warm:
                return highs.HighsModelStatus.kUnknown
            return self.solver.getModelStatus()

    monkeypatch.setattr(highs, "_Highs", StopsShortWhenWarm)
    lp = lp_relaxation(inst)
    monkeypatch.undo()
    assert [warm for warm, _ in runs] == [True, False]
    assert lp.simplex_iterations == sum(steps for _, steps in runs)
    monkeypatch.setattr(pclopt.exact, "_start_basis", lambda *args: None)
    cold = lp_relaxation(inst)
    assert np.array_equal(lp.x_frac, cold.x_frac)
    assert lp.objective_value == cold.objective_value
    assert lp.lp_solves == cold.lp_solves == 1
    assert cold.simplex_iterations == runs[1][1]


def test_lp_that_stopped_short_from_an_earlier_start_basis_solves_warm(monkeypatch):
    # large-budget's instance (seed 1, op 79): from a start basis that also
    # made y basic on rows drawn to price left-out products, HiGHS stopped
    # with status Unknown and the LP was solved again cold (4 + 7,519
    # iterations); from the basis of the rows the fill makes tight, one warm
    # solve ends optimal
    inst = generate_instance(GeneratorConfig(n=1000, kappa=0.04, seed=1648667075051556803))
    solve, calls = pclopt.exact._solve_highs, []

    def counted(cost, a_ub, b_ub, basis=None):
        calls.append(basis is not None)
        return solve(cost, a_ub, b_ub, basis)

    monkeypatch.setattr(pclopt.exact, "_solve_highs", counted)
    lp = lp_relaxation(inst)
    assert calls == [True]
    assert lp.lp_solves == 1 and lp.simplex_iterations < 1000


def test_lp_rows_grow_past_the_seeded_prefix():
    # the first LP's answer x_0 = x_3 = 1 violates the unseeded pair (0, 3)
    inst = past_prefix_instance()
    lp = lp_relaxation(inst)
    assert lp.lp_solves == 2
    assert lp.x_frac == pytest.approx([0.5, 0.5, 0.5, 0.5, 0.0], abs=1e-9)
    assert_matches_all_pairs_lp(inst, lp.objective_value)


def test_a_folded_pair_left_short_is_unfolded_and_solved_again():
    inst = short_fold_instance()
    n = inst.n
    lps = _recorded_lps(inst)
    lp = lp_relaxation(inst)
    assert lp.lp_solves == len(lps) == 2
    # the second LP builds the rows of the unfolded products 1 and 2
    rows = [set(map(tuple, a_ub[1][n:].reshape(-1, 3)[:, :2].tolist())) for _, a_ub, _, _ in lps]
    assert rows[0] < rows[1] and rows[1] - rows[0] == {(1, 2), (1, 4), (2, 3), (2, 4)}
    assert_matches_all_pairs_lp(inst, lp.objective_value)
    # the certificate lists the pair (3, 4), still folded, at dual -mu
    coeffs = coefficients(inst)
    I, J = pair_members(n)
    folded = pair_position(n, 3, 4)
    assert (3, 4) not in rows[1] and coeffs.mu[folded] < 0.0
    assert lp.pair_duals[lp.pair_rows == folded].tolist() == [-coeffs.mu[folded]]
    # with it, the duals price every column: one capacity dual u_0 >= 0 and
    # D as the weak-duality value of the full program
    pairs, u = lp.pair_rows, lp.pair_duals
    assert np.all(np.diff(pairs) > 0) and np.all(coeffs.mu[pairs] < 0) and np.all(u >= 0)
    pair_part = np.bincount(I[pairs], u, n) + np.bincount(J[pairs], u, n)
    u_0 = (coeffs.lin_costs - pair_part - lp.reduced_costs) / inst.weights
    assert u_0 == pytest.approx(np.full(n, u_0.mean()), rel=1e-9, abs=1e-9 * u_0.max())
    dual = (u_0.mean() * inst.capacity + u.sum() + np.maximum(0.0, lp.reduced_costs).sum()
            + np.maximum(0.0, coeffs.mu[pairs] + u).sum())
    assert lp.dual_bound == pytest.approx(dual, rel=1e-9)
    # D - max(0, r_k) + r_k bounds every assortment offering k, D - max(0, r_k) the rest
    without = lp.dual_bound - np.maximum(0.0, lp.reduced_costs)
    for mask in range(1 << n):
        x = (mask >> np.arange(n)) & 1
        if is_feasible(inst, x):
            bounds = np.where(x == 1, without + lp.reduced_costs, without)
            assert np.all(a_value(inst, x) <= bounds * (1 + 1e-12))


@pytest.mark.parametrize("shift", [700.0, 705.0, 706.0, 707.0])
@pytest.mark.filterwarnings("error")
def test_folded_constant_stays_finite_and_d_overflows_only_with_the_lp_bound(shift, monkeypatch):
    # the fill takes products 0-4 whole and 5 in part, so the pairs among
    # 0-3 are folded; their -mu, about e^shift each, are summed in the LP's
    # scaled units.  The duals' D, constant included, is e^shift times the
    # shift-0 bound, inf only past the float range (from shift 706.05)
    base = np.array([0.5, 0.4, 0.3, 0.2, 0.1, 0.0, -0.1, -0.2])
    reference = lp_relaxation(toy_instance(base, [1.0] * 8, 5.5, gamma=0.5)).dual_bound
    calls = []

    def recording(cost, a_ub, b_ub, u, exponent, constant=0.0):
        dual, reduced = _weak_duality_bound(cost, a_ub, b_ub, u, exponent, constant)
        calls.append((constant, dual))
        return dual, reduced

    monkeypatch.setattr(pclopt.exact, "_weak_duality_bound", recording)
    lp = lp_relaxation(toy_instance(shift + base, [1.0] * 8, 5.5, gamma=0.5))
    assert calls and all(0.0 < constant < 12.0 for constant, _ in calls)
    log_bound = math.log(reference) + shift
    if log_bound < math.log(sys.float_info.max):
        for bound in (lp.dual_bound, *(dual for _, dual in calls)):
            assert bound == pytest.approx(math.exp(log_bound), rel=1e-11)
    else:
        assert lp.dual_bound == lp.objective_value == math.inf
        assert all(dual == math.inf for _, dual in calls)


@pytest.mark.xfail(strict=True, reason=(
    "HiGHS stops on x = (0, 1) with a reduced cost below its 1e-10 dual tolerance, and "
    "the duals' bound it falls back to is 8.4e-11 (relative) above the LP optimum"))
def test_lp_relaxation_matches_the_all_pairs_lp_on_a_near_tie():
    # costs 8.4e-14 apart, relative; the reported bound is valid but not tight
    inst = toy_instance([-299.9999999999159, -300.0], [2.0, 1.0], 1.0, gamma=1e-310)
    assert_matches_all_pairs_lp(inst, lp_relaxation(inst).objective_value)


def test_lp_certificate_bounds_every_assortment_with_a_product_in_or_out():
    for seed in range(6):
        inst = random_instance(seed + 900, n=8)
        lp = lp_relaxation(inst)
        coeffs = coefficients(inst)
        I, J = pair_members(inst.n)
        rows, u = lp.pair_rows, lp.pair_duals
        assert np.all(np.diff(rows) > 0) and np.all(coeffs.mu[rows] < 0) and np.all(u >= 0)
        # r = (n-1) theta - u_0 w - the duals of each product's pair rows, for one u_0 >= 0
        pair_part = np.bincount(I[rows], u, inst.n) + np.bincount(J[rows], u, inst.n)
        u_0 = (coeffs.lin_costs - pair_part - lp.reduced_costs) / inst.weights
        assert u_0 == pytest.approx(np.full(inst.n, u_0.mean()), rel=1e-9, abs=1e-9 * u_0.max())
        assert u_0.mean() >= -1e-9
        dual = (u_0.mean() * inst.capacity + u.sum() + np.maximum(0.0, lp.reduced_costs).sum()
                + np.maximum(0.0, coeffs.mu[rows] + u).sum())
        assert lp.dual_bound == pytest.approx(dual, rel=1e-9)
        assert lp.dual_bound >= lp.objective_value
        # D - max(0, r_k) + r_k bounds every assortment offering k, D - max(0, r_k) the rest
        without = lp.dual_bound - np.maximum(0.0, lp.reduced_costs)
        for mask in range(1 << inst.n):
            x = (mask >> np.arange(inst.n)) & 1
            if is_feasible(inst, x):
                bounds = np.where(x == 1, without + lp.reduced_costs, without)
                assert np.all(a_value(inst, x) <= bounds * (1 + 1e-12))


def _draw_lp_instance(data):
    n = data.draw(st.integers(2, 14))
    shift = data.draw(st.sampled_from([0.0, -300.0, -700.0, 700.0]))
    # base utilities at most 3 keep A below the float range at shift 700
    alpha = [shift + a for a in data.draw(st.lists(st.floats(-5.0, 3.0), min_size=n, max_size=n))]
    gammas = data.draw(st.lists(
        st.one_of(st.just(1e-310), st.just(1.0), st.floats(1e-3, 1.0)),
        min_size=pair_count(n), max_size=pair_count(n),
    ))
    weights = data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    capacity = data.draw(st.floats(0.05, 1.1)) * sum(weights)
    return toy_instance(alpha, weights, capacity, gamma=np.array(gammas))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_lp_relaxation_matches_the_all_pairs_lp(data):
    inst = _draw_lp_instance(data)
    lp = lp_relaxation(inst)
    assert_matches_all_pairs_lp(inst, lp.objective_value)


def _recorded_lps(inst):
    # every restricted LP lp_relaxation solves, with its start basis
    lps = []

    def recording(cost, a_ub, b_ub, basis=None):
        lps.append((cost, a_ub, b_ub, basis))
        return _solve_highs(cost, a_ub, b_ub, basis)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pclopt.exact, "_solve_highs", recording)
        lp_relaxation(inst)
    return lps


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_highs_binding_returns_linprogs_answer_bit_for_bit(data):
    # the binding must keep linprog's options and sign conventions: a
    # scipy whose binding changes fails here instead of changing answers
    lps = _recorded_lps(_draw_lp_instance(data))
    assert lps
    for cost, a_ub, b_ub, basis in lps:
        # without a start basis, the binding is linprog
        z, row_dual, _ = _solve_highs(cost, a_ub, b_ub)
        a_sparse = sp.csr_array(a_ub, shape=(b_ub.size, cost.size))
        res = linprog(cost, A_ub=a_sparse, b_ub=b_ub, bounds=(0, 1), method="highs", options={
            "presolve": False,
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        })
        assert res.status == 0, res.message
        assert np.array_equal(z, res.x)
        assert np.array_equal(row_dual, res.ineqlin.marginals)
        again = _solve_highs(cost, a_ub, b_ub)
        assert np.array_equal(again[0], z) and np.array_equal(again[1], row_dual)
        # from the start basis lp_relaxation passes: the same vertex and
        # duals on every call, and linprog's optimum.  Each answer lies
        # within its duality gap of the optimum, so the two objectives agree
        # to the larger gap plus rounding.  Not to a fixed few ulps: HiGHS
        # stops within its 1e-10 tolerances, so on costs that differ by
        # less the two starts end at vertices up to 3e-11 apart
        assert basis is not None
        warm_z, warm_dual, _ = _solve_highs(cost, a_ub, b_ub, basis)
        gap = max(_weak_duality_bound(cost, a_ub, b_ub, np.maximum(0.0, -duals), 0)[0]
                  + cost @ vertex for vertex, duals in ((z, row_dual), (warm_z, warm_dual)))
        assert abs(cost @ warm_z - cost @ z) <= gap + _DUALITY_GAP_REL_TOL * abs(cost @ z)
        again = _solve_highs(cost, a_ub, b_ub, basis)
        assert np.array_equal(again[0], warm_z) and np.array_equal(again[1], warm_dual)


def test_highs_binding_raises_on_an_infeasible_lp():
    # one row z_0 <= -1 under z_0 >= 0: run() itself succeeds, the model
    # status is infeasible
    a_ub = (np.array([1.0]), np.array([0]), np.array([0, 1]))
    with pytest.raises(RuntimeError, match="Infeasible"):
        _solve_highs(np.array([1.0]), a_ub, np.array([-1.0]))


@pytest.mark.parametrize("case, inst, capacity_status", [
    # everything fits: no fractional product, so the capacity row is basic
    ("all-fit", toy_instance([0.0, 0.5, -0.5, 1.0], [1.0, 2.0, 1.5, 0.5], 6.0, gamma=0.5),
     "kBasic"),
    # capacity below every weight: the fill is one fractional product
    ("one-fractional", toy_instance([0.0, 0.5, -0.5, 1.0], [1.0, 2.0, 1.5, 0.5], 0.25,
                                    gamma=0.5), "kUpper"),
    # gamma = 1 everywhere: every mu is 0 and no pair row is built
    ("no-pair-rows", toy_instance([0.0, 0.5, -0.5, 1.0], [1.0, 2.0, 1.5, 0.5], 2.0, gamma=1.0),
     "kUpper"),
    # theta = exp(alpha) underflows to 0 on two products: the fill stops
    # before the capacity is spent, with no fractional product
    ("theta-underflow", toy_instance([0.0, -800.0, 0.5, -800.0], [1.0, 1.0, 1.0, 1.0], 3.0,
                                     gamma=0.5), "kBasic"),
    # product 2 is left out, though its cost beats the capacity price of
    # product 1, the fractional one: its row to product 0, taken whole, is
    # tight at the fill, so y_02 is basic at 0 and its dual can credit 2
    ("credit", toy_instance([2.0, 0.9, 0.8, 0.0], [1.0, 1.0, 1.0, 1.0], 1.5, gamma=0.2),
     "kUpper"),
    # the same fill where every cost / weight leaves the float range
    # (1e304 / 1e-300): the basis reads the fill alone, not the costs
    ("credit-float-range", toy_instance([702.0, 700.9, 700.8, 700.0], [1e-300] * 4, 1.5e-300,
                                        gamma=0.2), "kUpper"),
])
@pytest.mark.filterwarnings("error")
def test_start_basis_is_accepted_on_edge_fills(case, inst, capacity_status):
    lps = _recorded_lps(inst)
    assert lps
    basic = highs.HighsBasisStatus.kBasic
    coeffs = coefficients(inst)
    fill = _knapsack_fill(inst.n, *_fractional_knapsack(coeffs.lin_costs, inst.weights,
                                                         inst.capacity)[1:])
    for cost, a_ub, b_ub, basis in lps:
        assert len(basis.col_status) == cost.size and len(basis.row_status) == b_ub.size
        assert basis.row_status[0] == getattr(highs.HighsBasisStatus, capacity_status)
        if case == "no-pair-rows":
            assert b_ub.size == 1
        # y is basic on exactly the pair rows the fill makes tight or binding
        ends = a_ub[1][inst.n:].reshape(-1, 3)[:, :2]
        tight = fill[ends[:, 0]] + fill[ends[:, 1]] >= 1.0
        assert [status == basic for status in basis.col_status[inst.n:]] == tight.tolist()
        if case.startswith("credit"):
            assert np.any(tight & (fill[ends].min(axis=1) == 0.0))
        # one basic variable per row
        assert basis.col_status.count(basic) + basis.row_status.count(basic) == b_ub.size
        # the basic solution, as HiGHS computes it before its first
        # iteration, is the fill, and feasible
        options = highs.HighsOptions()
        options.presolve = "off"
        options.output_flag = False
        options.primal_feasibility_tolerance = 1e-10
        options.simplex_iteration_limit = 0
        solver = highs._Highs()
        solver.passOptions(options)
        _pass_model(solver, cost, a_ub, b_ub)
        assert solver.setBasis(basis) == highs.HighsStatus.kOk
        solver.run()
        assert np.array(solver.getSolution().col_value)[:inst.n] == pytest.approx(fill, rel=1e-12)
        assert solver.getInfo().num_primal_infeasibilities == 0
        # the binding raises if HiGHS refuses the basis
        warm_z, _, _ = _solve_highs(cost, a_ub, b_ub, basis)
        cold_z, _, _ = _solve_highs(cost, a_ub, b_ub)
        assert abs(cost @ warm_z - cost @ cold_z) <= 4 * np.spacing(abs(cost @ cold_z))


def test_highs_binding_raises_on_a_basis_it_refuses():
    # two basic variables for the one row: HiGHS refuses the basis, and the
    # binding says so instead of solving from the all-slack basis
    a_ub = (np.array([1.0, 1.0]), np.array([0, 1]), np.array([0, 2]))
    basis = highs.HighsBasis()
    basis.col_status = [highs.HighsBasisStatus.kBasic] * 2
    basis.row_status = [highs.HighsBasisStatus.kBasic]
    basis.alien = False
    with pytest.raises(RuntimeError, match="start basis"):
        _solve_highs(np.array([-1.0, -1.0]), a_ub, np.array([1.0]), basis)


def _scipy_lp_matrix(weights, pair_i, pair_j):
    # the restricted LP's matrix as scipy.sparse builds it from coordinates
    n, k = weights.size, pair_i.size
    row = np.concatenate([np.zeros(n, dtype=int), np.repeat(np.arange(1, k + 1), 3)])
    col = np.concatenate([np.arange(n),
                          np.stack([pair_i, pair_j, n + np.arange(k)], axis=1).ravel()])
    val = np.concatenate([weights, np.tile([1.0, 1.0, -1.0], k)])
    return sp.csr_array((val, (row, col)), shape=(1 + k, n + k))


def _draw_lp_matrix(data):
    # an instance's capacity row and a sorted subset of its pair rows, as
    # lp_relaxation selects them
    inst = _draw_lp_instance(data)
    pairs = pair_count(inst.n)
    sel = np.array(sorted(data.draw(st.sets(st.integers(0, pairs - 1), max_size=pairs))),
                   dtype=int)
    weights = np.ldexp(inst.weights, 1 - np.frexp(inst.weights.max())[1])
    I, J = pair_members(inst.n)
    args = (weights, I[sel], J[sel])
    return _lp_matrix(*args), _scipy_lp_matrix(*args)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_lp_matrix_holds_scipys_csr_arrays(data):
    a_ub, reference = _draw_lp_matrix(data)
    for ours, theirs in zip(a_ub, (reference.data, reference.indices, reference.indptr)):
        assert ours.dtype == theirs.dtype
        assert np.array_equal(ours, theirs)


def _draw_duals(data, rows):
    # nonnegative duals over many magnitudes, a share of them 0
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    u = rng.random(rows) * 10.0 ** rng.uniform(-12, 12, rows)
    u[rng.random(rows) < 0.3] = 0.0
    return u


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_transposed_product_is_scipys_bit_for_bit(data):
    a_ub, reference = _draw_lp_matrix(data)
    u = _draw_duals(data, reference.shape[0])
    assert np.array_equal(_transposed_product(a_ub, u), reference.T @ u)


def _scipy_refined_duals(cost, a_ub, u, z):
    # _refined_duals on a scipy.sparse matrix
    basic = np.flatnonzero((z > 0.0) & (z < 1.0))
    rows = np.flatnonzero(u > 0.0)
    if not (basic.size and rows.size):
        return u
    a_basic = a_ub[:, basic]
    residual = -cost[basic] - a_basic.T @ u
    step = np.linalg.lstsq(a_basic[rows].T.toarray(), residual, rcond=None)[0]
    refined = u.copy()
    refined[rows] = np.maximum(0.0, u[rows] + step)
    return refined


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_duals_and_bound_match_the_scipy_sparse_build_bit_for_bit(data):
    a_ub, reference = _draw_lp_matrix(data)
    rows, cols = reference.shape
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    cost = -rng.random(cols) * 2.0
    b_ub = np.concatenate([[rng.random()], np.ones(rows - 1)])
    z = rng.choice([0.0, 1.0, 0.5, 0.25], cols)
    u = _draw_duals(data, rows)
    refined = _refined_duals(cost, a_ub, u, z)
    assert np.array_equal(refined, _scipy_refined_duals(cost, reference, u, z))
    dual, reduced = _weak_duality_bound(cost, a_ub, b_ub, refined, -3)
    scipy_reduced = -cost - reference.T @ refined
    scipy_dual = np.ldexp(refined @ b_ub + np.maximum(0.0, scipy_reduced).sum(), 3)
    assert dual == float(scipy_dual)
    assert np.array_equal(reduced, np.ldexp(scipy_reduced, 3))
    # a folded constant is added in scaled units, before D is unscaled
    constant = float(rng.random() * rows)
    dual, reduced = _weak_duality_bound(cost, a_ub, b_ub, refined, -3, constant)
    scipy_dual = np.ldexp(refined @ b_ub + np.maximum(0.0, scipy_reduced).sum() + constant, 3)
    assert dual == float(scipy_dual)
    assert np.array_equal(reduced, np.ldexp(scipy_reduced, 3))


@pytest.mark.parametrize("n", [400, 1000])
@pytest.mark.parametrize("index", [0, 1])
def test_lp_relaxation_solves_once_or_twice_at_full_scale(n, index):
    # the seeded prefix holds the final rows; lazy rounds alone took 4-9 solves
    inst = generate_instance(GeneratorConfig(n, 0.04, derive_seed(0, n, 0.04, index)))
    lp = lp_relaxation(inst)
    assert lp.lp_solves <= 2
    # the certificate's D never falls below the objective, not even by an ulp
    assert lp.dual_bound >= lp.objective_value
    # the knapsack fill's basis saves nearly all of the simplex iterations
    # of the LP with the fill's pair rows folded into its costs: 2.8-7.1%
    # of the all-slack start's on these cells (13-94 against 322-1,609)
    cold = sum(_solve_highs(cost, a_ub, b_ub)[2] for cost, a_ub, b_ub, _ in _recorded_lps(inst))
    assert lp.simplex_iterations * 10 < cold


def test_majorant_bound_cases_and_chain():
    inst = toy_instance([0.0, math.log(2.0)], [1.0, 1.0], 3.0, gamma=0.5)
    assert knapsack_majorant_bound(inst) == pytest.approx(3.0, rel=1e-12)  # (n-1) sum theta

    # capacity below the lightest weight: one fractional item at the best ratio
    inst = toy_instance(np.log([2.0, 5.0]), [2.0, 4.0], 0.5, gamma=0.5)
    best_ratio = 5.0 / 4.0
    assert knapsack_majorant_bound(inst) == pytest.approx(0.5 * best_ratio, rel=1e-12)

    for seed in range(10):
        inst = random_instance(seed + 400)
        major = knapsack_majorant_bound(inst)
        lp = lp_relaxation(inst)
        oracle = brute_force_oracle(inst)
        assert major >= lp.objective_value - 1e-8
        assert lp.objective_value >= oracle.a_value - 1e-8


@pytest.mark.filterwarnings("error")  # a numpy overflow warning fails the test
def test_overflowing_majorant_is_silent():
    # theta = exp(708): (n-1) theta and its knapsack sums overflow to inf
    inst = toy_instance([708.0] * 5, [1, 2, 3, 4, 5], 6.0, gamma=0.5)
    assert knapsack_majorant_bound(inst) == math.inf
    with pytest.raises(OverflowError):
        branch_and_bound(inst)


@pytest.mark.filterwarnings("error")
def test_an_overflowing_lp_bound_fixes_nothing():
    # an LP bound past the float range is inf; its reduced costs may be -inf too
    inst = random_instance(71, n=10)
    lp = lp_relaxation(inst)
    reduced = lp.reduced_costs.copy()
    reduced[0] = -math.inf
    overflowed = dataclasses.replace(
        lp, objective_value=math.inf, dual_bound=math.inf, reduced_costs=reduced)
    result = branch_and_bound(inst, root_lp=overflowed)
    assert (result.stats.fixed_in, result.stats.fixed_out) == (0, 0)
    assert np.array_equal(result.assortment, brute_force_oracle(inst).assortment)
    budgeted = branch_and_bound(inst, BranchBoundConfig(node_budget=1), root_lp=overflowed)
    assert budgeted.a_value <= budgeted.upper_bound < math.inf


@settings(max_examples=200, deadline=None)
@given(
    m=st.one_of(st.integers(0, 70), st.integers(60, 1000)),
    seed=st.integers(0, 2**32 - 1),
    ties=st.booleans(),
    nonpositive=st.sampled_from([0.0, 0.1, 0.5]),
    scale=st.sampled_from([1.0, 1.0, 1e307]),
    room=st.sampled_from([-0.1, 0.0, 0.01, 0.1, 0.5, 1.2]),
)
def test_fractional_knapsack_matches_the_full_sort(m, seed, ties, nonpositive, scale, room):
    # one sort of every item, from the empty knapsack to the 1000 products
    # of the largest root fill; equal ratios, zero and negative values, no
    # room, and (at scale 1e307) sums that overflow
    rng = np.random.default_rng(seed)
    if ties:
        values = rng.choice([1.0, 2.0, 3.0, 4.0], m) * scale
        weights = rng.choice([1.0, 2.0], m)
    else:
        values = rng.uniform(0.5, 2.0, m) * scale
        weights = rng.uniform(1.0, 10.0, m)
    drop = rng.random(m) < nonpositive
    values[drop] = rng.choice([0.0, -1.0, -scale], drop.sum())
    capacity = room * float(weights.sum())
    total, taken, fractional, fraction = _fractional_knapsack(values, weights, capacity)
    expected_total, expected_fill = reference_fractional_knapsack(values, weights, capacity)
    # the items taken whole and the one taken in part, spread over the
    # items, are the reference's fill
    assert np.unique(taken).size == taken.size and fractional not in taken.tolist()
    fill = _knapsack_fill(m, taken, fractional, fraction)
    assert (np.float64(total).tobytes(), fill.tobytes()) == (
        np.float64(expected_total).tobytes(), expected_fill.tobytes())


def test_branch_and_bound_matches_oracle():
    rng = np.random.default_rng(14)
    for _ in range(25):
        n = int(rng.integers(4, 13))
        inst = random_instance(int(rng.integers(2**32)), n=n)
        oracle = brute_force_oracle(inst)
        # from the empty assortment and from the GRASP answer
        for incumbent in (None, grasp(inst).assortment):
            result = branch_and_bound(inst, incumbent=incumbent)
            assert result.status == "optimal"
            assert result.a_value == oracle.a_value
            assert np.array_equal(result.assortment, oracle.assortment)
            assert result.a_value <= result.upper_bound + 1e-8
            assert abs(result.revenue - lambert_w0(result.a_value / math.e) / inst.beta) <= 1e-10


@pytest.mark.parametrize("shift", [-700.0, 700.0])
def test_branch_and_bound_search_is_scale_free(shift):
    # a common shift of alpha scales every A by exp(shift); the search, its
    # pruning and its ties must not depend on that scale
    for seed in range(3):
        base = random_instance(seed + 3, n=12, kappa=0.3)
        shifted = toy_instance(
            base.alpha + shift, base.weights, base.capacity, gamma=base.gamma_upper
        )
        expected, result = branch_and_bound(base), branch_and_bound(shifted)
        assert result.stats.nodes == expected.stats.nodes
        assert np.array_equal(result.assortment, expected.assortment)
        assert result.a_value == brute_force_oracle(shifted).a_value
    # two equal products and room for one: the tie goes to product 1
    tie = toy_instance([shift, shift], [1.0, 1.0], 1.5, gamma=0.5)
    assert branch_and_bound(tie).assortment.tolist() == [1, 0]


def test_equal_products_have_equal_a_and_the_tie_goes_to_product_one():
    # a sum over all pairs put A({3}) an ulp above A({0}) here, so brute
    # force offered {3}; on the offered set alone both are exp(700) * 6
    inst = toy_instance([700.0] * 7, [1.0] * 7, 1.0, gamma=1e-310)
    singletons = np.eye(7, dtype=np.int8)
    assert a_value(inst, singletons[0]) == a_value(inst, singletons[3])
    assert brute_force_oracle(inst).assortment.tolist() == singletons[0].tolist()
    assert branch_and_bound(inst).assortment.tolist() == singletons[0].tolist()


@pytest.mark.parametrize(
    "alpha, weights, capacity, expected_x",
    [
        # a batched sum over many assortments gives 1.9500000000000002
        ([0.0] * 7, [0.25, 0.125, 0.125, 0.1, 0.1, 1.0, 0.25], 1.95, [1] * 7),
        # 1.46 - 1.33 = 0.1299999999999999 < 0.13
        ([0.0, 1.0, 0.0, 0.0, 1.0], [0.41, 0.13, 1.37, 1.81, 1.33], 1.46, [0, 1, 0, 0, 1]),
    ],
    ids=["batched-sum", "residual"],
)
def test_an_assortment_that_fills_the_capacity_exactly_is_feasible(
    alpha, weights, capacity, expected_x
):
    # the optimum's weights sum to the capacity in is_feasible's arithmetic;
    # other summation orders round past it, and must not drop the optimum
    inst = toy_instance(alpha, weights, capacity, gamma=0.5)
    assert is_feasible(inst, expected_x)
    for solver in (brute_force_oracle, branch_and_bound):
        assert solver(inst).assortment.tolist() == expected_x


def test_branch_and_bound_linear_case_is_easy():
    # gamma = 1 everywhere makes the objective linear; the capacity matches
    # the two best ratio items exactly, so the root relaxation is integral
    inst = toy_instance(np.log([4.0, 3.0, 2.0, 1.0]), [1.0, 1.0, 1.0, 1.0], 2.0, gamma=1.0)
    result = branch_and_bound(inst)
    assert result.assortment.tolist() == [1, 1, 0, 0]
    assert result.status == "optimal"
    assert result.stats.nodes <= inst.n


def test_branch_and_bound_budget_exhaustion():
    inst = random_instance(99, n=14, kappa=0.4)
    config = BranchBoundConfig(node_budget=1)
    seeded = grasp(inst)
    result = branch_and_bound(inst, config, incumbent=seeded.assortment)
    assert result.status == "feasible"
    assert result.a_value <= result.upper_bound + 1e-8
    # the incumbent is still the one the heuristic seeded
    assert result.a_value >= seeded.a_value


def test_branch_and_bound_stops_on_the_time_budget_alone():
    inst = random_instance(99, n=14, kappa=0.4)
    lp = lp_relaxation(inst)
    result = branch_and_bound(inst, BranchBoundConfig(time_budget_s=0.0), root_lp=lp)
    assert result.status == "feasible" and result.stats.nodes == 0
    assert result.a_value <= result.upper_bound <= lp.objective_value


def test_branch_and_bound_incumbent_never_below_heuristics():
    for seed in range(8):
        inst = random_instance(seed + 800)
        seeded = grasp(inst, GraspConfig(seed=seed))
        result = branch_and_bound(inst, incumbent=seeded.assortment)
        assert result.a_value >= seeded.a_value
        assert result.a_value >= greedy(inst).a_value


@pytest.mark.parametrize(
    "incumbent",
    [[1, 1, 1, 1], [1, 1, 0], [1, 2, 0, 0]],
    ids=["over-capacity", "wrong-length", "not-binary"],
)
def test_branch_and_bound_rejects_a_bad_incumbent(incumbent):
    inst = toy_instance([0.0] * 4, [1.0] * 4, 2.0, gamma=0.5)
    with pytest.raises(ValueError):
        branch_and_bound(inst, incumbent=incumbent)


def test_branch_and_bound_global_bound_is_monotone():
    # the bound a node budget stops at never loosens as the budget grows,
    # never falls below the incumbent, and closes on it without a budget
    for seed, n in [(42, 12), (43, 13), (44, 14)]:
        inst = random_instance(seed, n=n, kappa=0.3)
        full = branch_and_bound(inst)
        assert full.status == "optimal" and full.upper_bound == full.a_value
        bounds = []
        for budget in range(full.stats.nodes + 1):
            result = branch_and_bound(inst, BranchBoundConfig(node_budget=budget))
            assert result.upper_bound >= result.a_value - 1e-9
            bounds.append(result.upper_bound)
        assert all(b1 >= b2 - 1e-9 for b1, b2 in zip(bounds, bounds[1:]))
        assert bounds[-1] == full.upper_bound


@pytest.mark.parametrize(
    "alpha, expected_x, expected_a",
    [([-1.0, -2.0, -3.0], [1, 1, 0], 0.871094), ([1.0, 2.0, 3.0], [0, 1, 1], 47.560130)],
)
def test_subnormal_gamma_keeps_the_true_optimum(alpha, expected_x, expected_a):
    # alpha / gamma overflows at gamma = 1e-310; rho must tend to max theta
    inst = toy_instance(alpha, [1.0, 1.0, 1.0], 2.0, gamma=1e-310)
    for result in (brute_force_oracle(inst), branch_and_bound(inst)):
        assert result.assortment.tolist() == expected_x
        assert result.a_value == pytest.approx(expected_a, abs=1e-6)


def test_revenue_upper_bound_chain():
    inst = toy_instance([0.0, 0.0], [1.0, 1.0], 1.0, gamma=0.5)
    assert lp_bound_answer(inst).revenue == pytest.approx(2.784645427610738, abs=1e-6)

    # unconstrained: the relaxation is tight, so the bound equals the optimum
    inst = random_instance(19, n=7)
    inst.capacity = float(inst.weights.sum()) + 1.0
    oracle = brute_force_oracle(inst)
    assert lp_bound_answer(inst).revenue == pytest.approx(oracle.revenue, rel=1e-6)

    for seed in range(8):
        inst = random_instance(seed + 250)
        assert lp_bound_answer(inst).revenue >= brute_force_oracle(inst).revenue - 1e-8


def test_result_serialization():
    inst = random_instance(61, n=6)
    result = branch_and_bound(inst)
    payload = result.to_dict()
    assert payload["status"] == "optimal"
    assert payload["assortment"] == result.assortment.tolist()
    assert set(payload["stats"]) == {"nodes", "lp_solves", "lp_iterations", "fixed_in",
                                     "fixed_out", "refixed_in", "refixed_out", "wall_time_s"}


# (n, kappa, index, node_budget) -> (status, nodes, offered, a_value, upper_bound)
# of branch_and_bound from the GRASP answer, as bench._solve_one starts it at
# master seed 0; a change to GRASP, the fixing or the node arithmetic that
# moves the search moves these.  GRASP's answer is optimal at n = 400 and
# 1000, kappa = 0.04, and 0.20% below at (400, 0.02), index 1
PINNED_SEARCHES = [
    ((20, 0.04, 0, None), ("optimal", 25, [3, 6, 12], 177.13108419128628, 177.13108419128628)),
    ((20, 0.06, 2, None), ("optimal", 17, [2, 14, 18], 130.80335347241186, 130.80335347241186)),
    ((50, 0.04, 0, None),
     ("optimal", 21, [6, 8, 23, 27, 38, 45], 1055.6986948396477, 1055.6986948396477)),
    ((50, 0.06, 2, None),
     ("optimal", 7, [0, 17, 20, 22, 24, 34, 45, 46], 1609.8363903535483, 1609.8363903535483)),
    ((100, 0.02, 1, None),
     ("optimal", 41, [37, 40, 52, 66, 71, 72, 82], 2754.469524389556, 2754.469524389556)),
    ((100, 0.04, 0, None),
     ("optimal", 43, [0, 13, 14, 48, 52, 60, 65, 72, 86, 87, 99],
      4422.0534966454, 4422.0534966454)),
    ((100, 0.06, 1, None),
     ("optimal", 5, [1, 2, 19, 25, 29, 30, 35, 36, 38, 51, 57, 64, 72, 87, 89],
      5960.11126299654, 5960.11126299654)),
    ((400, 0.04, 0, 2000),
     ("optimal", 821,
      [6, 19, 29, 42, 43, 44, 47, 49, 55, 61, 65, 93, 98, 117, 118, 162, 171, 175, 184,
       195, 200, 205, 211, 224, 249, 251, 255, 268, 274, 276, 290, 298, 318, 328, 341,
       343, 351, 363, 376, 380, 389, 395],
      63896.431682469796, 63896.431682469796)),
    ((400, 0.02, 1, 2000),
     ("optimal", 1819,
      [15, 18, 41, 42, 47, 52, 80, 84, 90, 102, 106, 160, 192, 194, 207, 210, 226, 253, 285,
       322, 340, 346, 347, 358, 386, 390],
      38439.18511853742, 38439.18511853742)),
    # fixing leaves a core of 16 products: 103 fixed in, 881 fixed out
    ((1000, 0.04, 0, 2000),
     ("optimal", 393,
      [5, 27, 57, 68, 77, 78, 82, 84, 85, 104, 117, 127, 145, 152, 153, 154, 161, 168, 170,
       181, 202, 214, 217, 221, 222, 229, 239, 244, 246, 254, 266, 273, 280, 330, 337, 366,
       370, 379, 395, 413, 414, 434, 439, 440, 451, 467, 469, 493, 504, 527, 559, 567, 573,
       577, 591, 601, 603, 612, 613, 615, 618, 632, 634, 638, 652, 654, 656, 657, 679, 691,
       694, 699, 705, 715, 725, 732, 743, 751, 767, 769, 781, 783, 784, 785, 788, 794, 807,
       824, 830, 833, 844, 847, 852, 853, 858, 861, 864, 867, 871, 876, 878, 881, 892, 903,
       905, 923, 940, 948, 950, 954, 965, 970, 986],
      423302.99974558974, 423302.99974558974)),
    # the budget stops these two: the exclude children that resume their
    # parent's fill must open and close the same nodes, and leave the same
    # bounds open
    ((1000, 0.06, 0, 2000),
     ("feasible", 2000,
      [0, 9, 17, 40, 42, 43, 50, 51, 52, 75, 76, 77, 85, 89, 94, 103, 109, 116, 122, 130, 140,
       147, 157, 161, 165, 170, 173, 180, 182, 188, 190, 192, 210, 211, 214, 215, 218, 222,
       230, 243, 246, 251, 263, 267, 273, 274, 278, 279, 283, 300, 317, 339, 343, 365, 368,
       369, 373, 401, 402, 413, 415, 420, 421, 425, 427, 429, 433, 440, 445, 451, 459, 470,
       488, 491, 492, 493, 498, 500, 505, 508, 512, 514, 516, 524, 526, 527, 532, 548, 554,
       556, 575, 577, 578, 579, 583, 602, 608, 625, 627, 635, 639, 644, 647, 656, 660, 664,
       666, 678, 681, 690, 703, 707, 710, 711, 717, 737, 741, 744, 747, 751, 764, 770, 774,
       775, 785, 789, 791, 798, 812, 815, 829, 835, 841, 845, 860, 861, 871, 874, 877, 882,
       886, 889, 895, 909, 919, 927, 933, 941, 944, 946, 947, 957, 963, 969, 973, 977, 996,
       997],
      537678.7589502246, 537862.6749834605)),
    ((400, 0.06, 0, 500),
     ("feasible", 500,
      [15, 29, 31, 40, 48, 51, 54, 55, 57, 62, 67, 75, 91, 94, 114, 120, 137, 144, 157, 175,
       183, 185, 189, 190, 197, 200, 209, 221, 224, 231, 249, 254, 259, 264, 266, 273, 275,
       283, 299, 301, 305, 323, 342, 346, 348, 352, 359, 361, 365, 376, 381, 383, 384, 389,
       391, 392],
      78778.3511869557, 78968.04315625498)),
]


# (n, kappa, index, node_budget) -> (refixed_in, refixed_out) of the same
# searches: at (400, 0.02) the incumbent rises and re-fixing fixes 4 more
# products in and 6 more out; where GRASP's answer is optimal it never
# rises, so nothing is re-fixed.  Both counts follow the dual vertex HiGHS
# returns; root plus re-fixed is the fixing against the final A
PINNED_REFIXING = {
    (400, 0.02, 1, 2000): (4, 6),
    (400, 0.04, 0, 2000): (0, 0),
    (1000, 0.04, 0, 2000): (0, 0),
}


@pytest.mark.parametrize(
    "cell, expected", PINNED_SEARCHES, ids=[f"{c[0]}-{c[1]}-{c[2]}" for c, _ in PINNED_SEARCHES]
)
def test_branch_and_bound_search_is_pinned(cell, expected):
    n, kappa, index, node_budget = cell
    status, nodes, offered, a_value_expected, upper_expected = expected
    inst = generate_instance(
        GeneratorConfig(n=n, kappa=kappa, seed=derive_seed(0, n, kappa, index))
    )
    seeded = grasp(inst, GraspConfig(seed=derive_seed(0, n, kappa, index, "grasp")))
    lp = lp_relaxation(inst)
    result = branch_and_bound(inst, BranchBoundConfig(node_budget=node_budget),
                              seeded.assortment, lp)
    assert result.status == status
    assert result.stats.nodes == nodes
    assert np.flatnonzero(result.assortment).tolist() == offered
    assert result.a_value == a_value_expected
    assert result.upper_bound == pytest.approx(upper_expected, rel=1e-12, abs=0.0)
    if cell in PINNED_REFIXING:
        stats = result.stats
        assert (stats.refixed_in, stats.refixed_out) == PINNED_REFIXING[cell]
        # the last re-fix ran against the final incumbent: root and
        # re-fixed counts together are the fixing against its A
        fixed_in, fixed_out = _reduced_cost_fixing(lp.dual_bound, lp.reduced_costs,
                                                   result.a_value)
        assert (stats.fixed_in + stats.refixed_in, stats.fixed_out + stats.refixed_out) == (
            np.count_nonzero(fixed_in), np.count_nonzero(fixed_out))


def test_grasp_and_search_never_hold_a_dense_mu():
    # mu lives in pair storage; the searches gather blocks of it, so their
    # peak stays below one n x n float matrix (the root LP's arrays are not
    # theirs, and are built before)
    n = 400
    inst = generate_instance(GeneratorConfig(n, 0.04, derive_seed(0, n, 0.04, 0)))
    root_lp = lp_relaxation(inst)
    tracemalloc.start()
    try:
        seeded = grasp(inst)
        branch_and_bound(inst, BranchBoundConfig(node_budget=2000), seeded.assortment, root_lp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


@pytest.mark.parametrize("start", ["empty", "grasp"])
def test_a_fill_that_attains_its_majorant_does_not_hide_a_better_assortment(start):
    # from the empty assortment the first integral fill offers {3, 4, 5, 8},
    # which attains its majorant to 1e-9 yet is an ulp below {3, 5, 7, 8}
    inst = attained_tie_instance()
    incumbent = grasp(inst).assortment if start == "grasp" else None
    result = branch_and_bound(inst, incumbent=incumbent)
    assert result.status == "optimal"
    assert np.flatnonzero(result.assortment).tolist() == [3, 5, 7, 8]
    assert result.a_value == brute_force_oracle(inst).a_value == 346.0829810403911


def _draw_tie_prone_instance(data, n):
    # discrete draws, as in the attained-tie instance: equal utilities,
    # weights and gammas make assortments whose A tie or differ by an ulp
    alpha = data.draw(st.lists(st.sampled_from([0.0, 0.1, 3.6875]), min_size=n, max_size=n))
    weights = data.draw(st.lists(st.sampled_from([0.1, 0.125, 1.0]), min_size=n, max_size=n))
    gammas = data.draw(st.lists(st.sampled_from([1e-310, 1.0]),
                                min_size=pair_count(n), max_size=pair_count(n)))
    subset = data.draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    capacity = float(np.dot(weights, np.array(subset, dtype=float)))
    return toy_instance(alpha, weights, capacity, gamma=np.array(gammas))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_branch_and_bound_matches_brute_force_on_random_inputs(data):
    n = data.draw(st.integers(2, 10))
    if data.draw(st.sampled_from(["continuous", "continuous", "tie-prone"])) == "tie-prone":
        inst = _draw_tie_prone_instance(data, n)
    else:
        # mostly moderate utilities, a few instances shifted to the float range's edge
        shift = data.draw(st.sampled_from([0.0] * 8 + [700.0, -700.0]))
        alpha = [shift + a
                 for a in data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))]
        gammas = data.draw(st.lists(
            st.one_of(st.just(1e-310), st.floats(1e-3, 1.0), st.just(1.0)),
            min_size=pair_count(n), max_size=pair_count(n),
        ))
        weights = data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
        # a fraction of the total, or exactly the weight of a subset (a
        # capacity tie, which summation orders round either way)
        subset = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        if any(subset) and data.draw(st.booleans()):
            capacity = float(np.dot(weights, np.array(subset, dtype=float)))
        else:
            capacity = data.draw(st.floats(0.05, 1.1)) * sum(weights)
        inst = toy_instance(alpha, weights, capacity, gamma=np.array(gammas))
    oracle = brute_force_oracle(inst)

    result = branch_and_bound(inst)
    assert result.status == "optimal"
    assert is_feasible(inst, result.assortment)
    assert result.a_value == oracle.a_value
    assert np.array_equal(result.assortment, oracle.assortment)

    assert lp_relaxation(inst).objective_value >= oracle.a_value * (1 - 1e-12)

    budget = data.draw(st.integers(1, 30))
    budgeted = branch_and_bound(inst, BranchBoundConfig(node_budget=budget))
    assert budgeted.a_value <= oracle.a_value
    assert budgeted.upper_bound >= oracle.a_value * (1 - 1e-12)


@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize("kappa", [0.02, 0.04, 0.06])
@pytest.mark.parametrize("n", [30, 45, 60])
def test_branch_and_bound_matches_the_milp_optimum(n, kappa, index):
    # beyond brute force's reach: scipy's MILP solver on the linearized program
    inst = generate_instance(GeneratorConfig(n, kappa, derive_seed(0, n, kappa, index)))
    seeded = grasp(inst, GraspConfig(seed=derive_seed(0, n, kappa, index, "grasp")))
    result = branch_and_bound(inst, incumbent=seeded.assortment)
    optimum, milp_x = linearized_milp(inst)
    assert result.status == "optimal"
    assert result.a_value == pytest.approx(optimum, rel=1e-12, abs=0.0)
    # the MILP's assortment is feasible and no better than the search's
    assert is_feasible(inst, milp_x)
    assert a_value(inst, milp_x) <= result.a_value * (1 + 1e-12)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_solvers_keep_the_optimum_when_ratios_leave_the_float_range(data):
    # theta / w near exp(+-700) / 1e-+300 overflows or underflows, which
    # tied the ratio order by index and put the majorant below the optimum
    n = data.draw(st.integers(2, 8))
    shift = data.draw(st.sampled_from([700.0, -700.0]))
    scale = data.draw(st.sampled_from([1e-300, 1e300]))
    alpha = [shift + a for a in data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))]
    gammas = data.draw(st.lists(st.floats(0.2, 1.0), min_size=pair_count(n), max_size=pair_count(n)))
    weights = [scale * w for w in data.draw(st.lists(st.floats(1.0, 5.0), min_size=n, max_size=n))]
    capacity = data.draw(st.floats(0.2, 0.6)) * sum(weights)
    inst = toy_instance(alpha, weights, capacity, gamma=np.array(gammas))
    oracle = brute_force_oracle(inst)
    for heuristic in (greedy, grasp):
        seeded = heuristic(inst)
        assert is_feasible(inst, seeded.assortment)
        result = branch_and_bound(inst, incumbent=seeded.assortment)
        assert result.status == "optimal"
        assert result.a_value == oracle.a_value
        assert np.array_equal(result.assortment, oracle.assortment)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fixing_keeps_the_optimum_and_its_preferred_tie(data):
    # fixing against the optimum itself, the largest incumbent there is,
    # fixes the most; the assortment brute force returns, the optimum that
    # tie_break_prefer ranks first, must keep every product where it is
    n = data.draw(st.integers(2, 12))
    if data.draw(st.sampled_from(["continuous", "continuous", "tie-prone"])) == "tie-prone":
        inst = _draw_tie_prone_instance(data, n)
    else:
        shift = data.draw(st.sampled_from([0.0] * 4 + [700.0, -700.0]))
        scale = data.draw(st.sampled_from([1.0] * 4 + [1e300, 1e-300]))
        # base utilities at most 3 keep A below the float range at shift 700
        alpha = [shift + a
                 for a in data.draw(st.lists(st.floats(-5.0, 3.0), min_size=n, max_size=n))]
        gammas = data.draw(st.lists(
            st.one_of(st.just(1e-310), st.floats(1e-3, 1.0), st.just(1.0)),
            min_size=pair_count(n), max_size=pair_count(n),
        ))
        weights = [scale * w
                   for w in data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))]
        subset = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        if any(subset) and data.draw(st.booleans()):
            capacity = float(np.dot(weights, np.array(subset, dtype=float)))
        else:
            capacity = data.draw(st.floats(0.05, 1.1)) * sum(weights)
        inst = toy_instance(alpha, weights, capacity, gamma=np.array(gammas))
    oracle = brute_force_oracle(inst)
    lp = lp_relaxation(inst)

    fixed_in, fixed_out = _reduced_cost_fixing(lp.dual_bound, lp.reduced_costs, oracle.a_value)
    offered = oracle.assortment == 1
    assert not (fixed_in & ~offered).any() and not (fixed_out & offered).any()

    result = branch_and_bound(inst, incumbent=grasp(inst).assortment, root_lp=lp)
    assert result.status == "optimal"
    assert result.a_value == oracle.a_value
    assert np.array_equal(result.assortment, oracle.assortment)

    budgeted = branch_and_bound(
        inst, BranchBoundConfig(node_budget=data.draw(st.integers(0, 5))), root_lp=lp)
    assert budgeted.upper_bound >= oracle.a_value * (1 - 1e-12)
    assert budgeted.upper_bound <= max(lp.objective_value, budgeted.a_value)
