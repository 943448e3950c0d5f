import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from pclopt import (
    GeneratorConfig,
    Instance,
    LinearizedCoefficients,
    coefficients,
    generate_instance,
    pair_count,
    pair_members,
    validate_assortment,
)
from pclopt.choice import log_nest_value


@pytest.fixture
def coefficient_builds(monkeypatch):
    """List that records the instance of every LinearizedCoefficients build."""
    built = []
    build = LinearizedCoefficients.from_instance.__func__

    def counting(cls, instance):
        built.append(instance)
        return build(cls, instance)

    monkeypatch.setattr(LinearizedCoefficients, "from_instance", classmethod(counting))
    return built


# (alpha, gamma, offered, q, q0) at weights 1, C = 3, beta = 0.1 and zero prices
EXTREME_CHOICE_CASES = [
    # exp(a / gamma) overflows, and so does exp(a) for the nest sum
    pytest.param([800.0, 800.0, 700.0], 0.5, [1, 1, 1], [0.5, 0.5, 0.0], 0.0,
                 id="huge-utilities"),
    # in the gamma -> 0 limit a nest is worth its best member:
    # D = 1 + e^2 + 2 e^3, q = (0, e^2, 2 e^3) / D, q0 = 1 / D
    pytest.param([1.0, 2.0, 3.0], 1e-310, [1, 1, 1],
                 [0.0, 0.152163021541603, 0.827243952839925], 0.0205930256184717,
                 id="subnormal-gamma"),
    # pairs (0,1) and (0,2) hold one offered product each, (1,2) is worth e^3
    pytest.param([1.0, 2.0, 3.0], 1e-310, [0, 1, 1],
                 [0.0, 0.152163021541603, 0.827243952839925], 0.0205930256184717,
                 id="subnormal-gamma-one-left-out"),
]


def pair_sum_a(instance: Instance, x) -> float:
    """A(x) as the sum of its n(n-1)/2 pair terms: rho_ij where both
    members are offered, theta_i or theta_j where one is, 0 where neither
    is.  An oracle for a_value, which evaluates the quadratic form on the
    offered set instead."""
    on = validate_assortment(instance, x).astype(bool)
    I, J = pair_members(instance.n)
    gam = instance.gamma_upper
    with np.errstate(over="ignore"):
        theta = np.exp(instance.alpha)
        rho = np.exp(log_nest_value(instance.alpha[I], instance.alpha[J], gam))
        rho[gam == 1.0] = theta[I[gam == 1.0]] + theta[J[gam == 1.0]]
        terms = np.where(on[I] & on[J], rho, on[I] * theta[I] + on[J] * theta[J])
        return float(np.sum(terms))


def toy_instance(alpha, weights, capacity, beta=0.1, gamma=1.0) -> Instance:
    """Hand-crafted instance; gamma may be a scalar or a per-pair vector."""
    alpha = np.asarray(alpha, dtype=float)
    n = alpha.size
    if np.isscalar(gamma):
        gamma_upper = np.full(pair_count(n), float(gamma))
    else:
        gamma_upper = np.asarray(gamma, dtype=float)
    return Instance(
        n=n,
        alpha=alpha,
        weights=np.asarray(weights, dtype=float),
        capacity=capacity,
        beta=beta,
        gamma_upper=gamma_upper,
    )


def small_utility_instance() -> Instance:
    """alpha near -300: every mu lies between -1e-129 and 0, so an absolute
    floor on mu keeps every pair row out of the LP, whose value then falls
    below the optimum (5.724e-130 against 6.279e-130)."""
    gamma = np.full(pair_count(5), 1e-3)
    gamma[3] = 1.0
    return toy_instance(
        [-299.89936349659854, -299.88518223981816, -300.002027095386,
         -300.15107283073587, -299.8485896793218],
        [1.9499935930817573, 1.1871193407291787, 1.7562071326976072,
         0.5838079475478068, 1.0783808858450863],
        4.9312071910481015,
        gamma=gamma,
    )


def past_prefix_instance() -> Instance:
    """An LP whose rows reach past the seeded ratio-order prefix.

    The knapsack fill offers products 0 and 1, so the first restricted LP
    holds the pairs among products 0-2.  Strong substitution (gamma = 0.1)
    makes it answer x_0 = x_3 = 1, which violates the unseeded pair (0, 3);
    the second LP holds every pair and answers x = (.5, .5, .5, .5, 0).
    """
    return toy_instance([0.0, -0.1, -0.2, -0.3, -0.4], [1.0] * 5, 2.0, gamma=0.1)


def short_fold_instance() -> Instance:
    """An LP whose first solve leaves a folded pair short of x_i + x_j >= 1.

    The knapsack fill takes products 4, 3, 1, 2 and 5 whole, in that ratio
    order, so the first restricted LP folds the pair rows among 4, 3, 1 and
    2 into its costs.  It answers x = (1, 0, 0, 1, 1, 1), which leaves the
    folded pair (1, 2) at x_1 + x_2 = 0: products 1 and 2 are unfolded and
    the second LP, with their rows built and (3, 4) still folded, answers
    the integral optimum {0, 1, 3, 4}.
    """
    return toy_instance(
        [0.4, -0.1, -0.2, 0.0, 0.2, -0.2], [2.0, 1.0, 1.0, 1.0, 1.0, 1.0], 5.0,
        gamma=np.array([0.1, 1.0, 1.0, 1.0, 0.1, 0.01, 1.0, 0.5, 1.0, 0.1, 0.01, 0.1, 0.5,
                        0.1, 1.0]),
    )


ROUNDING_ALPHA = [0.7941753543516898, 0.9094543345306465, 0.38507782627873977,
                  0.8730852124899648, 0.9999404287230818, 0.6905938922266335,
                  -0.9666909818273628]
ROUNDING_CENTS = [154, 162, 71, 99, 24, 186, 79]


def rounding_capacity_instance(scale=1.0) -> Instance:
    """Decimal weights whose running sum over products 1-4, as greedy adds
    them, is C = 3.56 while their dot is 3.5600000000000005 > C: that
    over-capacity assortment has A = 46.733, above the optimum 45.327 of
    products {0, 2, 3, 4}.  ``scale`` multiplies the weights and C."""
    return toy_instance(ROUNDING_ALPHA, [c / 100 * scale for c in ROUNDING_CENTS],
                        3.56 * scale, gamma=0.5)


def attained_tie_instance() -> Instance:
    """n = 9 with two optima an ulp apart: {3, 5, 7, 8} at A =
    346.0829810403911, and {3, 4, 5, 8} one ulp below.  Searched from the
    empty assortment, an integral fill reaches {3, 4, 5, 8} first and
    attains its majorant to a 1e-9 slack, so a search that closes such a
    subtree never finds the better one."""
    gamma = np.full(pair_count(9), 1e-310)
    gamma[[0, 2, 6, 7, 9, 12, 13, 14, 19, *range(21, 28), *range(29, 34), 35]] = 1.0
    return toy_instance([0.0, 0.0, 0.1, 0.1, 0.1, 3.6875, 0.1, 0.1, 0.1],
                        [0.1, 0.1, 0.1, 0.125, 0.1, 1.0, 1.0, 0.1, 0.1],
                        1.3250000000000002, gamma=gamma)


def assert_matches_all_pairs_lp(instance: Instance, value: float):
    """Assert that value is the LP relaxation's optimum to 1e-12, as one
    linprog call holding every pair row (n <= 25) brackets it: an oracle
    for lp_relaxation's row generation.

    The bracket is HiGHS's objective below and the weak-duality bound of its
    duals (u'b plus the positive reduced costs) above.  They agree to
    rounding when HiGHS converges; when it stops on a reduced cost below
    its tolerance, the objective falls short of the optimum and the dual
    bound stays above it.
    """
    n, m = instance.n, pair_count(instance.n)
    assert n <= 25
    coeffs = coefficients(instance)
    cost = -np.concatenate([coeffs.lin_costs, coeffs.mu])
    scale = np.abs(cost).max()  # HiGHS needs costs near 1
    rows = np.arange(1, m + 1)
    a_ub = np.zeros((1 + m, n + m))
    a_ub[0, :n] = instance.weights
    I, J = pair_members(n)
    a_ub[rows, I] = 1.0
    a_ub[rows, J] = 1.0
    a_ub[rows, n + np.arange(m)] = -1.0
    b_ub = np.concatenate([[instance.capacity], np.ones(m)])
    res = linprog(
        cost / scale, A_ub=a_ub, b_ub=b_ub, bounds=(0, 1), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    u = np.maximum(0.0, -res.ineqlin.marginals)
    primal = -res.fun * scale
    dual = (u @ b_ub + np.maximum(0.0, -cost / scale - a_ub.T @ u).sum()) * scale
    assert primal * (1 - 1e-12) <= value <= dual * (1 + 1e-12), (value, primal, dual)


def linearized_milp(instance: Instance) -> tuple[float, np.ndarray]:
    """(optimum, x) of the linearized program as a MILP that scipy's HiGHS
    branch and cut solves: binary x, and y in [0, 1] on every pair with
    mu < 0,

        max  (n-1) theta'x + mu'y   s.t.  w'x <= C,  x_i + x_j - y_ij <= 1,

    with the matrix sparse.  A third oracle for branch_and_bound, sharing
    none of its bounds or search.  The costs are scaled to a largest of 1,
    as HiGHS needs; the optimum is unscaled."""
    n = instance.n
    I, J = pair_members(n)
    coeffs = coefficients(instance)
    pairs = np.flatnonzero(coeffs.mu < 0.0)
    p = pairs.size
    cost = -np.concatenate([coeffs.lin_costs, coeffs.mu[pairs]])
    scale = np.abs(cost).max()
    # row 0 is the capacity row; row 1 + k the pair row of pairs[k]
    rows = np.concatenate([np.zeros(n, dtype=int), np.repeat(np.arange(1, p + 1), 3)])
    cols = np.concatenate([np.arange(n), np.stack(
        [I[pairs], J[pairs], n + np.arange(p)], axis=1).ravel()])
    vals = np.concatenate([instance.weights, np.tile([1.0, 1.0, -1.0], p)])
    a_ub = sp.csr_array((vals, (rows, cols)), shape=(1 + p, n + p))
    b_ub = np.concatenate([[instance.capacity], np.ones(p)])
    res = milp(cost / scale, constraints=LinearConstraint(a_ub, -np.inf, b_ub),
               integrality=np.concatenate([np.ones(n), np.zeros(p)]), bounds=Bounds(0.0, 1.0),
               options={"mip_rel_gap": 0.0})
    assert res.success, res.message
    return -res.fun * scale, np.round(res.x[:n]).astype(np.int8)


def random_instance(seed, n=None, kappa=None, beta=0.1) -> Instance:
    """Random instance from the benchmark distributions, with optional overrides."""
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(4, 16))
    if kappa is None:
        kappa = float(rng.uniform(0.05, 0.5))
    return generate_instance(
        GeneratorConfig(n=n, kappa=kappa, seed=int(rng.integers(2**63)), beta=beta)
    )


def random_feasible_assortment(instance, rng) -> np.ndarray:
    """Random feasible x: random ratio-free greedy fill in shuffled order."""
    order = rng.permutation(instance.n)
    x = np.zeros(instance.n, dtype=np.int8)
    remaining = instance.capacity
    for k in order:
        if rng.random() < 0.7 and instance.weights[k] <= remaining:
            x[k] = 1
            remaining -= instance.weights[k]
    return x


def dense_mu(instance):
    """The symmetric n x n mu matrix with zero diagonal, scattered from the
    coefficients over pair_members: the reference the mu blocks and the
    local search's bookkeeping are checked against."""
    n = instance.n
    I, J = pair_members(n)
    mu = coefficients(instance).mu
    mat = np.zeros((n, n))
    mat[I, J] = mu
    mat[J, I] = mu
    return mat


def reference_fractional_knapsack(values, weights, capacity):
    """The fractional knapsack from first principles: a lexsort of every
    plain -value/weight quotient, ties to the smaller index, and a fill
    over numpy scalars.  An oracle for exact._fractional_knapsack, whose
    ratio_key scales those quotients, wherever they are finite and normal:
    there it must return the same (optimum, fill) bit for bit."""
    m = values.size
    fill = np.zeros(m)
    if m == 0 or capacity <= 0:
        return 0.0, fill
    order = np.lexsort((np.arange(m), -values / weights))
    total = 0.0
    remaining = capacity
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
