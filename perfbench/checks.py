"""Output checks for benchmark ops.

Each check returns a list of failure messages; an op whose outputs produce
any message is counted as failed.  The oracles here are written against the
paper's formulas, not against pclopt's internals:

* the bound chain greedy_a <= grasp_a <= exact_a <= lp_bound <= majorant_bound;
* the uniform-price revenue identity beta R e^(beta R) = A / e, checked as a
  residual so that it does not depend on ``lambert_w0``;
* an independent ``scipy.optimize.milp`` solve of the linearized program,
  built here from alpha and gamma, for every exact solve that claims
  optimality;
* for evaluate / simulate: probabilities summing to 1, the revenue identity
  at p*, and simulated frequencies within ``SIMULATE_Z`` standard errors.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

# the LP bound carries HiGHS' feasibility tolerance
CHAIN_REL_TOL = 1e-7
IDENTITY_REL_TOL = 1e-9
MILP_REL_TOL = 1e-7
PROB_SUM_TOL = 1e-9
# a standard normal exceeds 6 with probability 2e-9 per product
SIMULATE_Z = 6.0

_CHAIN = ("greedy_a_value", "grasp_a_value", "exact_a_value", "lp_bound", "majorant_bound")
_REVENUE_PAIRS = (
    ("greedy_a_value", "greedy_revenue"),
    ("grasp_a_value", "grasp_revenue"),
    ("exact_a_value", "exact_revenue"),
    ("lp_bound", "revenue_upper_bound"),
)


def revenue_identity_residual(a_value: float, revenue: float, beta: float) -> float:
    """Relative residual of beta R e^(beta R) = A / e."""
    target = a_value / math.e
    w = beta * revenue
    return abs(w * math.exp(w) - target) / max(1.0, target)


def check_solve_record(record: dict, beta: float) -> list[str]:
    """Bound chain and revenue identity of one bench log record; a missing
    field raises KeyError."""
    problems = []
    for low, high in zip(_CHAIN, _CHAIN[1:]):
        a, b = record[low], record[high]
        if not a <= b + CHAIN_REL_TOL * max(1.0, abs(b)):
            problems.append(f"bound chain broken: {low}={a!r} > {high}={b!r}")
    for a_key, r_key in _REVENUE_PAIRS:
        residual = revenue_identity_residual(record[a_key], record[r_key], beta)
        if not residual <= IDENTITY_REL_TOL:
            problems.append(f"revenue identity fails for {r_key}: residual {residual:.3g}")
    return problems


def linearized_milp_optimum(alpha, gamma_upper, weights, capacity) -> float:
    """max A(x) s.t. w.x <= C, as a MILP over x and the pair products y.

    A(x) = sum_{i<j} mu_ij x_i x_j + (n-1) sum theta_i x_i with theta = e^alpha,
    rho_ij = (e^(alpha_i/g) + e^(alpha_j/g))^g and mu_ij = rho_ij - theta_i -
    theta_j <= 0, so y_ij >= x_i + x_j - 1 with y >= 0 is tight at the optimum.
    """
    alpha = np.asarray(alpha, dtype=float)
    n = alpha.size
    I, J = np.triu_indices(n, k=1)
    theta = np.exp(alpha)
    rho = np.exp(gamma_upper * np.logaddexp(alpha[I] / gamma_upper, alpha[J] / gamma_upper))
    mu = np.minimum(rho - theta[I] - theta[J], 0.0)
    pairs = np.flatnonzero(mu < 0)
    p = pairs.size
    cost = np.concatenate([-(n - 1) * theta, -mu[pairs]])
    rows = np.repeat(np.arange(p), 3)
    cols = np.stack([I[pairs], J[pairs], n + np.arange(p)], axis=1).ravel()
    pair_rows = sp.csr_matrix((np.tile([1.0, 1.0, -1.0], p), (rows, cols)), shape=(p, n + p))
    knapsack = sp.csr_matrix(np.concatenate([weights, np.zeros(p)])[None, :])
    result = milp(
        cost,
        constraints=[
            LinearConstraint(pair_rows, -np.inf, 1.0),
            LinearConstraint(knapsack, -np.inf, capacity),
        ],
        integrality=np.concatenate([np.ones(n), np.zeros(p)]),
        bounds=Bounds(0.0, 1.0),
        options={"mip_rel_gap": 0.0},
    )
    if not result.success:
        raise RuntimeError(f"milp oracle failed: {result.message}")
    return -float(result.fun)


def check_against_milp(record: dict, instance) -> list[str]:
    """An `optimal` exact A must match the MILP optimum of the same instance."""
    if record["exact_status"] != "optimal":
        return []
    oracle = linearized_milp_optimum(
        instance.alpha, instance.gamma_upper, instance.weights, instance.capacity
    )
    exact = record["exact_a_value"]
    if abs(exact - oracle) > MILP_REL_TOL * max(1.0, abs(oracle)):
        return [f"optimal exact A {exact!r} differs from milp optimum {oracle!r}"]
    return []


def check_evaluate(output: dict, a_value: float, beta: float) -> list[str]:
    """q0 + sum q = 1 and R(p*) = W(A/e)/beta for one `evaluate` output."""
    problems = []
    total = output["no_purchase"] + math.fsum(output["product_probs"])
    if abs(total - 1.0) > PROB_SUM_TOL:
        problems.append(f"probabilities sum to {total!r}")
    residual = revenue_identity_residual(a_value, output["expected_revenue"], beta)
    if not residual <= IDENTITY_REL_TOL:
        problems.append(f"expected revenue at p* breaks the identity: residual {residual:.3g}")
    return problems


def check_simulate(output: dict, evaluate_output: dict, trials: int) -> list[str]:
    """Simulated frequencies within SIMULATE_Z standard errors of q."""
    if output["trials"] != trials:
        return [f"simulate ran {output['trials']} trials, asked {trials}"]
    q = np.array(evaluate_output["product_probs"] + [evaluate_output["no_purchase"]])
    f = np.array(output["product_freqs"] + [output["no_purchase_freq"]])
    stderr = np.sqrt(np.clip(q * (1.0 - q), 0.0, None) / trials)
    worst = np.abs(f - q) - SIMULATE_Z * stderr
    if np.any(worst > 1e-12):
        k = int(np.argmax(worst))
        return [f"simulated frequency {f[k]!r} is more than {SIMULATE_Z} standard "
                f"errors from q={q[k]!r} (outcome {k})"]
    return []
