"""The assortment surrogate objective A(x) and its exact linearization.

A(x) sums one term per unordered pair:

    A(x) = sum over i<j of (exp(alpha_i/gamma_ij) x_i + exp(alpha_j/gamma_ij) x_j)^gamma_ij

Each pair term takes one of four values depending on which members are
offered: rho_ij (both), theta_i or theta_j (one), or 0 (none), where

    theta_i = exp(alpha_i)
    rho_ij  = (exp(alpha_i/gamma_ij) + exp(alpha_j/gamma_ij))^gamma_ij

With mu_ij = rho_ij - theta_i - theta_j <= 0 this is identically

    A(x) = (n-1) sum_i theta_i x_i + sum over i<j of mu_ij x_i x_j

the quadratic form the exact solver linearizes and ``a_value`` evaluates on
the offered set alone.  rho, the nest value of the choice model at zero
prices, is a step towards mu only: ``choice.log_nest_value`` evaluates it in
log space without forming alpha/gamma, so tiny (even subnormal) gammas
neither overflow nor underflow, and mu is set to exactly zero where
gamma_ij == 1.

``coefficients(instance)`` builds these arrays once per instance and caches
them on it; every solver, bound and heuristic reads them from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .choice import log_nest_value
from .instance import Instance, pair_members, pair_positions, validate_assortment


@dataclass
class LinearizedCoefficients:
    """theta per product, mu = rho - theta_i - theta_j per pair, and
    lin_costs = (n-1) theta, the regrouped linear part of the program."""

    theta: np.ndarray
    mu: np.ndarray
    lin_costs: np.ndarray
    _mu_matrix: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_instance(cls, instance: Instance) -> "LinearizedCoefficients":
        I, J = instance.pair_i, instance.pair_j
        gam = instance.gamma_upper
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
            theta = np.exp(instance.alpha)
            log_rho = log_nest_value(instance.alpha[I], instance.alpha[J], gam)
            rho = np.exp(log_rho, out=log_rho)
            # subadditivity of t -> t^gamma guarantees mu <= 0; clamp log/exp noise
            mu = np.minimum(rho - theta[I] - theta[J], 0.0)
            mu[gam == 1.0] = 0.0  # rho = theta_i + theta_j, without its rounding
            lin_costs = (instance.n - 1) * theta
        if not (np.isfinite(lin_costs).all() and np.isfinite(mu).all()):
            raise OverflowError(f"exp({max(instance.alpha):g}) overflows the float range")
        return cls(theta=theta, mu=mu, lin_costs=lin_costs)

    def mu_matrix(self, n: int) -> np.ndarray:
        """Dense symmetric mu with zero diagonal, built on first use."""
        if self._mu_matrix is None:
            I, J = pair_members(n)
            mat = np.zeros((n, n))
            mat[I, J] = self.mu
            mat[J, I] = self.mu
            self._mu_matrix = mat
        return self._mu_matrix


def coefficients(instance: Instance) -> LinearizedCoefficients:
    """The instance's coefficients, built on first use and cached on it.

    They depend on alpha and gamma_upper only, which must not be changed
    once an instance is in use.
    """
    if instance._coefficients is None:
        instance._coefficients = LinearizedCoefficients.from_instance(instance)
    return instance._coefficients


def ratio_order(values, weights) -> np.ndarray:
    """Item indices by value/weight descending, ties to the smaller index:
    the order of the knapsack fills (lin_costs) and the heuristics (theta)."""
    return np.lexsort((np.arange(values.size), -values / weights))


def a_value(instance: Instance, x) -> float:
    """A(x) from the offered set S alone, in O(|S|^2 + n): the linear part
    (n-1) sum theta_i over S plus mu_ij over the pairs inside S."""
    x = validate_assortment(instance, x)
    coeffs = coefficients(instance)
    offered = np.flatnonzero(x)
    lin = coeffs.lin_costs[offered]
    mu = coeffs.mu[pair_positions(offered, instance.n)[0]]
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite A is refused when priced
        a = lin.sum() + mu.sum()
        if not np.isfinite(a):
            # the linear part is at most 2A, so it may overflow where A
            # does not; halved, neither sum can
            a = 2.0 * (np.ldexp(lin, -1).sum() + np.ldexp(mu, -1).sum())
    return float(a)

