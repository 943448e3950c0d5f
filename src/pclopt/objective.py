"""The assortment surrogate objective A(x) and its exact linearization.

A(x) sums one term per unordered pair:

    A(x) = sum over i<j of (exp(alpha_i/gamma_ij) x_i + exp(alpha_j/gamma_ij) x_j)^gamma_ij

Each pair term takes one of four values depending on which members are
offered: rho_ij (both), theta_i or theta_j (one), or 0 (none), where

    theta_i = exp(alpha_i)
    rho_ij  = (exp(alpha_i/gamma_ij) + exp(alpha_j/gamma_ij))^gamma_ij

With mu_ij = rho_ij - theta_i - theta_j <= 0 this is identically

    A(x) = sum over i<j of (mu_ij x_i x_j + theta_i x_i + theta_j x_j)

which is the quadratic form the exact solver linearizes.  rho is evaluated
in log space without ever forming alpha/gamma, so tiny (even subnormal)
gammas neither overflow nor underflow; pairs with gamma_ij == 1 get
rho = theta_i + theta_j exactly, making mu exactly zero there.

``coefficients(instance)`` builds these arrays once per instance and caches
them on it; every solver, bound and heuristic reads them from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .instance import Instance, validate_assortment


@dataclass
class LinearizedCoefficients:
    """theta per product, rho and mu = rho - theta_i - theta_j per pair, and
    lin_costs = (n-1) theta, the regrouped linear part of the program."""

    theta: np.ndarray
    rho: np.ndarray
    mu: np.ndarray
    lin_costs: np.ndarray
    _mu_matrix: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_instance(cls, instance: Instance) -> "LinearizedCoefficients":
        theta = np.exp(instance.alpha)
        I, J = instance.pair_i, instance.pair_j
        gam = instance.gamma_upper
        a_i, a_j = instance.alpha[I], instance.alpha[J]
        # log rho = max(a_i, a_j) + gam log1p(exp(-|a_i - a_j| / gam)), in place
        # (4 MB per pair array at n = 1000); a / gam would overflow at tiny gam
        with np.errstate(over="ignore"):
            log_rho = np.abs(a_i - a_j) / -gam
        np.logaddexp(0.0, log_rho, out=log_rho)
        log_rho *= gam
        log_rho += np.maximum(a_i, a_j, out=a_i)
        rho = np.exp(log_rho, out=log_rho)
        del a_i, a_j
        unit = gam == 1.0
        rho[unit] = theta[I[unit]] + theta[J[unit]]
        # subadditivity of t -> t^gamma guarantees mu <= 0; clamp log/exp noise
        mu = np.minimum(rho - theta[I] - theta[J], 0.0)
        return cls(theta=theta, rho=rho, mu=mu, lin_costs=(instance.n - 1) * theta)

    def mu_matrix(self, n: int) -> np.ndarray:
        """Dense symmetric mu with zero diagonal, built on first use."""
        if self._mu_matrix is None:
            I, J = np.triu_indices(n, k=1)
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


def a_value(instance: Instance, x) -> float:
    """A(x), the pair-sum objective.  Empty pairs contribute 0."""
    x = validate_assortment(instance, x)
    coeffs = coefficients(instance)
    on = x.astype(bool)
    on_i, on_j = on[instance.pair_i], on[instance.pair_j]
    theta_i = coeffs.theta[instance.pair_i]
    theta_j = coeffs.theta[instance.pair_j]
    terms = np.where(on_i & on_j, coeffs.rho, on_i * theta_i + on_j * theta_j)
    return float(np.sum(terms))


def a_value_linearized(instance: Instance, x) -> float:
    """A(x) through the quadratic identity mu x_i x_j + theta_i x_i + theta_j x_j."""
    x = validate_assortment(instance, x).astype(float)
    coeffs = coefficients(instance)
    xi, xj = x[instance.pair_i], x[instance.pair_j]
    terms = (
        coeffs.mu * xi * xj
        + coeffs.theta[instance.pair_i] * xi
        + coeffs.theta[instance.pair_j] * xj
    )
    return float(np.sum(terms))


def incremental_a_delta(
    instance: Instance, current_x, product_k: int, direction: str
) -> float:
    """A(x') - A(x) for adding or removing one product, in O(n).

    Adding k contributes its mu row against the current assortment plus
    (n-1) theta_k; removal is the exact negation evaluated on the state
    that still contains k.
    """
    x = validate_assortment(instance, current_x).astype(float)
    coeffs = coefficients(instance)
    mu_row = coeffs.mu_matrix(instance.n)[product_k]
    if direction == "add":
        if x[product_k] != 0:
            raise ValueError(f"product {product_k} is already offered")
        return float(mu_row @ x + coeffs.lin_costs[product_k])
    if direction == "remove":
        if x[product_k] != 1:
            raise ValueError(f"product {product_k} is not offered")
        # diagonal of mu is zero, so k's own entry drops out of the dot product
        return float(-(mu_row @ x + coeffs.lin_costs[product_k]))
    raise ValueError("direction must be 'add' or 'remove'")
