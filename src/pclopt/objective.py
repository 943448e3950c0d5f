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

import math
from dataclasses import dataclass

import numpy as np

from .choice import log_nest_value
from .instance import Instance, pair_position, pair_positions, validate_assortment

# ratio_key orders exactly every value down to 2^-_RATIO_KEY_BITS of the
# largest; the ratios of smaller ones may tie or misorder among themselves,
# which moves a knapsack fill by under n 2^-64 of its value
_RATIO_KEY_BITS = 64


@dataclass
class LinearizedCoefficients:
    """theta per product, mu = rho - theta_i - theta_j per pair, and
    lin_costs = (n-1) theta, the regrouped linear part of the program.

    mu is held once, in the instance's pair storage order; ``mu_matrix``
    gathers the dense blocks that the searches read from it."""

    theta: np.ndarray
    mu: np.ndarray
    lin_costs: np.ndarray

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

    def mu_matrix(self, n: int, rows, cols) -> np.ndarray:
        """The block mu[rows][:, cols] of the symmetric mu matrix with zero
        diagonal, gathered from the pair storage; nothing is cached."""
        rows, cols = np.asarray(rows, np.intp)[:, None], np.asarray(cols, np.intp)[None, :]
        lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
        block = self.mu[pair_position(n, lo, hi)]
        block[lo == hi] = 0.0
        return block


def coefficients(instance: Instance) -> LinearizedCoefficients:
    """The instance's coefficients, built on first use and cached on it.

    They depend on alpha and gamma_upper only, which must not be changed
    once an instance is in use.
    """
    if instance._coefficients is None:
        instance._coefficients = LinearizedCoefficients.from_instance(instance)
    return instance._coefficients


def weight_exponents(weights) -> tuple[int, int]:
    """The binary exponents (of ``math.frexp``) of the smallest and the
    largest weight: the part of ``ratio_key`` that a caller keying many
    subsets of one weight vector takes once."""
    return math.frexp(float(weights.min()))[1], math.frexp(float(weights.max()))[1]


def ratio_key(values, weights, exponents=None) -> np.ndarray:
    """Sort key of the value/weight ratio order, best ratio first:
    -values / weights for nonempty, nonnegative values, scaled by a power
    of two 2^s.

    s is 0, the plain quotient, unless that could overflow or could round
    the ratio of a value within 2^-_RATIO_KEY_BITS of the largest to a
    subnormal or zero key; then s is the power nearest 0 that prevents
    both.  A power-of-two scale is exact and keeps the rounding of every
    normal quotient, so the order is that of the exact ratios wherever the
    keys are normal.  ``exponents`` is ``weight_exponents`` of ``weights``
    or of any vector holding them.  Raises OverflowError when the weights
    span more than 2^(2043 - _RATIO_KEY_BITS), which no single scale serves.
    """
    e_wmin, e_wmax = weight_exponents(weights) if exponents is None else exponents
    # the ufunc's own reduce skips the Python-level wrapper of values.max(),
    # a fixed cost paid once per branch-and-bound node
    e_v = math.frexp(float(np.maximum.reduce(values)))[1]
    # a key below 2^(e_v + s - e_wmin + 1) rounds to at most 2^1023, and
    # the scaled values stay below 2^1024
    s_hi = min(1022 + e_wmin, 1024) - e_v
    # a value of 2^(e_v - 1 - bits) over a weight below 2^e_wmax keys to 2^-1022
    s_lo = e_wmax - e_v + _RATIO_KEY_BITS - 1021
    if s_lo > s_hi:
        raise OverflowError("the weights span too wide a range to order value/weight ratios")
    s = min(max(0, s_lo), s_hi)
    return (np.ldexp(values, s) if s else values) / -weights


def ratio_order(values, weights, exponents=None) -> np.ndarray:
    """Item indices by value/weight descending, ties to the smaller index:
    the order of the knapsack fills (lin_costs) and the heuristics (theta).
    ``exponents`` is passed on to ``ratio_key``."""
    return ratio_key(values, weights, exponents).argsort(kind="stable")


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

