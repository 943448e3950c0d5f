"""Paired combinatorial logit choice probabilities, revenue, and simulation.

Every unordered pair of products forms a two-product nest with dissimilarity
gamma_ij.  Given prices p and offer vector x, with preference weights
v_i = exp(alpha_i - beta p_i):

    V_ij   = v_i^(1/gamma_ij) x_i + v_j^(1/gamma_ij) x_j
    q^ij   = V_ij^gamma_ij / (1 + sum over pairs of V^gamma)
    q_i^ij = v_i^(1/gamma_ij) x_i / V_ij          (0 when the nest is empty)
    q_i    = sum over pairs containing i of q^ij q_i^ij
    q_0    = 1 / (1 + sum over pairs of V^gamma)

At zero prices the pair sum of V^gamma is the objective A(x), and the
objective's pair coefficients and these probabilities both take log V^gamma
from ``log_nest_value``, which never forms alpha/gamma.  The probabilities
are normalized against the largest log nest value, so tiny (even subnormal)
gammas and large utilities neither overflow nor underflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance, validate_assortment, validate_prices


def log_nest_value(a_i: np.ndarray, a_j: np.ndarray, gam: np.ndarray) -> np.ndarray:
    """log (e^(a_i/gam) + e^(a_j/gam))^gam per pair, as
    max(a_i, a_j) + gam log1p(exp(-|a_i - a_j| / gam)).

    Works in place (4 MB per pair array at n = 1000): a_i is overwritten.
    """
    with np.errstate(over="ignore"):  # a / gam would overflow at tiny gam
        log_v = np.abs(a_i - a_j) / -gam
    np.logaddexp(0.0, log_v, out=log_v)
    log_v *= gam
    log_v += np.maximum(a_i, a_j, out=a_i)
    return log_v


@dataclass
class ChoiceDistribution:
    """Per-product purchase probabilities plus the no-purchase probability."""

    product_probs: np.ndarray
    no_purchase: float


def _pair_quantities(instance: Instance, prices: np.ndarray, x: np.ndarray):
    """Per-pair nest probabilities and within-nest shares.

    Returns (nest_probs, within_i, within_j, no_purchase) where nest_probs[p]
    is q^ij for pair p and within_i/within_j are the conditional shares of
    the two members (both zero when the nest offers nothing).
    """
    I, J = instance.pair_i, instance.pair_j
    a = instance.alpha - instance.beta * prices
    on = x.astype(bool)
    on_i, on_j = on[I], on[J]
    log_nest = np.where(on_i, a[I], np.where(on_j, a[J], -np.inf))
    within_i = on_i.astype(float)
    both = np.flatnonzero(on_i & on_j)
    a_i, a_j, gam = a[I[both]], a[J[both]], instance.gamma_upper[both]
    with np.errstate(over="ignore"):  # 1 / (1 + inf) = 0 is the right share
        within_i[both] = 1.0 / (1.0 + np.exp((a_j - a_i) / gam))
    log_nest[both] = log_nest_value(a_i, a_j, gam)
    within_j = np.where(on_i | on_j, 1.0 - within_i, 0.0)

    shift = max(0.0, float(log_nest.max()))
    nest_vals = np.exp(log_nest - shift)
    outside = np.exp(-shift)  # the no-purchase option's value, on the same scale
    denom = outside + nest_vals.sum()
    return nest_vals / denom, within_i, within_j, float(outside / denom)


def choice_probabilities(instance: Instance, prices, x) -> ChoiceDistribution:
    """Purchase probabilities q_i and no-purchase probability q_0.

    x does not have to be feasible; an empty assortment yields q_0 = 1.
    """
    prices = validate_prices(instance, prices)
    x = validate_assortment(instance, x)
    nest_probs, within_i, within_j, no_purchase = _pair_quantities(instance, prices, x)
    I, J = instance.pair_i, instance.pair_j
    probs = np.bincount(I, weights=nest_probs * within_i, minlength=instance.n)
    probs += np.bincount(J, weights=nest_probs * within_j, minlength=instance.n)
    return ChoiceDistribution(product_probs=probs, no_purchase=no_purchase)


def expected_revenue(instance: Instance, prices, x) -> float:
    """Expected revenue sum_i p_i q_i(p, x)."""
    prices = validate_prices(instance, prices)
    dist = choice_probabilities(instance, prices, x)
    return float(np.dot(prices, dist.product_probs))


def simulate_choice(
    instance: Instance, prices, x, rng_seed: int, trials: int
) -> ChoiceDistribution:
    """Empirical choice frequencies from two-stage sampling.

    Each trial first draws the no-purchase outcome or a nest according to
    (q_0, q^ij), then a product within the drawn nest according to q_i^ij.
    Deterministic for a fixed seed.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    prices = validate_prices(instance, prices)
    x = validate_assortment(instance, x)
    nest_probs, within_i, _, no_purchase = _pair_quantities(instance, prices, x)

    outcome_probs = np.concatenate(([no_purchase], nest_probs))

    rng = np.random.default_rng(rng_seed)
    outcomes = rng.choice(outcome_probs.size, size=trials, p=outcome_probs)
    uniforms = rng.random(trials)

    bought = outcomes > 0
    pair_ids = outcomes[bought] - 1
    take_i = uniforms[bought] < within_i[pair_ids]
    products = np.where(
        take_i, instance.pair_i[pair_ids], instance.pair_j[pair_ids]
    )
    counts = np.bincount(products, minlength=instance.n).astype(float)
    return ChoiceDistribution(
        product_probs=counts / trials,
        no_purchase=float(np.count_nonzero(~bought)) / trials,
    )
