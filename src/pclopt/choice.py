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

The simulator counts trials rather than drawing them one by one, so its
cost is O(n^2) whatever the number of trials.
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

    Returns (nest_probs, within_i, no_purchase) where nest_probs[p] is q^ij
    for pair p and within_i[p] is the conditional share of its first member;
    the second takes the rest.
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

    shift = max(0.0, float(log_nest.max()))
    nest_vals = np.exp(log_nest - shift)
    outside = np.exp(-shift)  # the no-purchase option's value, on the same scale
    denom = outside + nest_vals.sum()
    return nest_vals / denom, within_i, float(outside / denom)


def choice_probabilities(instance: Instance, prices, x) -> ChoiceDistribution:
    """Purchase probabilities q_i and no-purchase probability q_0.

    x does not have to be feasible; an empty assortment yields q_0 = 1.
    """
    prices = validate_prices(instance, prices)
    x = validate_assortment(instance, x)
    nest_probs, within_i, no_purchase = _pair_quantities(instance, prices, x)
    I, J = instance.pair_i, instance.pair_j
    probs = np.bincount(I, weights=nest_probs * within_i, minlength=instance.n)
    probs += np.bincount(J, weights=nest_probs * (1.0 - within_i), minlength=instance.n)
    return ChoiceDistribution(product_probs=probs, no_purchase=no_purchase)


def expected_revenue(instance: Instance, prices, x) -> float:
    """Expected revenue sum_i p_i q_i(p, x)."""
    prices = validate_prices(instance, prices)
    dist = choice_probabilities(instance, prices, x)
    return float(np.dot(prices, dist.product_probs))


def simulate_choice(
    instance: Instance, prices, x, rng_seed: int, trials: int
) -> ChoiceDistribution:
    """Empirical choice frequencies of ``trials`` two-stage draws.

    Each customer first takes the no-purchase outcome or a nest according to
    (q_0, q^ij), then a product within the nest according to q_i^ij.  The
    draws are counted rather than made one by one: the outcome counts are
    one multinomial draw, and each nest's split between its two products is
    one binomial draw, which gives the counts the same joint distribution.
    Time and memory are O(n^2) whatever ``trials`` is, up to 2^63 - 1.
    Deterministic for a fixed seed.
    """
    if not 1 <= trials < 2**63:  # the counts are int64
        raise ValueError("trials must be between 1 and 2^63 - 1")
    prices = validate_prices(instance, prices)
    x = validate_assortment(instance, x)
    nest_probs, within_i, no_purchase = _pair_quantities(instance, prices, x)
    outcome_probs = np.concatenate((nest_probs, [no_purchase]))
    # numpy's multinomial hands its last outcome whatever rounding leaves
    # over, so the likeliest goes last and an outcome of probability 0 never
    # gets a count
    shift = outcome_probs.size - 1 - int(np.argmax(outcome_probs))
    rng = np.random.default_rng(rng_seed)
    counts = np.roll(rng.multinomial(trials, np.roll(outcome_probs, shift)), -shift)
    took_i = rng.binomial(counts[:-1], within_i)
    sold = np.bincount(instance.pair_i, weights=took_i, minlength=instance.n)
    sold += np.bincount(instance.pair_j, weights=counts[:-1] - took_i, minlength=instance.n)
    return ChoiceDistribution(sold / trials, float(counts[-1] / trials))
