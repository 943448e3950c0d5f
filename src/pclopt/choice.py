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

A nest with no offered product is never chosen and one with a single
offered product sells only that product, so the distribution is built on
the offered set S in O(|S|^2 + n).  The simulator counts trials rather than
drawing them one by one: one multinomial draw over the products and
no-purchase, whatever the number of trials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance, pair_positions, validate_assortment, validate_prices


def log_nest_value(a_i: np.ndarray, a_j: np.ndarray, gam: np.ndarray) -> np.ndarray:
    """log (e^(a_i/gam) + e^(a_j/gam))^gam per pair, as
    max(a_i, a_j) + gam log1p(exp(-|a_i - a_j| / gam)).

    Works in place (4 MB per pair array at n = 1000): a_i is overwritten.
    Where the CPU has AVX-512, numpy runs float64 exp and log1p as SIMD
    code whose last bits can differ from libm's (and so from
    logaddexp(0, .)); at n = 1000 about 1.5% of the mu entries built from
    this move by ulps of rho.  Elsewhere both are libm's, bit for bit.
    """
    with np.errstate(over="ignore"):  # a / gam would overflow at tiny gam
        log_v = np.abs(a_i - a_j) / -gam
    np.exp(log_v, out=log_v)
    np.log1p(log_v, out=log_v)
    log_v *= gam
    log_v += np.maximum(a_i, a_j, out=a_i)
    return log_v


@dataclass
class ChoiceDistribution:
    """Per-product purchase probabilities plus the no-purchase probability."""

    product_probs: np.ndarray
    no_purchase: float


def choice_probabilities(instance: Instance, prices, x) -> ChoiceDistribution:
    """Purchase probabilities q_i and no-purchase probability q_0.

    Only the nests holding an offered product count, grouped on the offered
    set S as ``a_value`` groups A(x): each offered product k has n - |S|
    nests with a left-out partner, worth e^(a_k) each and bought as k, and
    each offered pair is one nest, split by its within-nest shares.  O(|S|^2
    + n).  x does not have to be feasible; an empty assortment yields q_0 = 1.
    """
    prices = validate_prices(instance, prices)
    x = validate_assortment(instance, x)
    n = instance.n
    u = instance.alpha - instance.beta * prices
    offered = np.flatnonzero(x)
    pos, i, j = pair_positions(offered, n)
    gam = instance.gamma_upper[pos]
    with np.errstate(over="ignore"):  # 1 / (1 + inf) = 0 is the right share
        share_i = 1.0 / (1.0 + np.exp((u[j] - u[i]) / gam))
    log_pair = log_nest_value(u[i], u[j], gam)
    # a nest is worth at least its best member, so this is the largest log
    # nest value, or 0 when that is negative
    u_offered = u[offered]
    shift = max(u_offered.max(initial=0.0), log_pair.max(initial=0.0))
    single = np.exp(u_offered - shift) * (n - offered.size)
    pair = np.exp(log_pair - shift)
    outside = np.exp(-shift)  # the no-purchase option's value, on the same scale
    denom = outside + single.sum() + pair.sum()
    probs = np.bincount(np.concatenate((offered, i, j)),
                        weights=np.concatenate((single, pair * share_i, pair * (1.0 - share_i))),
                        minlength=n)
    return ChoiceDistribution(product_probs=probs / denom, no_purchase=float(outside / denom))


def expected_revenue(instance: Instance, prices, x) -> float:
    """Expected revenue sum_i p_i q_i(p, x)."""
    prices = validate_prices(instance, prices)
    dist = choice_probabilities(instance, prices, x)
    return float(np.dot(prices, dist.product_probs))


def simulate_choice(
    instance: Instance, prices, x, rng_seed: int, trials: int
) -> ChoiceDistribution:
    """Empirical choice frequencies of ``trials`` customers.

    Each customer takes the no-purchase outcome or a nest according to
    (q_0, q^ij), then a product within the nest according to q_i^ij.  The
    draws are counted rather than made one by one: the counts of (q_1, ...,
    q_n, q_0) are one multinomial draw, which is the joint distribution of
    the two-stage draw's outcomes summed per product.  Time and memory are
    O(|S|^2 + n) whatever ``trials`` is, up to 2^63 - 1.  Deterministic for
    a fixed seed.
    """
    if not 1 <= trials < 2**63:  # the counts are int64
        raise ValueError("trials must be between 1 and 2^63 - 1")
    dist = choice_probabilities(instance, prices, x)
    outcome_probs = np.append(dist.product_probs, dist.no_purchase)
    # numpy's multinomial hands its last outcome whatever rounding leaves
    # over, so the likeliest goes last and an outcome of probability 0 never
    # gets a count
    shift = outcome_probs.size - 1 - int(np.argmax(outcome_probs))
    rng = np.random.default_rng(rng_seed)
    counts = np.roll(rng.multinomial(trials, np.roll(outcome_probs, shift)), -shift)
    return ChoiceDistribution(counts[:-1] / trials, float(counts[-1] / trials))
