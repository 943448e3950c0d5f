import numpy as np
import pytest

from pclopt import (
    GeneratorConfig,
    Instance,
    LinearizedCoefficients,
    generate_instance,
    pair_count,
)


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
