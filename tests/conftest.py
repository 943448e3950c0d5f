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
