"""Problem data for capacitated assortment optimization with pricing.

An instance holds n products with quality constants alpha_i, display weights
w_i, a capacity limit C, a single price-sensitivity beta, and one
dissimilarity parameter gamma_ij in (0, 1] per unordered product pair.
Pairs are stored once, in row-major upper-triangular order:

    (0,1), (0,2), ..., (0,n-1), (1,2), ..., (n-2,n-1)

so pair (i, j) with i < j lives at index i*n - i*(i+1)/2 + (j - i - 1).

Assortments are plain 0/1 integer vectors; prices are nonnegative float
vectors.  Both are validated by helpers here rather than wrapped in classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

# weight sums this close to the capacity (relative) may round either side of
# it depending on the summation order; fits_capacity lets is_feasible decide
_CAPACITY_REL_TOL = 1e-12


class ValidationError(ValueError):
    """Input data violates the documented schema.

    ``path`` points at the offending field (e.g. ``"gamma_upper[3]"``) so
    command-line callers can emit machine-readable errors.
    """

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path


def pair_count(n: int) -> int:
    """Number of unordered product pairs."""
    return n * (n - 1) // 2


def pair_position(n: int, i, j):
    """Storage position i*n - i*(i+1)/2 + (j - i - 1) of pair (i, j), i < j,
    elementwise; at i == j it is still an index, -1 up to pair_count - 1."""
    return i * (2 * n - 3 - i) // 2 + j - 1


def pair_index(n: int, i: int, j: int) -> int:
    """Position of unordered pair {i, j} in the upper-triangular layout."""
    if i == j:
        raise ValueError("pair requires two distinct products")
    return int(pair_position(n, min(i, j), max(i, j)))


def pair_members(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (I, J) with the endpoints of every pair, in storage order."""
    return np.triu_indices(n, k=1)


def pair_positions(products: np.ndarray, n: int):
    """Storage positions and endpoints (i < j) of every pair among the
    distinct ``products``, in storage order if they are sorted; O(m^2) in
    the m products given."""
    a, b = np.nonzero(np.less.outer(products, products))
    i, j = products[a], products[b]
    return pair_position(n, i, j), i, j


def _is_real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _as_real(value, name: str) -> float:
    """A real scalar as a float; strings, booleans and ints beyond the float range are refused."""
    if not _is_real(value):
        raise ValidationError(f"{name} must be a real number", name)
    try:
        return float(value)
    except OverflowError as exc:
        raise ValidationError(f"{name} is beyond the float range", name) from exc


def _as_float_array(value, name: str, length: int | None = None) -> np.ndarray:
    """``value`` as a float vector, converted once from the dtype numpy
    infers, which must be integer or float (a string anywhere infers
    string, and only booleans infer bool), with every entry in the float
    range.  Entries are checked one by one only where numpy infers objects
    (an int beyond int64): a boolean among numbers passes, as checking each
    entry of a 499,500-entry gamma_upper costs several times its conversion."""
    try:
        arr = np.asarray(value)
        kind = arr.dtype.kind
        if not (kind in "iuf" or kind == "O" and all(map(_is_real, arr.flat))):
            raise TypeError(f"an array of dtype kind {kind!r} holds no reals")
        arr = arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} must be an array of reals in the float range", name) from exc
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional", name)
    if length is not None and arr.shape[0] != length:
        raise ValidationError(
            f"{name} must have length {length}, got {arr.shape[0]}", name
        )
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise ValidationError(f"{name}[{bad}] is not finite", f"{name}[{bad}]")
    return arr


@dataclass
class Instance:
    """One problem instance: products, weights, capacity, beta, pair gammas."""

    n: int
    alpha: np.ndarray
    weights: np.ndarray
    capacity: float
    beta: float
    gamma_upper: np.ndarray
    pair_i: np.ndarray = field(init=False, repr=False, compare=False)
    pair_j: np.ndarray = field(init=False, repr=False, compare=False)
    # LinearizedCoefficients, filled by pclopt.objective.coefficients
    _coefficients: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ValidationError("n must be an integer", "n")
        self.n = int(self.n)
        if self.n < 2:
            raise ValidationError("n must be at least 2 (pairs required)", "n")
        self.alpha = _as_float_array(self.alpha, "alpha", self.n)
        self.weights = _as_float_array(self.weights, "weights", self.n)
        if np.any(self.weights <= 0):
            bad = int(np.flatnonzero(self.weights <= 0)[0])
            raise ValidationError("weights must be positive", f"weights[{bad}]")
        self.capacity = _as_real(self.capacity, "capacity")
        if not np.isfinite(self.capacity) or self.capacity <= 0:
            raise ValidationError("capacity must be positive", "capacity")
        self.beta = _as_real(self.beta, "beta")
        if not np.isfinite(self.beta) or self.beta <= 0:
            raise ValidationError("beta must be positive", "beta")
        self.gamma_upper = _as_float_array(
            self.gamma_upper, "gamma_upper", pair_count(self.n)
        )
        if np.any((self.gamma_upper <= 0) | (self.gamma_upper > 1)):
            bad = int(
                np.flatnonzero((self.gamma_upper <= 0) | (self.gamma_upper > 1))[0]
            )
            raise ValidationError(
                "gamma values must lie in (0, 1]", f"gamma_upper[{bad}]"
            )
        self.pair_i, self.pair_j = pair_members(self.n)

    def gamma(self, i: int, j: int) -> float:
        """Dissimilarity parameter of the pair {i, j}."""
        return float(self.gamma_upper[pair_index(self.n, i, j)])

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "alpha": self.alpha.tolist(),
            "weights": self.weights.tolist(),
            "capacity": self.capacity,
            "beta": self.beta,
            "gamma_upper": self.gamma_upper.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Instance":
        if not isinstance(data, dict):
            raise ValidationError("instance document must be a JSON object", "")
        required = ["n", "alpha", "weights", "capacity", "beta", "gamma_upper"]
        for key in required:
            if key not in data:
                raise ValidationError(f"missing field {key!r}", key)
        unknown = set(data) - set(required)
        if unknown:
            key = sorted(unknown)[0]
            raise ValidationError(f"unknown field {key!r}", key)
        return cls(**data)


def validate_assortment(instance: Instance, x: Iterable) -> np.ndarray:
    """Coerce x to a 0/1 integer vector of length n.  A list holding a
    boolean is refused, as ``validate_prices`` refuses one."""
    if isinstance(x, (list, tuple)) and any(isinstance(v, (bool, np.bool_)) for v in x):
        raise ValidationError("assortment entries must be 0 or 1, not booleans", "assortment")
    try:
        arr = np.asarray(x)
    except ValueError as exc:  # a ragged nested list
        raise ValidationError("assortment must be a flat vector", "assortment") from exc
    if arr.shape != (instance.n,):
        raise ValidationError(
            f"assortment must have length {instance.n}", "assortment"
        )
    if not ((arr == 0) | (arr == 1)).all():
        bad = int(np.flatnonzero((arr != 0) & (arr != 1))[0])
        raise ValidationError("assortment entries must be 0 or 1", f"assortment[{bad}]")
    return arr.astype(np.int8)


def validate_prices(instance: Instance, p: Iterable) -> np.ndarray:
    """Coerce p to a nonnegative float vector of length n.  A boolean among
    numbers is refused: n entries are cheap to check one by one."""
    if isinstance(p, (list, tuple)) and any(isinstance(v, (bool, np.bool_)) for v in p):
        raise ValidationError("prices must be an array of reals", "prices")
    arr = _as_float_array(p, "prices", instance.n)
    if np.any(arr < 0):
        bad = int(np.flatnonzero(arr < 0)[0])
        raise ValidationError("prices must be nonnegative", f"prices[{bad}]")
    return arr


def total_weight(instance: Instance, x) -> float:
    x = validate_assortment(instance, x)
    return float(np.dot(instance.weights, x.astype(float)))


def is_feasible(instance: Instance, x) -> bool:
    """Capacity check: sum of offered weights does not exceed C."""
    return total_weight(instance, x) <= instance.capacity


def fits_capacity(instance: Instance, loads, assortment):
    """The capacity rule of every solver that sums weights its own way:
    ``loads``, one such sum or an array of them, decide, except within
    _CAPACITY_REL_TOL * C of C, where is_feasible's dot over
    ``assortment(k)``, the 0/1 vector behind the k-th (0 for one sum),
    decides.  So what a solver returns always passes is_feasible."""
    capacity = instance.capacity
    band = _CAPACITY_REL_TOL * capacity
    if not isinstance(loads, np.ndarray):
        if abs(loads - capacity) > band:
            return bool(loads <= capacity)
        return is_feasible(instance, assortment(0))
    fits = loads <= capacity
    for k in np.flatnonzero(np.abs(loads - capacity) <= band):
        fits[k] = is_feasible(instance, assortment(k))
    return fits


def tie_break_prefer(x_new: np.ndarray, x_old: np.ndarray) -> bool:
    """Canonical preference among equally good assortments.

    Prefers the assortment that offers the lowest-indexed product on which
    the two differ, i.e. (1,0) beats (0,1).  Used by every solver so that
    ties resolve identically across methods.
    """
    diff = np.flatnonzero(np.asarray(x_new) != np.asarray(x_old))
    if diff.size == 0:
        return False
    return bool(np.asarray(x_new)[diff[0]] == 1)
