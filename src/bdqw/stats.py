"""Moments, exact sum laws and distribution distances for walk statistics.

Supports the Gaussian-limit verification: the sum of d independent copies of
a one-dimensional walk position, standardized by its per-factor moments,
approaches the standard normal law as d grows.  Sums are computed by exact
discrete convolution rather than sampling, so every distance reported here is
deterministic.  A d-fold sum of one factor takes O(log d) direct convolutions
(binary powering) on the supports where its mass is a normal double, so
d = 65 536 costs well under a second.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import check_probability_vector
from .errors import NumericalError

_SQRT2 = math.sqrt(2.0)
_TINY = np.finfo(float).tiny
# gaussian_cdf is exactly 0.0 below and exactly 1.0 above these points
# (erfc underflows to zero, and 2 - erfc rounds to 2; tested on a dense grid).
_PHI_IS_ZERO_BELOW = -38.6
_PHI_IS_ONE_ABOVE = 8.5


@dataclass(frozen=True)
class SumDistribution:
    """Law of a sum of independent position variables, with its exact moments."""

    mass: np.ndarray
    mean: float
    variance: float


def moments(mass: np.ndarray) -> tuple[float, float]:
    """Mean and variance of a distribution supported on 0..len(mass)-1."""
    v = np.asarray(mass, dtype=float)
    support = np.arange(v.size)
    mean = float(support @ v)
    variance = float(((support - mean) ** 2) @ v)
    return mean, variance


def _unit_sum(f: np.ndarray) -> np.ndarray:
    """``f`` scaled to unit sum, the rounding residual put on its largest entry.

    A sum error δ of a factor grows to about dδ in its d-fold sum; the
    residual, taken exactly by ``math.fsum``, leaves |δ| at most half an ulp
    of the largest entry.
    """
    unit = f / math.fsum(f)
    unit[unit.argmax()] += math.fsum(np.concatenate(([1.0], -unit)))
    return unit


def _trim(mass: np.ndarray, offset: int) -> tuple[np.ndarray, int]:
    """Drop the leading and trailing entries below the smallest normal double.

    Such ends are subnormal or zero already; dropping them moves the sum by
    under about 1e-300 relative and spares ``np.convolve`` its slow subnormal
    arithmetic.  ``offset`` is the support index of ``mass[0]``.
    """
    kept = np.flatnonzero(np.abs(mass) >= _TINY)
    return mass[kept[0] : kept[-1] + 1], offset + int(kept[0])


def _product(a: tuple[np.ndarray, int], b: tuple[np.ndarray, int]) -> tuple[np.ndarray, int]:
    """Law of the sum of two trimmed (mass, offset) laws, trimmed again."""
    return _trim(np.convolve(a[0], b[0]), a[1] + b[1])


def _power(law: tuple[np.ndarray, int], count: int) -> tuple[np.ndarray, int]:
    """``count``-fold sum of one law by binary powering: square the base, and
    multiply it in for each set bit of the count."""
    result = None
    while True:
        if count & 1:
            result = law if result is None else _product(result, law)
        count >>= 1
        if not count:
            return result
        law = _product(law, law)


def convolve_sum(factors: Sequence[np.ndarray]) -> SumDistribution:
    """Exact law of the sum of independent factors via discrete convolution.

    Each factor object is checked once, and equal factors are grouped by
    value.  Each distinct factor is scaled to unit sum, so a sum error of its
    input does not compound over its copies, and raised to its multiplicity
    by binary powering with direct convolution: every entry is accurate
    relative to itself, far tails included, where an FFT's round-off is
    absolute.  The stored mean and variance are the per-factor sums; they are
    checked against the moments of the full convolved mass as an internal
    consistency check, which raises NumericalError on disagreement.
    """
    if len(factors) == 0:
        raise ValueError("need at least one factor")
    keys = {}  # by id; each entry holds its factor, so no id is reused meanwhile
    groups = {}  # checked bytes -> [checked factor, multiplicity]
    for factor in factors:
        if id(factor) not in keys:
            f = check_probability_vector(factor)
            keys[id(factor)] = factor, f.tobytes()
            groups.setdefault(f.tobytes(), [f, 0])
        _, key = keys[id(factor)]
        groups[key][1] += 1
    laws = [(_unit_sum(f), count) for f, count in groups.values()]
    mean = 0.0
    variance = 0.0
    for unit, count in laws:
        m, v = moments(unit)
        mean += count * m
        variance += count * v
    powers = (_power(_trim(unit, 0), count) for unit, count in laws)
    core, offset = functools.reduce(_product, powers)
    mass = np.zeros(sum(count * (unit.size - 1) for unit, count in laws) + 1)
    mass[offset : offset + core.size] = core
    conv_mean, conv_var = moments(mass)
    for name, got, expected in (("mean", conv_mean, mean), ("variance", conv_var, variance)):
        if not math.isclose(got, expected, rel_tol=1e-10, abs_tol=1e-10):
            raise NumericalError(f"convolved {name} {got} disagrees with the factor sum {expected}")
    return SumDistribution(mass=mass, mean=mean, variance=variance)


def gaussian_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / _SQRT2)


def clt_distance(sum_dist: SumDistribution) -> float:
    """Kolmogorov distance between the standardized sum and the standard normal.

    The sum is centered by its stored mean and scaled by the square root of
    its stored variance, the per-factor sums (d times the per-factor moments
    for d identical factors); the supremum of |CDF - Phi| over the real line
    is attained at the atoms, where both one-sided limits of the step CDF are
    compared against Phi.  Phi is evaluated only inside [-38.6, 8.5]; outside
    it ``gaussian_cdf`` is exactly 0.0 or 1.0 in double precision, so those
    atoms take that value directly.
    """
    mass = np.asarray(sum_dist.mass, dtype=float)
    for name, value in (("mean", sum_dist.mean), ("variance", sum_dist.variance)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not np.isfinite(mass).all():
        raise ValueError("mass has a non-finite entry")
    if sum_dist.variance <= 0.0:
        raise ValueError("zero variance: the standardized statistic is degenerate")
    scale = math.sqrt(sum_dist.variance)
    z = (np.arange(mass.size) - sum_dist.mean) / scale
    cdf = np.cumsum(mass)
    phi = np.where(z > _PHI_IS_ONE_ABOVE, 1.0, 0.0)
    window = np.flatnonzero((z >= _PHI_IS_ZERO_BELOW) & (z <= _PHI_IS_ONE_ABOVE))
    phi[window] = [gaussian_cdf(v) for v in z[window].tolist()]
    at_atom = np.abs(cdf - phi)
    below_atom = np.abs(np.concatenate(([0.0], cdf[:-1])) - phi)
    return float(max(at_atom.max(), below_atom.max()))
