"""Moments, exact sum laws and distribution distances for walk statistics.

Supports the Gaussian-limit verification: the sum of d independent copies of
a one-dimensional walk position, standardized by its per-factor moments,
approaches the standard normal law as d grows.  Sums are computed by exact
discrete convolution rather than sampling, so every distance reported here is
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import check_probability_vector
from .errors import NumericalError

_SQRT2 = math.sqrt(2.0)


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


def convolve_sum(factors: Sequence[np.ndarray]) -> SumDistribution:
    """Exact law of the sum of independent factors via discrete convolution.

    The stored mean and variance are the per-factor sums; they are checked
    against the moments of the convolved mass as an internal consistency
    check, which raises NumericalError on disagreement.  A repeated factor
    object is checked and measured once.
    """
    if len(factors) == 0:
        raise ValueError("need at least one factor")
    mean = 0.0
    variance = 0.0
    mass = np.ones(1)
    seen = {}  # by id; each entry holds its factor, so no id is reused meanwhile
    for factor in factors:
        if id(factor) not in seen:
            f = check_probability_vector(factor)
            seen[id(factor)] = (factor, f, *moments(f))
        _, f, m, v = seen[id(factor)]
        mean += m
        variance += v
        mass = np.convolve(mass, f)
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
    compared against Phi.
    """
    if sum_dist.variance <= 0.0:
        raise ValueError("zero variance: the standardized statistic is degenerate")
    mass = np.asarray(sum_dist.mass, dtype=float)
    scale = math.sqrt(sum_dist.variance)
    z = (np.arange(mass.size) - sum_dist.mean) / scale
    cdf = np.cumsum(mass)
    phi = np.array([gaussian_cdf(v) for v in z])
    at_atom = np.abs(cdf - phi)
    below_atom = np.abs(np.concatenate(([0.0], cdf[:-1])) - phi)
    return float(max(at_atom.max(), below_atom.max()))


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance between two distributions on the same support."""
    p = check_probability_vector(p)
    q = check_probability_vector(q)
    if p.shape != q.shape:
        raise ValueError(f"support length mismatch: {p.size} vs {q.size}")
    return 0.5 * float(np.sum(np.abs(p - q)))
