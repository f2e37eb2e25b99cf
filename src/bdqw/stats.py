"""Moments, exact sum laws and distribution distances for walk statistics.

Supports the Gaussian-limit verification: the sum of d independent copies of
a one-dimensional walk position, standardized by its per-factor moments,
approaches the standard normal law as d grows.  Sums are computed by exact
discrete convolution rather than sampling, so every distance reported here is
deterministic.  A d-fold sum of one factor takes O(log d) direct convolutions
(binary powering) on the supports where its mass is a normal double, so
d = 65 536 costs well under a second.  The factor's 2^k-fold sums form a
table that calls of ``convolve_sum`` may share, as every count of a d sweep
does (``convolve_sweep``).  Each convolution splits its operands at 2^-511
and scales their tails by 2^511, so no product underflows into the slow
subnormal range.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .chain import check_probability_vector
from .errors import NumericalError

_SQRT2 = math.sqrt(2.0)
_TINY = np.finfo(float).tiny
# Convolution operands are split at 2^-511 and their tails scaled by 2^511
# (see _pieces): a product of two entries that are each at least 2^-511 is at
# least 2^-1022, the smallest normal double.
_TAIL_EXPONENT = 511
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
    # elementwise sums, not ``@``: a threaded BLAS dot on a long vector can
    # take milliseconds and slow the convolutions that follow it
    mean = float(np.sum(support * v))
    variance = float(np.sum((support - mean) ** 2 * v))
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


def _pieces(mass: np.ndarray) -> list[tuple[np.ndarray, int, int]]:
    """``mass`` as (values, start, exponent) pieces, ``values`` being
    ``mass[start:start + len(values)]`` times 2^exponent.

    The run from the first to the last entry of at least 2^-511 is one
    piece, unscaled; the tails on either side of it are scaled by 2^511,
    which is exact.  A mass with no tail is one unscaled piece.  The mass
    of a law has an entry of at least 1/len(mass), so the run is never empty.
    """
    big = np.flatnonzero(np.abs(mass) >= 2.0**-_TAIL_EXPONENT)
    lo, hi = int(big[0]), int(big[-1]) + 1
    pieces = [(mass[lo:hi], lo, 0)]
    if lo > 0:
        pieces.append((np.ldexp(mass[:lo], _TAIL_EXPONENT), 0, _TAIL_EXPONENT))
    if hi < mass.size:
        pieces.append((np.ldexp(mass[hi:], _TAIL_EXPONENT), hi, _TAIL_EXPONENT))
    return pieces


def _product(a: tuple[np.ndarray, int], b: tuple[np.ndarray, int]) -> tuple[np.ndarray, int]:
    """Law of the sum of two trimmed (mass, offset) laws, trimmed again.

    Each pair of the operands' pieces (see _pieces) is one ``np.convolve``
    whose products are normal doubles, so none takes the slow subnormal
    path; its result is scaled back once by 2^-(e_a + e_b), rounding only
    where it is subnormal, and added in at its offset.  Two operands
    without tails are one ``np.convolve``.
    """
    (x, i), (y, j) = a, b
    ys = _pieces(y)
    out = np.zeros(x.size + y.size - 1)
    for u, s, e in _pieces(x):
        for v, t, f in ys:
            part = np.convolve(u, v)
            if e + f:
                np.ldexp(part, -(e + f), out=part)
            out[s + t : s + t + part.size] += part
    return _trim(out, i + j)


def _power(table: list[tuple[np.ndarray, int]], count: int) -> tuple[np.ndarray, int]:
    """``count``-fold sum of the law ``table[0]`` by binary powering.

    ``table[k]`` is the law's 2^k-fold sum; the squarings that ``count``
    needs and ``table`` lacks are appended to it, so a table shared across
    counts computes each square once.  The squares of the count's set bits
    are multiplied in from the lowest bit up.
    """
    while len(table) < count.bit_length():
        table.append(_product(table[-1], table[-1]))
    result = None
    for k, square in enumerate(table[: count.bit_length()]):
        if count >> k & 1:
            result = square if result is None else _product(result, square)
    return result


def convolve_sum(factors: Sequence[np.ndarray], *, squares: dict | None = None) -> SumDistribution:
    """Exact law of the sum of independent factors via discrete convolution.

    Each factor object is checked once, and equal factors are grouped by
    value.  Each distinct factor is scaled to unit sum, so a sum error of its
    input does not compound over its copies, and raised to its multiplicity
    by binary powering over a table of its 2^k-fold sums, with direct
    convolution: every entry is accurate relative to itself, far tails
    included, where an FFT's round-off is absolute.  Operand entries below
    2^-511 are scaled by 2^511 within each convolution (see _product), and
    entries of a result below the smallest normal double are dropped from
    its ends.  ``squares``, if given, maps each distinct factor's checked
    bytes to its table, read and extended in place: calls that share it
    (convolve_sweep) compute each square once, with the same bits as a call
    of their own.  The full mass is allocated before any convolution, so a
    law too large to hold fails at once.  The stored mean and variance are
    the per-factor sums; they are checked against the moments of the full
    convolved mass as an internal consistency check, which raises
    NumericalError on disagreement.
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
    squares = {} if squares is None else squares
    laws = [(key, _unit_sum(f), count) for key, (f, count) in groups.items()]
    mean = 0.0
    variance = 0.0
    for _, unit, count in laws:
        m, v = moments(unit)
        mean += count * m
        variance += count * v
    mass = np.zeros(sum(count * (unit.size - 1) for _, unit, count in laws) + 1)
    powers = (
        _power(squares.setdefault(key, [_trim(unit, 0)]), count) for key, unit, count in laws
    )
    core, offset = functools.reduce(_product, powers)
    mass[offset : offset + core.size] = core
    conv_mean, conv_var = moments(mass)
    for name, got, expected in (("mean", conv_mean, mean), ("variance", conv_var, variance)):
        if not math.isclose(got, expected, rel_tol=1e-10, abs_tol=1e-10):
            raise NumericalError(f"convolved {name} {got} disagrees with the factor sum {expected}")
    return SumDistribution(mass=mass, mean=mean, variance=variance)


def convolve_sweep(factor: np.ndarray, counts: Iterable[int]) -> Iterator[SumDistribution]:
    """``convolve_sum([factor] * d)`` for each d of ``counts``, in order.

    Every call shares one table of the factor's 2^k-fold sums, so each
    square is computed once per sweep, and each law is bit for bit the one
    a call of its own gives.  The generator keeps no reference to a law it
    has yielded.
    """
    squares: dict = {}
    for count in counts:
        yield convolve_sum([factor] * count, squares=squares)


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
    # gaussian_cdf at each atom: numpy forms the quotients with the same bits
    quotients = (-z[window] / _SQRT2).tolist()
    phi[window] = 0.5 * np.fromiter(map(math.erfc, quotients), float, len(quotients))
    at_atom = np.abs(cdf - phi)
    below_atom = np.abs(np.concatenate(([0.0], cdf[:-1])) - phi)
    return float(max(at_atom.max(), below_atom.max()))
