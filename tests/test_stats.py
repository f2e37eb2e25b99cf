"""Moments, exact convolutions, the normal CDF and Kolmogorov distances."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdqw import stats
from bdqw.chain import ehrenfest_dimension
from bdqw.ctqw import transition_row
from bdqw.errors import NumericalError
from bdqw.spectral import dimension_spectrum
from bdqw.stats import (
    SumDistribution,
    clt_distance,
    convolve_sum,
    gaussian_cdf,
    moments,
    total_variation,
)


def gaussian_cdf_quadrature(x: float, steps: int = 4000) -> float:
    """Independent Simpson integration of the standard normal density."""
    if x < 0.0:
        return 1.0 - gaussian_cdf_quadrature(-x, steps)
    grid = np.linspace(0.0, x, 2 * steps + 1)
    density = np.exp(-grid**2 / 2.0) / math.sqrt(2.0 * math.pi)
    h = x / (2 * steps) if x > 0 else 0.0
    if h == 0.0:
        return 0.5
    weights = np.ones_like(grid)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return 0.5 + float(h / 3.0 * (weights @ density))


def two_atom_distance_oracle(p0: float, p1: float, z0: float, z1: float) -> float:
    """Hand evaluation of sup |F - Phi| for a two-atom standardized law."""
    candidates = [
        abs(0.0 - gaussian_cdf_quadrature(z0)),
        abs(p0 - gaussian_cdf_quadrature(z0)),
        abs(p0 - gaussian_cdf_quadrature(z1)),
        abs(p0 + p1 - gaussian_cdf_quadrature(z1)),
    ]
    return max(candidates)


class TestMoments:
    def test_point_mass(self):
        assert moments(np.array([0.0, 0.0, 0.0, 1.0])) == (3.0, 0.0)

    def test_bernoulli_closed_form(self):
        for t in (0.4, 1.0, 2.0):
            p = math.sin(t) ** 2
            mean, var = moments(np.array([1.0 - p, p]))
            assert abs(mean - p) <= 1e-15
            assert abs(var - p * (1.0 - p)) <= 1e-15

    def test_uniform_three_points(self):
        mean, var = moments(np.ones(3) / 3.0)
        assert abs(mean - 1.0) <= 1e-15
        assert abs(var - 2.0 / 3.0) <= 1e-15


class TestConvolveSum:
    def test_single_factor_is_identity(self):
        f = np.array([0.2, 0.5, 0.3])
        out = convolve_sum([f])
        assert np.allclose(out.mass, f, atol=0)

    def test_coin_pair(self):
        coin = np.array([0.5, 0.5])
        out = convolve_sum([coin, coin])
        assert np.allclose(out.mass, [0.25, 0.5, 0.25], atol=1e-15)
        assert abs(out.mean - 1.0) <= 1e-15
        assert abs(out.variance - 0.5) <= 1e-15

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            convolve_sum([])

    def test_moment_mismatch_raises_numerical_error(self, monkeypatch):
        # shift the convolved mass up by one atom: the mean no longer adds up
        convolve = np.convolve
        monkeypatch.setattr(stats.np, "convolve", lambda a, b: np.concatenate(([0.0], convolve(a, b))))
        with pytest.raises(NumericalError):
            convolve_sum([np.array([0.5, 0.5])] * 2)

    def test_unnormalized_factor_rejected(self):
        with pytest.raises(ValueError):
            convolve_sum([np.array([0.5, 0.4])])

    def test_repeated_factor_checked_once(self, monkeypatch):
        checked = []
        check = stats.check_probability_vector

        def counting(mass):
            checked.append(mass)
            return check(mass)

        monkeypatch.setattr(stats, "check_probability_vector", counting)
        f = np.array([0.2, 0.5, 0.3])
        out = convolve_sum([f] * 5)
        assert len(checked) == 1
        # the same sum as five distinct factor objects, or the rows of one array
        for factors in ([f.copy() for _ in range(5)], np.tile(f, (5, 1))):
            reference = convolve_sum(factors)
            assert np.array_equal(out.mass, reference.mass)
            assert (out.mean, out.variance) == (reference.mean, reference.variance)
        assert len(checked) == 11

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
            min_size=1,
            max_size=5,
        )
    )
    def test_moment_additivity(self, raw_factors):
        factors = [np.array(f) / np.sum(f) for f in raw_factors]
        out = convolve_sum(factors)
        mean_sum = sum(moments(f)[0] for f in factors)
        var_sum = sum(moments(f)[1] for f in factors)
        conv_mean, conv_var = moments(out.mass)
        assert abs(conv_mean - mean_sum) <= 1e-10
        assert abs(conv_var - var_sum) <= 1e-10


class TestGaussianCdf:
    def test_symmetry_point(self):
        assert gaussian_cdf(0.0) == 0.5

    def test_far_tail(self):
        assert abs(gaussian_cdf(8.0) - 1.0) <= 1e-10
        assert gaussian_cdf(-8.0) <= 1e-10

    def test_against_quadrature_oracle(self):
        for x in (-3.0, -1.0, -0.2, 0.5, 1.0, 2.5):
            assert abs(gaussian_cdf(x) - gaussian_cdf_quadrature(x)) <= 1e-10

    @given(st.floats(-6, 6), st.floats(-6, 6))
    def test_monotone_and_reflective(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert gaussian_cdf(lo) <= gaussian_cdf(hi)
        assert abs(gaussian_cdf(a) + gaussian_cdf(-a) - 1.0) <= 1e-10


class TestCltDistance:
    def test_single_fair_coin(self):
        # standardized atoms at -1 and +1; sup attained at the atoms:
        # max(|1/2 - Phi(-1)|, |Phi(1) - 1/2|) = Phi(1) - 1/2
        dist = clt_distance(SumDistribution(mass=np.array([0.5, 0.5]), mean=0.5, variance=0.25))
        oracle = two_atom_distance_oracle(0.5, 0.5, -1.0, 1.0)
        assert abs(dist - oracle) <= 1e-10
        assert abs(dist - 0.3413447460685429) <= 1e-12

    def test_single_edge_walker_at_unit_time(self):
        factor = transition_row(dimension_spectrum(ehrenfest_dimension(1)), 1.0, 0)
        summed = convolve_sum([factor])
        dist = clt_distance(summed)
        p = math.sin(1.0) ** 2
        scale = math.sqrt(p * (1.0 - p))
        oracle = two_atom_distance_oracle(1.0 - p, p, (0.0 - p) / scale, (1.0 - p) / scale)
        assert abs(dist - oracle) <= 1e-10

    def test_binomial_400_is_close_to_normal(self):
        p = math.sin(1.0) ** 2
        factor = np.array([1.0 - p, p])
        summed = convolve_sum([factor] * 400)
        assert clt_distance(summed) < 0.05

    def test_monotone_decrease_along_doubling(self):
        factor = transition_row(dimension_spectrum(ehrenfest_dimension(1)), 1.0, 0)
        distances = []
        for d in (4, 64, 1024):
            summed = convolve_sum([factor] * d)
            distances.append(clt_distance(summed))
        assert distances[2] < distances[1] < distances[0]

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            clt_distance(SumDistribution(mass=np.array([1.0]), mean=0.0, variance=0.0))

    def test_invariant_under_support_shift(self):
        mass = np.array([0.2, 0.5, 0.3])
        mean, var = moments(mass)
        base = clt_distance(SumDistribution(mass=mass, mean=mean, variance=var))
        shifted_mass = np.concatenate((np.zeros(4), mass))
        shifted = clt_distance(
            SumDistribution(mass=shifted_mass, mean=mean + 4.0, variance=var)
        )
        assert abs(base - shifted) <= 1e-12


class TestTotalVariation:
    def test_identical(self):
        p = np.array([0.25, 0.5, 0.25])
        assert total_variation(p, p) == 0.0

    def test_disjoint_point_masses(self):
        assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_quarter_shift(self):
        p = np.array([0.25, 0.5, 0.25])
        q = np.array([0.5, 0.25, 0.25])
        assert abs(total_variation(p, q) - 0.25) <= 1e-15

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            total_variation(np.array([1.0]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("bad", [[math.nan, 1.0], [0.5, math.nan], [math.nan, math.nan]])
    def test_nan_entry_rejected(self, bad):
        # NaN compares false both ways, so only a NaN-aware check refuses it
        with pytest.raises(ValueError, match="NaN|nan"):
            total_variation(np.array(bad), np.array([0.0, 1.0]))
