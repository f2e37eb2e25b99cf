"""Moments, exact convolutions, the normal CDF and Kolmogorov distances."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
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
    convolve_sweep,
    gaussian_cdf,
    moments,
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


def sequential_convolve(factors) -> np.ndarray:
    """Reference sum law: one np.convolve per factor, in order, nothing trimmed."""
    mass = np.ones(1)
    for factor in factors:
        mass = np.convolve(mass, factor)
    return mass


def per_atom_distance(sum_dist: SumDistribution) -> float:
    """Reference Kolmogorov distance: gaussian_cdf evaluated at every atom."""
    mass = np.asarray(sum_dist.mass, dtype=float)
    z = (np.arange(mass.size) - sum_dist.mean) / math.sqrt(sum_dist.variance)
    cdf = np.cumsum(mass)
    phi = np.array([gaussian_cdf(v) for v in z])
    below = np.concatenate(([0.0], cdf[:-1]))
    return float(max(np.abs(cdf - phi).max(), np.abs(below - phi).max()))


def binomial_distance(n: int, p: float) -> float:
    """Exact Kolmogorov distance of the standardized Binomial(n, p), by scipy."""
    k = np.arange(n + 1)
    cdf = scipy.stats.binom.cdf(k, n, p)
    phi = scipy.stats.norm.cdf((k - n * p) / math.sqrt(n * p * (1.0 - p)))
    below = np.concatenate(([0.0], cdf[:-1]))
    return float(max(np.abs(cdf - phi).max(), np.abs(below - phi).max()))


@st.composite
def dyadic_factors(draw):
    """A probability vector with entries k / 2^m that sums to exactly 1, with
    interior zeros allowed and optional 0, 1e-300 or 1e-320 end entries."""
    weights = draw(st.lists(st.integers(0, 64), min_size=1, max_size=5))
    weights[0] += 1
    total = 1 << (sum(weights) - 1).bit_length()
    weights[draw(st.integers(0, len(weights) - 1))] += total - sum(weights)
    ends = st.lists(st.sampled_from([0.0, 1e-300, 1e-320]), max_size=2)
    return np.array(draw(ends) + [w / total for w in weights] + draw(ends))


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
        # reverse every convolution of an asymmetric factor: the support and
        # the total mass stay right, but the mean no longer adds up
        convolve = np.convolve
        monkeypatch.setattr(stats.np, "convolve", lambda a, b: convolve(a, b)[::-1])
        with pytest.raises(NumericalError, match="mean"):
            convolve_sum([np.array([0.2, 0.8])] * 2)

    def test_moment_mismatch_raises_through_the_scaled_path(self, monkeypatch):
        # a 1e-300 entry is a tail, so each product is four partial convolutions
        convolve = np.convolve
        calls = []

        def reversed_convolve(a, b):
            calls.append(a.size)
            return convolve(a, b)[::-1]

        monkeypatch.setattr(stats.np, "convolve", reversed_convolve)
        with pytest.raises(NumericalError, match="mean"):
            convolve_sum([np.array([1e-300, 0.2, 0.8])] * 2)
        assert len(calls) == 4

    def test_unallocatable_law_fails_before_any_convolution(self):
        # 2^14 copies of a 65 537-atom uniform law: the sum is 8 GiB of
        # doubles, beyond the child's 4 GiB address space.  Allocated first,
        # it fails at once; squared first, the laws would grow for hours.
        script = (
            "import resource; resource.setrlimit(resource.RLIMIT_AS, (2**32, 2**32)); "
            "import numpy as np; from bdqw.stats import convolve_sum; "
            "f = np.full(2**16 + 1, 1 / (2**16 + 1))\n"
            "try:\n    convolve_sum([f] * 2**14)\nexcept MemoryError:\n    print('refused')"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert result.stdout == "refused\n", result.stderr

    def test_unnormalized_factor_rejected(self):
        with pytest.raises(ValueError):
            convolve_sum([np.array([0.5, 0.4])])

    @pytest.mark.parametrize("bad", [[math.nan, 1.0], [0.5, math.nan], [math.nan, math.nan]])
    def test_nan_entry_rejected(self, bad):
        # NaN compares false both ways, so only a NaN-aware check refuses it
        with pytest.raises(ValueError, match="NaN|nan"):
            convolve_sum([np.array([0.5, 0.5]), np.array(bad)])

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

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(dyadic_factors(), st.integers(1, 300)), min_size=1, max_size=3),
        st.randoms(use_true_random=False),
    )
    def test_matches_sequential_reference(self, groups, rng):
        # the factors sum to 1 exactly, so unit-sum scaling leaves them as
        # they are and only the powering and trimming differ from the loop
        factors = [f for f, count in groups for _ in range(count)]
        rng.shuffle(factors)
        out = convolve_sum(factors)
        reference = sequential_convolve(factors)
        assert out.mass.shape == reference.shape
        assert np.abs(out.mass - reference).max() <= 1e-15

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).filter(lambda w: sum(w) > 0.01))
    def test_unit_sum_is_exact_to_half_an_ulp(self, weights):
        # a residual δ grows to dδ in the d-fold sum: 1e-16 would already
        # break the 1e-10 moment check at d = 2^20.  The bound is half an ulp
        # of the largest entry, plus fsum's own rounding of the residual.
        unit = stats._unit_sum(np.array(weights) / sum(weights))
        residual = sum(map(Fraction, unit.tolist())) - 1
        bound = Fraction(np.spacing(unit.max())) * (Fraction(1, 2) + Fraction(1, 2**52))
        assert abs(residual) <= bound

    def test_factor_sum_error_does_not_compound(self):
        # sum 1 - 4e-13 passes the probability check, but its 2048-fold
        # power sums to about 1 - 8e-10 unless the factor is rescaled first
        out = convolve_sum([np.array([0.5, 0.5 - 4e-13])] * 2048)
        assert abs(out.mass.sum() - 1.0) <= 1e-12
        assert abs(out.mean - 1024.0) <= 1e-9

    @pytest.mark.parametrize(("t", "d"), [(3.1, 65_536), (0.7, 2**17)])
    def test_large_d_against_exact_binomial(self, t, d):
        # Ehrenfest N=4 from the end state: Binomial(4, sin^2(T/4)) per
        # factor; at T=0.7 its sum is 1 - 1.1e-15, which used to compound
        factor = transition_row(dimension_spectrum(ehrenfest_dimension(4)), t, 0)
        dist = clt_distance(convolve_sum([factor] * d))
        assert abs(dist - binomial_distance(4 * d, math.sin(t / 4.0) ** 2)) <= 1e-11

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


def dyadic_exponent_law(rng: np.random.Generator, size: int) -> np.ndarray:
    """Entries m * 2^-e, m uniform in [1, 2), e falling along a parabola
    from 1021 at both ends to 1 in the middle: a bell whose values span
    [2^-1021, 1) and whose far tails are below 2^-511."""
    x = np.linspace(-1.0, 1.0, size)
    return np.ldexp(rng.uniform(1.0, 2.0, size), -np.floor(1.0 + 1020.0 * x**2).astype(int))


class TestScaledProduct:
    @pytest.mark.parametrize("seed", range(16))
    def test_against_exact_fractions(self, seed):
        rng = np.random.default_rng(seed)
        a, b = (dyadic_exponent_law(rng, int(rng.integers(3, 60))) for _ in range(2))
        offsets = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        got, offset = stats._product((a, offsets[0]), (b, offsets[1]))
        exact = [Fraction(0)] * (a.size + b.size - 1)
        for i, u in enumerate(map(Fraction, a.tolist())):
            for j, w in enumerate(map(Fraction, b.tolist())):
                exact[i + j] += u * w
        tiny = Fraction(np.finfo(float).tiny)
        shift = sum(offsets) - offset
        # every normal entry of the exact law is kept; the worst relative
        # error measured over 200 such pairs is 3.4 units of 2^-53
        for k, value in enumerate(exact):
            if value >= tiny:
                assert 0 <= k + shift < got.size
                assert abs(Fraction(got[k + shift]) - value) <= value * Fraction(8, 2**53)
        assert got[0] >= tiny and got[-1] >= tiny

    def test_no_product_underflows(self, monkeypatch):
        convolve = np.convolve
        smallest = []

        def recording(a, b):
            smallest.append(np.abs(a[a != 0]).min() * np.abs(b[b != 0]).min())
            return convolve(a, b)

        monkeypatch.setattr(stats.np, "convolve", recording)
        rng = np.random.default_rng(7)
        a, b = dyadic_exponent_law(rng, 40), dyadic_exponent_law(rng, 31)
        stats._product((a, 0), (b, 0))
        assert len(smallest) == 9  # core and two tails each
        assert min(smallest) >= np.finfo(float).tiny

    def test_operands_without_tails_are_one_convolution(self, monkeypatch):
        convolve = np.convolve
        calls = []
        monkeypatch.setattr(stats.np, "convolve", lambda a, b: calls.append(1) or convolve(a, b))
        got, offset = stats._product((np.array([0.25, 0.75]), 1), (np.array([0.5, 0.5]), 2))
        assert calls == [1]
        assert got.tolist() == [0.125, 0.5, 0.375] and offset == 3


class TestConvolveSweep:
    @settings(max_examples=40, deadline=None)
    @given(
        dyadic_factors(),
        st.lists(st.integers(1, 300), min_size=1, max_size=5),
        st.randoms(use_true_random=False),
    )
    def test_equals_per_count_sums(self, factor, counts, rng):
        counts = [*counts, 1, counts[0]]  # d = 1 and a repeat, in random order
        rng.shuffle(counts)
        laws = list(convolve_sweep(factor, counts))
        assert len(laws) == len(counts)
        for d, law in zip(counts, laws):
            reference = convolve_sum([factor] * d)
            assert np.array_equal(law.mass, reference.mass)
            assert (law.mean, law.variance) == (reference.mean, reference.variance)

    def test_many_set_bits_on_a_law_with_tails(self):
        # from d = 1024 on, this law has entries below 2^-511
        factor = transition_row(dimension_spectrum(ehrenfest_dimension(4)), 3.1, 0)
        counts = [4095, 1, 2048, 4095, 1023]
        for d, law in zip(counts, convolve_sweep(factor, counts)):
            reference = convolve_sum([factor] * d)
            assert np.array_equal(law.mass, reference.mass)
            assert (law.mean, law.variance) == (reference.mean, reference.variance)

    def test_squares_computed_once(self, monkeypatch):
        products = []
        product = stats._product
        monkeypatch.setattr(stats, "_product", lambda a, b: products.append(a is b) or product(a, b))
        list(convolve_sweep(np.array([0.5, 0.5]), [8, 3, 16, 8]))
        # squares up to 16 = 2^4, then 3 = 1 + 2 is one product
        assert products == [True] * 3 + [False] + [True]

    def test_numpy_integer_counts(self):
        counts = 2 ** np.arange(3)
        masses = [law.mass.tolist() for law in convolve_sweep(np.array([0.5, 0.5]), counts)]
        assert masses == [[0.5, 0.5], [0.25, 0.5, 0.25], [1 / 16, 4 / 16, 6 / 16, 4 / 16, 1 / 16]]

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="at least one factor"):
            list(convolve_sweep(np.array([0.5, 0.5]), [2, 0]))


class TestGaussianCdf:
    def test_symmetry_point(self):
        assert gaussian_cdf(0.0) == 0.5

    def test_far_tail(self):
        assert abs(gaussian_cdf(8.0) - 1.0) <= 1e-10
        assert gaussian_cdf(-8.0) <= 1e-10

    def test_against_quadrature_oracle(self):
        for x in (-3.0, -1.0, -0.2, 0.5, 1.0, 2.5):
            assert abs(gaussian_cdf(x) - gaussian_cdf_quadrature(x)) <= 1e-10

    def test_exact_outside_the_evaluated_window(self):
        # clt_distance sets Phi to 0.0 below -38.6 and 1.0 above 8.5 without
        # calling gaussian_cdf; that is only sound if these are its values
        far = np.concatenate((np.linspace(0.0, 30.0, 300_001), np.geomspace(30.0, 1e300, 1000)))
        below = np.nextafter(stats._PHI_IS_ZERO_BELOW, -math.inf) - far
        above = np.nextafter(stats._PHI_IS_ONE_ABOVE, math.inf) + far
        assert all(gaussian_cdf(x) == 0.0 for x in below.tolist() + [-math.inf])
        assert all(gaussian_cdf(x) == 1.0 for x in above.tolist() + [math.inf])

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

    @pytest.mark.parametrize(("t", "d"), [(3.1, 8192), (0.7, 300), (1.0, 1)])
    def test_equals_per_atom_loop(self, t, d):
        factor = transition_row(dimension_spectrum(ehrenfest_dimension(4)), t, 0)
        summed = convolve_sum([factor] * d)
        assert clt_distance(summed) == per_atom_distance(summed)
        # a small variance pushes most atoms far outside the window
        narrow = SumDistribution(mass=summed.mass, mean=summed.mean, variance=summed.variance / 1e6)
        assert clt_distance(narrow) == per_atom_distance(narrow)

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("mean", math.nan),
            ("mean", math.inf),
            ("variance", math.nan),
            ("variance", math.inf),
            ("mass", np.array([0.5, math.nan])),
            ("mass", np.array([math.inf, 0.5])),
        ],
    )
    def test_non_finite_input_rejected(self, field, value):
        fields = {"mass": np.array([0.5, 0.5]), "mean": 0.5, "variance": 0.25, field: value}
        with pytest.raises(ValueError, match=field):
            clt_distance(SumDistribution(**fields))

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

