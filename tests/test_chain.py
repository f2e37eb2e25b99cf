"""Chain construction, conditional kernels and stationary laws."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import time

import numpy as np
import pytest
import scipy.stats
from hypothesis import given

from bdqw.chain import (
    DimensionSpec,
    MultiChainSpec,
    build_conditional_matrix,
    check_probability_vector,
    ehrenfest_dimension,
    stationary_distribution,
    uniform_multi_chain,
)
from conftest import multi_chain_specs, random_dimension_spec


class TestDimensionSpec:
    def test_ehrenfest_single_ball_has_no_interior(self):
        spec = ehrenfest_dimension(1)
        assert spec.size == 1
        assert spec.decrease_prob == ()

    def test_ehrenfest_two_balls(self):
        assert ehrenfest_dimension(2).decrease_prob == (0.5,)

    def test_ehrenfest_four_balls(self):
        assert ehrenfest_dimension(4).decrease_prob == (0.25, 0.5, 0.75)

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            ehrenfest_dimension(0)
        with pytest.raises(ValueError):
            DimensionSpec(size=0)

    def test_rejects_boundary_probabilities(self):
        with pytest.raises(ValueError):
            DimensionSpec(size=2, decrease_prob=(0.0,))
        with pytest.raises(ValueError):
            DimensionSpec(size=2, decrease_prob=(1.0,))

    def test_rejects_wrong_table_length(self):
        with pytest.raises(ValueError):
            DimensionSpec(size=3, decrease_prob=(0.5,))


class TestMultiChainSpec:
    def test_select_prob_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MultiChainSpec(dims=(ehrenfest_dimension(1),) * 2, select_prob=(0.5, 0.6))

    def test_select_prob_must_be_positive(self):
        with pytest.raises(ValueError):
            MultiChainSpec(dims=(ehrenfest_dimension(1),) * 2, select_prob=(1.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_select_prob_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="select_prob"):
            MultiChainSpec(dims=(ehrenfest_dimension(1),), select_prob=(bad,))
        with pytest.raises(ValueError, match="select_prob"):
            MultiChainSpec(dims=(ehrenfest_dimension(1),) * 2, select_prob=(1.0, bad))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            MultiChainSpec(dims=(ehrenfest_dimension(1),), select_prob=(0.5, 0.5))

    def test_uniform_helper(self):
        spec = uniform_multi_chain(ehrenfest_dimension(2), 3)
        assert spec.n_dims == 3
        assert spec.product_size == 27
        assert abs(sum(spec.select_prob) - 1.0) <= 1e-12

    def test_cached_shape_leaves_the_value_semantics_alone(self):
        # shape, product_size and distinct are built once per spec and kept in
        # the instance; they are not fields, so equality, hashing, replace,
        # pickle and deepcopy see only dims and select_prob
        dims = [ehrenfest_dimension(2), DimensionSpec(size=1), ehrenfest_dimension(4)]
        spec = MultiChainSpec(dims=dims, select_prob=(0.5, 0.25, 0.25))  # a list of dims
        fresh = MultiChainSpec(dims=tuple(dims), select_prob=(0.5, 0.25, 0.25))
        assert spec.dims == tuple(dims)
        assert spec.shape == tuple(d.n_states for d in dims) == (3, 2, 5)
        assert spec.shape is spec.shape  # computed once
        assert spec.product_size == 30
        assert spec.distinct == ((0, 1, 2), (0, 1, 2))
        assert spec.distinct is spec.distinct  # computed once
        assert spec == fresh and hash(spec) == hash(fresh)  # fresh has no cached shape yet
        assert [f.name for f in dataclasses.fields(spec)] == ["dims", "select_prob"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.dims = ()
        for other in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            assert other == spec and hash(other) == hash(spec)
            assert other.shape == spec.shape
            assert other.product_size == spec.product_size
            assert other.distinct == spec.distinct
        swapped = dataclasses.replace(spec, dims=(DimensionSpec(size=1),) + spec.dims[1:])
        assert swapped.shape == (2, 2, 5) and spec.shape == (3, 2, 5)
        assert swapped.product_size == 20 and spec.product_size == 30
        assert swapped.distinct == ((0, 2), (0, 0, 1)) and spec.distinct == ((0, 1, 2), (0, 1, 2))
        assert swapped != spec
        assert dataclasses.replace(spec) == spec
        # a big product size is one int object, not a fresh product per access
        big = uniform_multi_chain(ehrenfest_dimension(1), 4000)
        assert big.product_size == 2**4000
        assert big.product_size is big.product_size

    def test_distinct_hashes_each_object_once(self):
        # a repeated object is matched by identity before any hash; equal but
        # separate objects are matched by value
        hashed = []

        class Counted(DimensionSpec):
            def __hash__(self):
                hashed.append(self)
                return super().__hash__()

        a, b, a_copy = Counted(size=1), Counted(size=3, decrease_prob=(0.2, 0.5)), Counted(size=1)
        dims = (a,) * 500 + (b,) * 500 + (a_copy, a)
        spec = MultiChainSpec(dims=dims, select_prob=(1 / 1002,) * 1002)
        first, index = spec.distinct
        assert first == (0, 500)
        assert index == (0,) * 500 + (1,) * 500 + (0, 0)
        assert len(hashed) == 3 and {id(dim) for dim in hashed} == {id(a), id(b), id(a_copy)}

    def test_distinct_is_linear_in_the_dimensions(self):
        # 20 000 pairwise-distinct dimensions: a quadratic index (a tuple.index
        # scan per number) takes seconds, this one tens of milliseconds
        dims = tuple(DimensionSpec(size=2, decrease_prob=(k / 20_001,)) for k in range(1, 20_001))
        best = math.inf
        for _ in range(3):
            spec = MultiChainSpec(dims=dims, select_prob=(1 / 20_000,) * 20_000)
            start = time.perf_counter()
            first, index = spec.distinct
            best = min(best, time.perf_counter() - start)
        assert first == index == tuple(range(20_000))
        assert best <= 0.5


class TestConditionalMatrix:
    def test_edge_chain(self):
        m = build_conditional_matrix(ehrenfest_dimension(1))
        assert np.array_equal(m, [[0.0, 1.0], [1.0, 0.0]])

    def test_two_ball_chain(self):
        m = build_conditional_matrix(ehrenfest_dimension(2))
        assert np.allclose(m, [[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]], atol=0)

    def test_asymmetric_rows(self):
        m = build_conditional_matrix(DimensionSpec(size=3, decrease_prob=(0.3, 0.6)))
        assert np.allclose(m[1], [0.3, 0.0, 0.7, 0.0], atol=0)
        assert np.allclose(m[2], [0.0, 0.6, 0.0, 0.4], atol=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_row_loop_bit_for_bit(self, seed):
        # random tables and urns, against the row-by-row construction
        def row_loop(spec: DimensionSpec) -> np.ndarray:
            n = spec.size
            m = np.zeros((n + 1, n + 1))
            m[0, 1] = 1.0
            m[n, n - 1] = 1.0
            for k in range(1, n):
                p = spec.decrease_prob[k - 1]
                m[k, k - 1] = p
                m[k, k + 1] = 1.0 - p
            return m

        rng = np.random.default_rng(seed)
        dims = [random_dimension_spec(rng, max_size=60) for _ in range(50)]
        dims += [ehrenfest_dimension(int(n)) for n in (1, 2, *rng.integers(3, 1101, 3))]
        for dim in dims:
            assert build_conditional_matrix(dim).tobytes() == row_loop(dim).tobytes()

    @given(multi_chain_specs(max_dims=1, max_size=12))
    def test_rows_sum_to_one(self, spec):
        m = build_conditional_matrix(spec.dims[0])
        assert float(m.min()) >= 0.0
        assert np.max(np.abs(m.sum(axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(np.diag(m))) == 0.0


class TestStationaryDistribution:
    def test_edge_chain_is_symmetric(self):
        pi = stationary_distribution(build_conditional_matrix(ehrenfest_dimension(1)))
        assert np.allclose(pi, [0.5, 0.5], atol=1e-15)

    def test_two_ball_chain(self):
        # detailed-balance recursion by hand: ratios 1/(1/2) = 2 then (1/2)/1
        pi = stationary_distribution(build_conditional_matrix(ehrenfest_dimension(2)))
        assert np.allclose(pi, [0.25, 0.5, 0.25], atol=1e-15)

    def test_four_ball_chain_is_binomial(self):
        pi = stationary_distribution(build_conditional_matrix(ehrenfest_dimension(4)))
        assert np.max(np.abs(pi - np.array([1, 4, 6, 4, 1]) / 16.0)) <= 1e-12

    @given(multi_chain_specs(max_dims=1, max_size=12))
    def test_detailed_balance_and_stationarity(self, spec):
        m = build_conditional_matrix(spec.dims[0])
        pi = stationary_distribution(m)
        pairwise = pi[:-1] * np.diag(m, 1) - pi[1:] * np.diag(m, -1)
        assert np.max(np.abs(pairwise)) <= 1e-12
        assert np.max(np.abs(pi @ m - pi)) <= 1e-12
        check_probability_vector(pi)

    def test_period_two_cycle_averages_to_the_stationary_law(self):
        # the reflecting chain is periodic: from position 0 its even and odd steps
        # settle apart, and only their average is the stationary law
        m = build_conditional_matrix(ehrenfest_dimension(2))
        even = np.linalg.matrix_power(m, 200)[0]
        odd = np.linalg.matrix_power(m, 201)[0]
        assert np.allclose(even, [0.5, 0.0, 0.5], atol=1e-12)
        assert np.allclose(odd, [0.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose((even + odd) / 2.0, stationary_distribution(m), atol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_large_urn_does_not_overflow(self):
        # pi is proportional to C(N, k), which overflows a double near N = 1030
        n = 1050
        pi = stationary_distribution(build_conditional_matrix(ehrenfest_dimension(n)))
        assert np.all(np.isfinite(pi))
        expected = scipy.stats.binom.pmf(np.arange(n + 1), n, 0.5)
        keep = expected >= 1e-300
        assert np.max(np.abs(pi[keep] - expected[keep]) / expected[keep]) <= 1e-10
