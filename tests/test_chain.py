"""Chain construction, stationary laws and the composite product-space kernel."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings

from bdqw.chain import (
    DimensionSpec,
    MultiChainSpec,
    build_conditional_matrix,
    check_probability_vector,
    ehrenfest_dimension,
    evolve_classical,
    full_transition_matrix,
    stationary_distribution,
    uniform_multi_chain,
)
from bdqw.errors import SizeLimitError

from conftest import multi_chain_specs


def kron_expansion_oracle(spec: MultiChainSpec) -> np.ndarray:
    """Independent triple-loop expansion of the composite kernel."""
    shape = spec.shape
    size = int(np.prod(shape))
    kernels = [build_conditional_matrix(dim) for dim in spec.dims]
    out = np.zeros((size, size))
    for row in range(size):
        row_multi = np.unravel_index(row, shape)
        for col in range(size):
            col_multi = np.unravel_index(col, shape)
            for i, q in enumerate(spec.select_prob):
                if all(
                    row_multi[m] == col_multi[m] for m in range(spec.n_dims) if m != i
                ):
                    out[row, col] += q * kernels[i][row_multi[i], col_multi[i]]
    return out


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

    @pytest.mark.filterwarnings("error")
    def test_large_urn_does_not_overflow(self):
        # pi is proportional to C(N, k), which overflows a double near N = 1030
        n = 1050
        pi = stationary_distribution(build_conditional_matrix(ehrenfest_dimension(n)))
        assert np.all(np.isfinite(pi))
        expected = scipy.stats.binom.pmf(np.arange(n + 1), n, 0.5)
        keep = expected >= 1e-300
        assert np.max(np.abs(pi[keep] - expected[keep]) / expected[keep]) <= 1e-10


class TestFullTransitionMatrix:
    def test_single_dimension_is_the_conditional_kernel(self):
        spec = MultiChainSpec(dims=(ehrenfest_dimension(1),), select_prob=(1.0,))
        assert np.array_equal(full_transition_matrix(spec), [[0, 1], [1, 0]])

    def test_two_edges_uniform(self):
        spec = uniform_multi_chain(ehrenfest_dimension(1), 2)
        m = full_transition_matrix(spec)
        expected = np.array(
            [
                [0.0, 0.5, 0.5, 0.0],
                [0.5, 0.0, 0.0, 0.5],
                [0.5, 0.0, 0.0, 0.5],
                [0.0, 0.5, 0.5, 0.0],
            ]
        )
        assert np.allclose(m, expected, atol=0)
        # doubly stochastic
        assert np.allclose(m.sum(axis=0), 1.0, atol=1e-15)
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-15)

    def test_mixed_sizes_row_sums(self):
        spec = MultiChainSpec(
            dims=(ehrenfest_dimension(1), ehrenfest_dimension(2)),
            select_prob=(0.3, 0.7),
        )
        m = full_transition_matrix(spec)
        assert m.shape == (6, 6)
        assert np.max(np.abs(m.sum(axis=1) - 1.0)) <= 1e-12
        assert np.allclose(m, kron_expansion_oracle(spec), atol=1e-15)

    def test_oracle_cap_enforced(self):
        spec = uniform_multi_chain(ehrenfest_dimension(1), 13)  # 8192 states
        with pytest.raises(SizeLimitError, match="4096"):
            full_transition_matrix(spec)
        with pytest.raises(SizeLimitError, match="64"):
            full_transition_matrix(uniform_multi_chain(ehrenfest_dimension(1), 7), oracle_cap=64)

    @settings(max_examples=40, deadline=None)
    @given(multi_chain_specs(max_dims=3, max_size=4, max_states=256))
    def test_matches_triple_loop_oracle(self, spec):
        m = full_transition_matrix(spec)
        assert np.allclose(m, kron_expansion_oracle(spec), atol=1e-14)
        assert float(m.min()) >= 0.0
        assert np.max(np.abs(m.sum(axis=1) - 1.0)) <= 1e-12


class TestEvolveClassical:
    def test_zero_steps_is_identity(self):
        spec = uniform_multi_chain(ehrenfest_dimension(1), 2)
        m = full_transition_matrix(spec)
        init = np.array([0.25, 0.25, 0.25, 0.25])
        assert np.array_equal(evolve_classical(init, m, 0), init)

    def test_edge_permutation_step(self):
        m = full_transition_matrix(
            MultiChainSpec(dims=(ehrenfest_dimension(1),), select_prob=(1.0,))
        )
        assert np.array_equal(evolve_classical(np.array([1.0, 0.0]), m, 1), [0.0, 1.0])

    def test_period_two_limit_cycle_and_time_average(self):
        m = full_transition_matrix(
            MultiChainSpec(dims=(ehrenfest_dimension(2),), select_prob=(1.0,))
        )
        init = np.array([1.0, 0.0, 0.0])
        even = evolve_classical(init, m, 200)
        odd = evolve_classical(init, m, 201)
        assert np.allclose(even, [0.5, 0.0, 0.5], atol=1e-12)
        assert np.allclose(odd, [0.0, 1.0, 0.0], atol=1e-12)
        average = (even + odd) / 2.0
        assert np.allclose(average, stationary_distribution(m), atol=1e-12)

    def test_dimension_mismatch(self):
        m = full_transition_matrix(
            MultiChainSpec(dims=(ehrenfest_dimension(1),), select_prob=(1.0,))
        )
        with pytest.raises(ValueError):
            evolve_classical(np.array([1.0, 0.0, 0.0]), m, 1)
        with pytest.raises(ValueError):
            evolve_classical(np.array([1.0, 0.0]), m, -1)

    @settings(max_examples=25, deadline=None)
    @given(multi_chain_specs(max_dims=3, max_size=4, max_states=256))
    def test_mass_preserved_per_step(self, spec):
        m = full_transition_matrix(spec)
        rng = np.random.default_rng(7)
        init = rng.uniform(0.0, 1.0, size=spec.product_size)
        init /= init.sum()
        dist = init
        for _ in range(5):
            dist = evolve_classical(dist, m, 1)
            assert abs(float(dist.sum()) - 1.0) <= 1e-12
