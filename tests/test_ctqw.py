"""Propagators, transition probabilities and the factorized-vs-dense equivalence."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from bdqw.chain import (
    MultiChainSpec,
    build_conditional_matrix,
    ehrenfest_dimension,
    stationary_distribution,
    uniform_multi_chain,
)
from bdqw.ctqw import (
    dense_position_distribution,
    dense_propagator,
    dense_transition_matrix,
    ehrenfest_sum_law,
    factorized_transition_matrix,
    position_distribution,
    propagator,
    transition_matrix_1d,
    transition_prob_1d,
    transition_prob_dense,
    transition_prob_factorized,
    transition_prob_weight_form,
    transition_row,
)
from bdqw.errors import SizeLimitError
from bdqw.spectral import dimension_spectrum
from bdqw.stats import convolve_sum

from conftest import multi_chain_specs, random_multi_chain_spec


def symmetrized_kernel_oracle(dim) -> np.ndarray:
    """Dense D^{1/2} P D^{-1/2}, independent of the spectral module."""
    m = build_conditional_matrix(dim)
    pi = stationary_distribution(m)
    root = np.sqrt(pi)
    return np.diag(root) @ m @ np.diag(1.0 / root)


def expm_oracle(spec: MultiChainSpec, t: float) -> np.ndarray:
    """Structure-blind scaling-and-squaring propagator over the product space."""
    generator = np.zeros((spec.product_size, spec.product_size))
    for i, q in enumerate(spec.select_prob):
        term = np.ones((1, 1))
        for j, dim in enumerate(spec.dims):
            block = symmetrized_kernel_oracle(dim) if j == i else np.eye(dim.n_states)
            term = np.kron(term, block)
        generator += q * term
    return scipy.linalg.expm(1j * t * generator)


EDGE = dimension_spectrum(ehrenfest_dimension(1))


class TestPropagator:
    def test_edge_chain_cosine_sine_form(self):
        for t in (0.0, 0.3, 1.0, math.pi, -2.0):
            u = propagator(EDGE, t)
            assert isinstance(u, np.ndarray) and u.dtype == complex
            expected = np.array(
                [[math.cos(t), 1j * math.sin(t)], [1j * math.sin(t), math.cos(t)]]
            )
            assert np.max(np.abs(u - expected)) <= 1e-14

    def test_zero_time_is_identity(self):
        data = dimension_spectrum(ehrenfest_dimension(4))
        u = propagator(data, 0.0)
        assert np.max(np.abs(u - np.eye(5))) <= 1e-14

    def test_inverse_evolution(self):
        data = dimension_spectrum(ehrenfest_dimension(2))
        forward = propagator(data, math.pi)
        backward = propagator(data, -math.pi)
        assert np.max(np.abs(forward @ backward - np.eye(3))) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(multi_chain_specs(max_dims=1, max_size=8), st.floats(-10, 10))
    def test_unitary_and_symmetric(self, spec, t):
        data = dimension_spectrum(spec.dims[0])
        u = propagator(data, t)
        n = u.shape[0]
        assert np.max(np.abs(u.conj().T @ u - np.eye(n))) <= 1e-10
        assert np.max(np.abs(u - u.T)) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        multi_chain_specs(max_dims=1, max_size=8),
        st.floats(-5, 5),
        st.floats(-5, 5),
    )
    def test_group_property(self, spec, t1, t2):
        data = dimension_spectrum(spec.dims[0])
        composed = propagator(data, t1) @ propagator(data, t2)
        direct = propagator(data, t1 + t2)
        assert np.max(np.abs(composed - direct)) <= 1e-10

    def test_basis_state_round_trip(self):
        # column j of U(t) is the basis state j evolved for time t
        data = dimension_spectrum(ehrenfest_dimension(2))
        evolved = propagator(data, 0.7)[:, 1]
        assert abs(float(np.sum(np.abs(evolved) ** 2)) - 1.0) <= 1e-12
        assert np.allclose(np.abs(evolved) ** 2, transition_row(data, 0.7, 1), atol=1e-12)


class TestTransitionProb1d:
    def test_edge_law(self):
        for t in (0.2, 1.0, math.pi / 2, 5.5):
            assert abs(transition_prob_1d(EDGE, t, 0, 1) - math.sin(t) ** 2) <= 1e-12
            assert abs(transition_prob_1d(EDGE, t, 0, 0) - math.cos(t) ** 2) <= 1e-12

    def test_zero_time_is_point_mass(self):
        data = dimension_spectrum(ehrenfest_dimension(3))
        for j in range(4):
            for k in range(4):
                expected = 1.0 if j == k else 0.0
                assert abs(transition_prob_1d(data, 0.0, j, k) - expected) <= 1e-14

    def test_two_method_agreement_with_expm(self):
        spec = MultiChainSpec(dims=(ehrenfest_dimension(2),), select_prob=(1.0,))
        data = dimension_spectrum(ehrenfest_dimension(2))
        u = expm_oracle(spec, math.pi / 2)
        for k in range(3):
            direct = transition_prob_1d(data, math.pi / 2, 0, k)
            assert abs(direct - abs(u[k, 0]) ** 2) <= 1e-12

    def test_weight_form_agrees(self):
        data = dimension_spectrum(ehrenfest_dimension(4))
        for t in (0.3, 1.7):
            for j in range(5):
                for k in range(5):
                    direct = transition_prob_1d(data, t, j, k)
                    weighted = transition_prob_weight_form(data, t, j, k)
                    assert abs(direct - weighted) <= 1e-12

    def test_out_of_range_positions(self):
        with pytest.raises(ValueError):
            transition_prob_1d(EDGE, 1.0, 0, 2)
        with pytest.raises(ValueError):
            transition_prob_1d(EDGE, 1.0, -1, 0)

    def test_row_rejects_bad_index(self):
        with pytest.raises(ValueError):
            transition_row(dimension_spectrum(ehrenfest_dimension(2)), 0.7, 3)

    @settings(max_examples=30, deadline=None)
    @given(multi_chain_specs(max_dims=1, max_size=8), st.floats(-10, 10))
    def test_rows_normalize_and_symmetry(self, spec, t):
        data = dimension_spectrum(spec.dims[0])
        matrix = transition_matrix_1d(data, t)
        assert np.max(np.abs(matrix.sum(axis=0) - 1.0)) <= 1e-10
        assert np.max(np.abs(matrix - matrix.T)) <= 1e-12
        for j in range(data.n_states):
            assert np.max(np.abs(transition_row(data, t, j) - matrix[:, j])) <= 1e-13
            for k in range(data.n_states):
                assert abs(matrix[k, j] - transition_prob_1d(data, t, j, k)) <= 1e-13


class TestFactorizedVsDense:
    def test_two_edges_closed_form(self):
        spec = uniform_multi_chain(ehrenfest_dimension(1), 2)
        spectra = (EDGE, EDGE)
        for t in (0.3, 1.0, 2.2):
            got = transition_prob_factorized(spec, spectra, t, (0, 0), (1, 1))
            assert abs(got - math.sin(t / 2) ** 4) <= 1e-12

    def test_zero_time_point_mass(self):
        spec = MultiChainSpec(
            dims=(ehrenfest_dimension(1), ehrenfest_dimension(2)),
            select_prob=(0.3, 0.7),
        )
        spectra = tuple(dimension_spectrum(d) for d in spec.dims)
        assert abs(transition_prob_factorized(spec, spectra, 0.0, (0, 1), (0, 1)) - 1.0) <= 1e-14
        assert transition_prob_factorized(spec, spectra, 0.0, (0, 1), (1, 1)) <= 1e-14

    def test_two_edges_dense_propagator_is_tensor_square(self):
        spec = uniform_multi_chain(ehrenfest_dimension(1), 2)
        t = 1.3
        u1 = propagator(EDGE, t / 2)
        expected = np.kron(u1, u1)
        got = dense_propagator(spec, (EDGE, EDGE), t)
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_all_pairs_against_dense_oracle(self):
        spec = MultiChainSpec(
            dims=(ehrenfest_dimension(1), ehrenfest_dimension(2)),
            select_prob=(0.3, 0.7),
        )
        spectra = tuple(dimension_spectrum(d) for d in spec.dims)
        fact = factorized_transition_matrix(spec, spectra, 1.0)
        dense = dense_transition_matrix(spec, spectra, 1.0)
        assert np.max(np.abs(fact - dense)) <= 1e-10
        for j0 in range(2):
            for j1 in range(3):
                for k0 in range(2):
                    for k1 in range(3):
                        got = transition_prob_factorized(spec, spectra, 1.0, (j0, j1), (k0, k1))
                        assert abs(got - fact[k0 * 3 + k1, j0 * 3 + j1]) <= 1e-13
                        point = transition_prob_dense(spec, spectra, 1.0, (j0, j1), (k0, k1))
                        assert abs(got - point) <= 1e-10

    def test_dense_agrees_with_expm_oracle(self):
        spec = MultiChainSpec(
            dims=(ehrenfest_dimension(2), ehrenfest_dimension(1)),
            select_prob=(0.4, 0.6),
        )
        spectra = tuple(dimension_spectrum(d) for d in spec.dims)
        for t in (0.5, 2.0):
            u = dense_propagator(spec, spectra, t)
            assert np.max(np.abs(u - expm_oracle(spec, t))) <= 1e-11

    def test_single_dimension_degenerates_to_1d(self):
        spec = MultiChainSpec(dims=(ehrenfest_dimension(3),), select_prob=(1.0,))
        data = dimension_spectrum(ehrenfest_dimension(3))
        for j in range(4):
            for k in range(4):
                dense = transition_prob_dense(spec, (data,), 0.9, (j,), (k,))
                assert abs(dense - transition_prob_1d(data, 0.9, j, k)) <= 1e-12

    def test_dense_rows_sum_to_one(self):
        spec = MultiChainSpec(
            dims=(ehrenfest_dimension(1), ehrenfest_dimension(2)),
            select_prob=(0.25, 0.75),
        )
        spectra = tuple(dimension_spectrum(d) for d in spec.dims)
        matrix = dense_transition_matrix(spec, spectra, 4.2)
        assert np.max(np.abs(matrix.sum(axis=0) - 1.0)) <= 1e-10

    def test_cap_enforced(self):
        spec = uniform_multi_chain(ehrenfest_dimension(1), 13)
        with pytest.raises(SizeLimitError):
            transition_prob_dense(spec, (EDGE,) * 13, 1.0, (0,) * 13, (0,) * 13)

    def test_time_rescaling_is_load_bearing(self):
        spec = MultiChainSpec(
            dims=(ehrenfest_dimension(1), ehrenfest_dimension(2)),
            select_prob=(0.3, 0.7),
        )
        spectra = tuple(dimension_spectrum(d) for d in spec.dims)
        mutated = np.ones((1, 1))
        for s in spectra:
            mutated = np.kron(mutated, transition_matrix_1d(s, 1.0))  # rescaling dropped
        dense = dense_transition_matrix(spec, spectra, 1.0)
        assert np.max(np.abs(mutated - dense)) > 1e-3

    @settings(max_examples=25, deadline=None)
    @given(multi_chain_specs(max_dims=3, max_size=4, max_states=256), st.sampled_from([0.1, 0.7, 1.0, math.pi, 10.0]))
    def test_equivalence_property(self, spec, t):
        spectra = tuple(dimension_spectrum(d) for d in spec.dims)
        fact = factorized_transition_matrix(spec, spectra, t)
        dense = dense_transition_matrix(spec, spectra, t)
        assert np.max(np.abs(fact - dense)) <= 1e-10

    def test_index_validation(self):
        spec = uniform_multi_chain(ehrenfest_dimension(1), 2)
        spectra = (EDGE, EDGE)
        with pytest.raises(ValueError):
            transition_prob_factorized(spec, spectra, 1.0, (0,), (0, 0))
        with pytest.raises(ValueError):
            transition_prob_factorized(spec, spectra, 1.0, (0, 2), (0, 0))
        with pytest.raises(ValueError):
            transition_prob_factorized(spec, (EDGE,), 1.0, (0, 0), (0, 0))
        with pytest.raises(ValueError, match="1 spectra supplied for 2"):
            transition_prob_dense(spec, (EDGE,), 1.0, (0, 0), (0, 0))
        with pytest.raises(ValueError, match="spectrum size"):
            dense_propagator(spec, (EDGE, dimension_spectrum(ehrenfest_dimension(2))), 1.0)


class TestPositionDistribution:
    def test_zero_time_point_mass(self):
        spec = MultiChainSpec(
            dims=(ehrenfest_dimension(2), ehrenfest_dimension(1)),
            select_prob=(0.5, 0.5),
        )
        spectra = tuple(dimension_spectrum(d) for d in spec.dims)
        marginals = position_distribution(spec, spectra, 0.0, (1, 0))
        assert np.allclose(marginals[0], [0.0, 1.0, 0.0], atol=1e-14)
        assert np.allclose(marginals[1], [1.0, 0.0], atol=1e-14)

    def test_three_edges_bernoulli_factors(self):
        spec = uniform_multi_chain(ehrenfest_dimension(1), 3)
        spectra = (EDGE,) * 3
        t = 1.8
        marginals = position_distribution(spec, spectra, t, (0, 0, 0))
        p = math.sin(t / 3) ** 2
        for factor in marginals:
            assert np.allclose(factor, [1.0 - p, p], atol=1e-12)

    def test_densified_matches_dense_oracle(self):
        spec = MultiChainSpec(
            dims=(ehrenfest_dimension(1), ehrenfest_dimension(2)),
            select_prob=(0.2, 0.8),
        )
        spectra = tuple(dimension_spectrum(d) for d in spec.dims)
        first, second = position_distribution(spec, spectra, 1.4, (1, 2))
        dense = dense_position_distribution(spec, spectra, 1.4, (1, 2))
        assert abs(float(dense.sum()) - 1.0) <= 1e-10
        assert np.max(np.abs(np.outer(first, second).ravel() - dense)) <= 1e-10


class TestKrawtchoukClosedForm:
    """The n-ball urn's exact law, far beyond the Hypothesis sizes.

    The symmetrized urn generator is the Krawtchouk chain: from position 0
    the law at time t is Binomial(N, sin^2(t/N)), with perfect transfer to N
    at t = N pi / 2 (Christandl et al., PRL 92, 187902, 2004).
    """

    N = 240

    @pytest.fixture(scope="class")
    def urn(self):
        return dimension_spectrum(ehrenfest_dimension(self.N))

    @pytest.mark.parametrize("t", [0.5, 7.3, 60.0, 240 * math.pi / 2])
    def test_row_from_origin_is_binomial(self, urn, t):
        expected = scipy.stats.binom.pmf(np.arange(self.N + 1), self.N, math.sin(t / self.N) ** 2)
        assert np.max(np.abs(transition_row(urn, t, 0) - expected)) <= 1e-12

    def test_weights_are_binomial_half(self, urn):
        # The QL solver keeps small weights to ~6e-13 relative.  LAPACK's
        # eigh on the same tridiagonal agrees on probabilities but returns a
        # smallest weight of ~1.4e-43 where the exact one is 2^-240 ~ 5.6e-73,
        # which is why the hand-written solver stays.
        expected = scipy.stats.binom.pmf(np.arange(self.N + 1), self.N, 0.5)
        assert np.max(np.abs(urn.weights - expected) / expected) <= 1e-10


class TestEhrenfestSumLaw:
    def test_single_walker_at_quarter_turn(self):
        mass = ehrenfest_sum_law(1, math.pi / 2)
        assert np.allclose(mass, [0.0, 1.0], atol=1e-14)

    def test_two_walkers_binomial_shape(self):
        t = 1.1
        p = math.sin(t / 2) ** 2
        q = 1.0 - p
        mass = ehrenfest_sum_law(2, t)
        assert np.allclose(mass, [q * q, 2 * p * q, p * p], atol=1e-14)

    def test_matches_factor_convolution(self):
        d, t = 4, 1.0
        spec = uniform_multi_chain(ehrenfest_dimension(1), d)
        spectra = (EDGE,) * d
        summed = convolve_sum(position_distribution(spec, spectra, t, (0,) * d))
        assert np.max(np.abs(summed.mass - ehrenfest_sum_law(d, t))) <= 1e-12

    def test_large_d_stays_finite_and_binomial(self):
        # C(d, k) overflows and p^k underflows here, so their direct product is NaN
        d = 2000
        mass = ehrenfest_sum_law(d, d * math.pi / 4)
        assert np.isfinite(mass).all()
        assert abs(float(mass.sum()) - 1.0) <= 1e-10
        expected = scipy.stats.binom.pmf(np.arange(d + 1), d, 0.5)
        assert np.max(np.abs(mass - expected)) <= 1e-12

    def test_rejects_nonpositive_d(self):
        with pytest.raises(ValueError):
            ehrenfest_sum_law(0, 1.0)


class TestAcceptanceScaleSpotChecks:
    def test_random_spec_equivalence(self):
        rng = np.random.default_rng(123)
        for _ in range(5):
            spec = random_multi_chain_spec(rng, max_dims=3, max_size=4)
            spectra = tuple(dimension_spectrum(d) for d in spec.dims)
            t = float(rng.uniform(-3, 3))
            fact = factorized_transition_matrix(spec, spectra, t)
            dense = dense_transition_matrix(spec, spectra, t)
            assert np.max(np.abs(fact - dense)) <= 1e-10
