"""Propagators, transition probabilities and the factorized-vs-oracle equivalence."""

from __future__ import annotations

import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
import scipy.linalg
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from bdqw import ctqw
from bdqw.chain import (
    DimensionSpec,
    MultiChainSpec,
    ehrenfest_dimension,
    uniform_multi_chain,
)
from bdqw.cli import parse_config
from bdqw.ctqw import (
    _amplitudes,
    _check_position,
    dense_position_distribution,
    ehrenfest_sum_law,
    position_distribution,
    transition_matrix_1d,
    transition_prob_1d,
    transition_prob_factorized,
    transition_row,
)
from bdqw.errors import NumericalError, SizeLimitError
from bdqw.spectral import SpectralData, chain_spectra, dimension_spectrum
from bdqw.stats import convolve_sum

from conftest import (
    expm_oracle,
    expm_transition_matrix,
    factorized_transition_matrix,
    multi_chain_specs,
    poly_table,
    propagator,
    random_dimension_spec,
    random_multi_chain_spec,
    symmetrized_kernel_oracle,
    weights,
)


def triple_loop_generator(spec: MultiChainSpec) -> np.ndarray:
    """Entry-by-entry expansion of the q-weighted composition of the symmetrized kernels.

    Row and column walk the product basis in C order; dimension i contributes
    q_i times its kernel entry wherever every other coordinate agrees.
    """
    kernels = [symmetrized_kernel_oracle(dim) for dim in spec.dims]
    out = np.zeros((spec.product_size, spec.product_size))
    for row, row_multi in enumerate(np.ndindex(spec.shape)):
        for col, col_multi in enumerate(np.ndindex(spec.shape)):
            for i, q in enumerate(spec.select_prob):
                if all(row_multi[m] == col_multi[m] for m in range(spec.n_dims) if m != i):
                    out[row, col] += q * kernels[i][row_multi[i], col_multi[i]]
    return out


def oracle_propagator(spec: MultiChainSpec, t: float) -> np.ndarray:
    """The oracle's e^{itH} as one complex matrix: the Chebyshev sums of every e_j, as columns."""
    even, odd = ctqw._chebyshev_propagate(spec, np.eye(spec.product_size), t)
    return (even + 1j * odd).T


def transition_prob_weight_form(spectrum: SpectralData, t: float, j: int, k: int) -> float:
    """transition_prob_1d evaluated through the polynomial table and weights.

    Numerically secondary (it divides by first components); kept as the
    independent route for orthogonality/weight verification.
    """
    _check_position(spectrum.n_states, j, "j")
    _check_position(spectrum.n_states, k, "k")
    poly = poly_table(spectrum)
    amp = np.sum(np.exp(1j * t * spectrum.eigenvalues) * poly[k] * poly[j] * weights(spectrum))
    return float(abs(amp) ** 2)


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

    def test_one_element_matches_the_row_bit_for_bit(self):
        # A 0-d amplitude squared with ** goes through pow, which misses the
        # correctly rounded square that the row's arrays get at 21 of these times.
        times = np.linspace(0.0, 5.0, 20_002)[1:].tolist()
        missed = [
            t for t in times if transition_prob_1d(EDGE, t, 0, 1) != transition_row(EDGE, t, 0)[1]
        ]
        assert missed == []

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


class TestContractionKernel:
    """Every spectral route is a slice of V diag(e^{i t lambda}) V^T for one basis V."""

    @settings(max_examples=30, deadline=None)
    @given(multi_chain_specs(max_dims=1, max_size=8), st.floats(-10, 10), st.data())
    def test_one_factor_is_the_two_matmuls_bit_for_bit(self, spec, t, data):
        # the phases scale the column side: V[rows] @ (V[cols] e^{i t lambda})^T
        s = dimension_spectrum(spec.dims[0])
        v, lam_t = s.eigenvectors, t * s.eigenvalues
        j = data.draw(st.integers(0, s.n_states - 1))
        k = data.draw(st.integers(0, s.n_states - 1))
        for l, phase in enumerate((np.cos(lam_t), np.sin(lam_t))):
            assert np.array_equal(_amplitudes(v, s.eigenvalues, t)[l], v @ (v * phase).T)
            column = _amplitudes(v, s.eigenvalues, t, slice(None), j)[l]
            assert np.array_equal(column, v @ (v[j] * phase))
            element = _amplitudes(v, s.eigenvalues, t, slice(k, k + 1), j)[l]
            assert np.array_equal(element, v[k : k + 1] @ (v[j] * phase))

    @pytest.mark.parametrize("n_balls", [1, 4, 96])
    def test_a_stacked_column_is_each_time_s_own_call_bit_for_bit(self, n_balls):
        s = dimension_spectrum(ehrenfest_dimension(n_balls))
        times = np.array([0.0, 0.37, -2.5, 11.0, 1e3])
        for rows, col in ((slice(None), 0), (slice(1, 2), n_balls), (slice(None), slice(0, 2))):
            stacked = _amplitudes(s.eigenvectors, s.eigenvalues, times, rows, col)
            for i, t in enumerate(times.tolist()):
                alone = _amplitudes(s.eigenvectors, s.eigenvalues, t, rows, col)
                for l in range(2):
                    assert np.array_equal(stacked[l][i], alone[l])

    def test_stacked_rows_hold_a_few_columns(self):
        # 4 times on the N = 400 urn: the kernel holds (times, n) arrays; with
        # the phases on the row side it held (times, n, n) products, 4.08 n^2
        s = dimension_spectrum(ehrenfest_dimension(400))
        times = np.array([0.3, 1.7, 25.0, 400.0])
        tracemalloc.start()
        try:
            parts = _amplitudes(s.eigenvectors, s.eigenvalues, times, slice(None), 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * 8 * 401**2
        assert np.max(np.abs(ctqw._probabilities(parts).sum(axis=1) - 1.0)) <= 1e-12


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

    def test_an_underflowing_product_is_reported(self):
        # Flipping all 2000 edges at t = 1: each factor is sin^2(1/2000), about
        # 2.5e-7, and their product, 10^-13204.1, rounds to 0.0.
        d = 2000
        spec = uniform_multi_chain(ehrenfest_dimension(1), d)
        log10 = d * math.log10(math.sin(1.0 / d) ** 2)
        with pytest.raises(NumericalError) as exc:
            transition_prob_factorized(spec, (EDGE,) * d, 1.0, (0,) * d, (1,) * d)
        assert f"{log10:.1f}" == "-13204.1"
        assert str(exc.value) == (
            f"transition probability underflows: the product of {d} positive factors "
            f"is 10^{log10:.1f}, below the smallest double"
        )
        # a product that is representable is returned as before
        assert transition_prob_factorized(spec, (EDGE,) * d, 1.0, (0,) * d, (0,) * d) > 0.99

    @pytest.mark.parametrize("t", [0.0, 20 * math.pi])
    def test_a_product_of_rounding_noise_is_zero(self, t):
        # Flipping all 20 edges at t = 0, or at q t = pi (q = 1/20), is exactly 0;
        # each factor comes out as rounding noise (5e-34 and 1.5e-32), whose
        # product rounds to 0.0, which is the probability, not an underflow.
        d = 20
        spec = uniform_multi_chain(ehrenfest_dimension(1), d)
        assert 0.0 < transition_prob_1d(EDGE, t / d, 0, 1) <= 1e-30
        assert transition_prob_factorized(spec, (EDGE,) * d, t, (0,) * d, (1,) * d) == 0.0

    def test_two_edges_dense_propagator_is_tensor_square(self):
        spec = uniform_multi_chain(ehrenfest_dimension(1), 2)
        t = 1.3
        u1 = propagator(EDGE, t / 2)
        assert np.max(np.abs(np.kron(u1, u1) - expm_oracle(spec, t))) <= 1e-12
        assert np.max(np.abs(oracle_propagator(spec, t) - expm_oracle(spec, t))) <= 1e-13

    def test_all_pairs_against_dense_oracle(self):
        spec = MultiChainSpec(
            dims=(ehrenfest_dimension(1), ehrenfest_dimension(2)),
            select_prob=(0.3, 0.7),
        )
        spectra = tuple(dimension_spectrum(d) for d in spec.dims)
        fact = factorized_transition_matrix(spec, spectra, 1.0)
        assert np.max(np.abs(fact - expm_transition_matrix(spec, 1.0))) <= 1e-10
        for j0 in range(2):
            for j1 in range(3):
                column = dense_position_distribution(spec, 1.0, (j0, j1))
                for k0 in range(2):
                    for k1 in range(3):
                        got = transition_prob_factorized(spec, spectra, 1.0, (j0, j1), (k0, k1))
                        assert abs(got - fact[k0 * 3 + k1, j0 * 3 + j1]) <= 1e-13
                        assert abs(got - column[k0 * 3 + k1]) <= 1e-10

    def test_dense_agrees_with_expm_oracle(self):
        spec = MultiChainSpec(
            dims=(ehrenfest_dimension(2), ehrenfest_dimension(1)),
            select_prob=(0.4, 0.6),
        )
        for t in (0.5, 2.0):
            u = expm_oracle(spec, t)
            assert np.max(np.abs(oracle_propagator(spec, t) - u)) <= 1e-13
            for flat, j in enumerate(np.ndindex(spec.shape)):
                law = dense_position_distribution(spec, t, j)
                assert np.max(np.abs(law - np.abs(u[:, flat]) ** 2)) <= 1e-13

    @settings(max_examples=25, deadline=None)
    @given(multi_chain_specs(max_dims=3, max_size=4, max_states=64), st.sampled_from([0.5, 2.0, 7.0]))
    def test_dense_oracle_is_the_exponential_of_the_triple_loop_generator(self, spec, t):
        # independent of the Kronecker build of expm_oracle: the composite is expanded by index
        expected = scipy.linalg.expm(1j * t * triple_loop_generator(spec))
        assert np.max(np.abs(oracle_propagator(spec, t) - expected)) <= 1e-12

    def test_single_dimension_degenerates_to_1d(self):
        spec = MultiChainSpec(dims=(ehrenfest_dimension(3),), select_prob=(1.0,))
        data = dimension_spectrum(ehrenfest_dimension(3))
        for j in range(4):
            column = dense_position_distribution(spec, 0.9, (j,))
            for k in range(4):
                assert abs(column[k] - transition_prob_1d(data, 0.9, j, k)) <= 1e-12

    def test_dense_rows_sum_to_one(self):
        spec = MultiChainSpec(
            dims=(ehrenfest_dimension(1), ehrenfest_dimension(2)),
            select_prob=(0.25, 0.75),
        )
        for j in np.ndindex(spec.shape):
            assert abs(dense_position_distribution(spec, 4.2, j).sum() - 1.0) <= 1e-10

    def test_cap_enforced(self):
        spec = uniform_multi_chain(ehrenfest_dimension(1), 13)
        with pytest.raises(SizeLimitError, match="exceeding the oracle cap of 4096"):
            dense_position_distribution(spec, 1.0, (0,) * 13)
        # the column takes about |t| Chebyshev terms, so the cap bounds |t| too
        small = uniform_multi_chain(ehrenfest_dimension(1), 2)
        with pytest.raises(SizeLimitError, match=r"^t\[0\]: -5.0 is beyond the oracle cap of 4 on"):
            dense_position_distribution(small, -5.0, (0, 0), 4)
        assert dense_position_distribution(small, -4.0, (0, 0), 4).shape == (4,)

    def test_time_rescaling_is_load_bearing(self):
        spec = MultiChainSpec(
            dims=(ehrenfest_dimension(1), ehrenfest_dimension(2)),
            select_prob=(0.3, 0.7),
        )
        spectra = tuple(dimension_spectrum(d) for d in spec.dims)
        mutated = np.ones((1, 1))
        for s in spectra:
            mutated = np.kron(mutated, transition_matrix_1d(s, 1.0))  # rescaling dropped
        assert np.max(np.abs(mutated - expm_transition_matrix(spec, 1.0))) > 1e-3

    @settings(max_examples=25, deadline=None)
    @given(multi_chain_specs(max_dims=3, max_size=4, max_states=256), st.sampled_from([0.1, 0.7, 1.0, math.pi, 10.0]))
    def test_equivalence_property(self, spec, t):
        spectra = tuple(dimension_spectrum(d) for d in spec.dims)
        fact = factorized_transition_matrix(spec, spectra, t)
        assert np.max(np.abs(fact - expm_transition_matrix(spec, t))) <= 1e-10

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
            transition_prob_factorized(spec, (EDGE,), 1.0, (0, 0), (0, 0))
        with pytest.raises(ValueError, match="spectrum size"):
            urn = dimension_spectrum(ehrenfest_dimension(2))
            transition_prob_factorized(spec, (EDGE, urn), 1.0, (0, 0), (0, 0))
        with pytest.raises(ValueError, match="multi-index j has length 1, expected 2"):
            dense_position_distribution(spec, 1.0, (0,))
        with pytest.raises(ValueError, match=r"position j=2 out of range 0\.\.1"):
            dense_position_distribution(spec, 1.0, (0, 2))

    def test_one_spectrum_object_is_checked_at_every_size(self):
        # the size check runs once per distinct (spectrum object, size) pair:
        # EDGE fits the 9 999 edges and not the urn of 3 states at the end
        d = 10_000
        spec = MultiChainSpec(
            dims=(ehrenfest_dimension(1),) * (d - 1) + (ehrenfest_dimension(2),),
            select_prob=(1 / d,) * d,
        )
        j = (0,) * d
        for call in (
            lambda: transition_prob_factorized(spec, (EDGE,) * d, 1.0, j, j),
            lambda: position_distribution(spec, (EDGE,) * d, 1.0, j),
        ):
            with pytest.raises(ValueError, match="^spectrum size does not match its dimension$"):
                call()

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_chains_of_mixed_sizes(self, data):
        # 2-3 dimensions of distinct sizes, random tables, weights, positions and time
        sizes = data.draw(st.lists(st.integers(1, 6), min_size=2, max_size=3, unique=True))
        step = st.floats(0.01, 0.99)
        tables = [data.draw(st.lists(step, min_size=n - 1, max_size=n - 1)) for n in sizes]
        dims = tuple(DimensionSpec(size=n, decrease_prob=table) for n, table in zip(sizes, tables))
        raw = data.draw(st.lists(st.floats(0.05, 1.0), min_size=len(dims), max_size=len(dims)))
        spec = MultiChainSpec(dims=dims, select_prob=tuple(q / math.fsum(raw) for q in raw))
        j, k = (tuple(data.draw(st.integers(0, n)) for n in sizes) for _ in range(2))
        t = data.draw(st.floats(-12.0, 12.0))
        spectra = chain_spectra(spec)
        fact = transition_prob_factorized(spec, spectra, t, j, k)
        column = dense_position_distribution(spec, t, j)
        assert abs(fact - column[np.ravel_multi_index(k, spec.shape)]) <= 1e-12
        joint = reduce(np.multiply.outer, position_distribution(spec, spectra, t, j)).ravel()
        assert np.max(np.abs(joint - column)) <= 1e-12


class TestCheckOracleWork:
    def test_cap_is_inclusive_and_named(self):
        ctqw._check_oracle_work(4096, (), 4096)
        size = uniform_multi_chain(ehrenfest_dimension(1), 13).product_size
        with pytest.raises(SizeLimitError, match="8192 states, exceeding the oracle cap of 4096"):
            ctqw._check_oracle_work(size, (), 4096)
        with pytest.raises(SizeLimitError, match="128 states, exceeding the oracle cap of 64"):
            ctqw._check_oracle_work(128, (), 64)

    def test_the_cap_has_no_default(self):
        # every caller passes the cap it was given; there is no second default to drift
        with pytest.raises(TypeError):
            ctqw._check_oracle_work(4097, ())

    @pytest.mark.parametrize(
        "size, states",
        [
            (2**63 - 1, "9223372036854775807"),
            (2**63, "at least 2^63"),
            (2**64 - 1, "at least 2^63"),
            (2**15000, "at least 2^15000"),
            (3**10000, "at least 2^15849"),
        ],
        ids=["2^63-1", "2^63", "2^64-1", "2^15000", "3^10000"],  # ids without str(size)
    )
    def test_a_size_from_2_to_the_63_is_named_by_its_bit_length(self, size, states):
        # str(size) raises ValueError past 4300 digits, and 2^4000 has 1205 of them
        with pytest.raises(SizeLimitError) as raised:
            ctqw._check_oracle_work(size, (), 4096)
        expected = f"product space has {states} states, exceeding the oracle cap of 4096"
        assert str(raised.value) == expected

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_time_is_named(self, bad):
        # abs(nan) > cap is False, so a NaN time passed the cap and reached the series
        ctqw._check_oracle_work(4, (1.0, 4096.0), 4096, "time")
        with pytest.raises(ValueError, match=r"^time\[1\]: .* is not a finite time$"):
            ctqw._check_oracle_work(4, (1.0, bad), 4096, "time")


class TestChebyshevPropagation:
    """verify's spectrum-free side of Theorem 1: e^{itH} x from Chebyshev terms of H."""

    @pytest.mark.parametrize("t", [0.0, 3e-17, -1e-9, -7.3, 0.5, 7.3, 60.0, 1000.0, 4096.0])
    def test_bessel_coefficients_match_scipy(self, t):
        coeffs = ctqw._bessel_coefficients(t)
        k = np.arange(len(coeffs) + 2)
        reference = scipy.special.jv(k, t)
        assert np.max(np.abs(coeffs - reference[:-2])) <= 1e-13
        # cut at the first k > |t| with |J_k| and |J_{k+1}| below 1e-17
        assert len(coeffs) > abs(t)
        assert np.all(np.abs(reference[-2:]) < 1e-17)
        assert len(coeffs) - 1 <= abs(t) or np.max(np.abs(reference[-3:-1])) >= 1e-17

    @pytest.mark.parametrize("sizes", [(198,), (9, 19), (4, 5, 6), (1, 2, 3, 4)])
    def test_column_matches_expm_and_the_dense_oracle(self, sizes):
        # random chains of 120 to 210 states; the kernels alone drive the series
        rng = np.random.default_rng(sum(sizes))
        dims = tuple(
            DimensionSpec(size=n, decrease_prob=tuple(rng.uniform(0.02, 0.98, n - 1)))
            for n in sizes
        )
        q = rng.uniform(0.1, 1.0, len(sizes))
        spec = MultiChainSpec(dims=dims, select_prob=tuple(q / q.sum()))
        spectra = chain_spectra(spec)
        j = tuple(int(rng.integers(n)) for n in spec.shape)
        start = np.zeros((1, spec.product_size))
        start[0, np.ravel_multi_index(j, spec.shape)] = 1.0
        basis = start.reshape((1,) + spec.shape)  # the factorized side takes real vectors
        for t in (0.7, -7.3, 7.3, 60.0):
            expected = expm_oracle(spec, t)[:, np.ravel_multi_index(j, spec.shape)]
            even, odd = ctqw._chebyshev_propagate(spec, start, t)[:, 0]
            assert np.max(np.abs(even + 1j * odd - expected)) <= 1e-13
            # the joint law is the column's two sums squared, a real start needing one row
            assert np.array_equal(dense_position_distribution(spec, t, j), even * even + odd * odd)
            factorized = ctqw._factorized_propagate(spec, spectra, basis, t).ravel()
            assert np.max(np.abs(factorized - expected)) <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(multi_chain_specs(max_dims=3, max_size=5, max_states=128), st.floats(-60, 60), st.data())
    def test_column_matches_the_expm_column(self, spec, t, data):
        j = tuple(data.draw(st.integers(0, n - 1)) for n in spec.shape)
        expected = expm_oracle(spec, t)[:, np.ravel_multi_index(j, spec.shape)]
        law = dense_position_distribution(spec, t, j)
        assert np.max(np.abs(law - np.abs(expected) ** 2)) <= 1e-13

    def test_each_kernel_is_built_once_per_distinct_dimension(self, monkeypatch):
        # twelve equal but separate edges and one urn: two distinct dimensions
        built = []
        real = ctqw.build_conditional_matrix

        def counted(dim):
            built.append(dim)
            return real(dim)

        monkeypatch.setattr(ctqw, "build_conditional_matrix", counted)
        dims = tuple(ehrenfest_dimension(1) for _ in range(12)) + (ehrenfest_dimension(2),)
        spec = MultiChainSpec(dims=dims, select_prob=(1 / 13,) * 13)
        law = dense_position_distribution(spec, 0.7, (0,) * 13, 2**14)
        assert built == [dims[0], dims[12]]
        assert abs(law.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("n_balls, d", [(1, 16), (15, 4)])
    def test_column_holds_its_weights_and_a_few_rows(self, n_balls, d):
        # 2^16 states: the flat layout keeps one weight array per axis, each as
        # long as the product space, beside the start, the two recurrence
        # rows, the two sums and a temporary of one row; that is d + 6 arrays
        # of the product size, measured at both shapes (H has no diagonal array)
        spec = uniform_multi_chain(ehrenfest_dimension(n_balls), d)
        tracemalloc.start()
        try:
            law = dense_position_distribution(spec, 1.3, (0,) * d, 2**16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * spec.product_size * (d + 7)
        assert abs(law.sum() - 1.0) <= 1e-12

    def test_probes_on_leading_axes_are_independent(self):
        # two probes in one pass give what each gives alone, on both sides
        spec = MultiChainSpec(
            dims=(ehrenfest_dimension(3), random_dimension_spec(np.random.default_rng(7), 6)),
            select_prob=(0.35, 0.65),
        )
        spectra = chain_spectra(spec)
        probes = np.random.default_rng(8).uniform(-1.0, 1.0, (2,) + spec.shape)
        rows = probes.reshape(2, -1)
        for t in (0.0, 2.9):
            both = ctqw._chebyshev_propagate(spec, rows, t)
            for i in range(2):
                alone = ctqw._chebyshev_propagate(spec, rows[i : i + 1], t)
                assert np.array_equal(both[:, i], alone[:, 0])
            # e^{itH} x = even + i odd for a real x
            even, odd = both
            factorized = ctqw._factorized_propagate(spec, spectra, probes, t).reshape(2, -1)
            assert np.max(np.abs(factorized - (even + 1j * odd))) <= 1e-13


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
        dense = dense_position_distribution(spec, 1.4, (1, 2))
        assert abs(float(dense.sum()) - 1.0) <= 1e-10
        assert np.max(np.abs(np.outer(first, second).ravel() - dense)) <= 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_summed_position_law_of_the_dense_oracle_is_the_convolution(self, seed):
        # Theorem 1 at the level of the paper's Gaussian variable: the law of
        # the summed positions, binned from the oracle's joint law, is the
        # convolution of the factorized marginals.
        rng = np.random.default_rng(seed)
        n_dims = int(rng.integers(2, 5))
        dims = tuple(random_dimension_spec(rng, max_size=6) for _ in range(n_dims))
        rates = rng.permutation(np.arange(1, n_dims + 1)) + rng.uniform(0.0, 0.5, n_dims)
        spec = MultiChainSpec(dims=dims, select_prob=tuple(rates / rates.sum()))  # distinct q
        spectra = chain_spectra(spec)
        j = tuple(int(rng.integers(0, n)) for n in spec.shape)
        total = sum(np.ix_(*(np.arange(n) for n in spec.shape)))  # the summed position per state
        for t in (0.3, 2.0, 11.5):
            joint = dense_position_distribution(spec, t, j)
            binned = np.bincount(total.ravel(), weights=joint)
            law = convolve_sum(position_distribution(spec, spectra, t, j)).mass
            assert binned.shape == law.shape
            assert np.max(np.abs(binned - law)) <= 1e-12


class TestGroupedFactors:
    """Dimensions sharing a spectrum and a start are one kernel call over their times."""

    @staticmethod
    def mixed_chain():
        """Shared and distinct spectra, different starts, a repeated q."""
        urn3, edge = ehrenfest_dimension(3), ehrenfest_dimension(1)
        biased = DimensionSpec(size=4, decrease_prob=(0.2, 0.7, 0.4))
        dims = (urn3, edge, urn3, biased, edge, urn3, biased, edge, urn3)
        rates = (3.0, 1.0, 3.0, 2.0, 5.0, 1.5, 2.0, 1.0, 4.0)
        spec = MultiChainSpec(dims=dims, select_prob=tuple(w / sum(rates) for w in rates))
        j = (1, 0, 1, 2, 1, 3, 2, 0, 1)
        k = (2, 1, 0, 4, 1, 3, 1, 0, 2)
        return spec, chain_spectra(spec), j, k

    @pytest.mark.parametrize("chunk", [ctqw._GROUP_CHUNK, 16, 1])
    @pytest.mark.parametrize("t", [0.0, 0.9, 7.3, -41.0])
    def test_marginals_match_the_per_dimension_rows_bit_for_bit(self, monkeypatch, chunk, t):
        monkeypatch.setattr(ctqw, "_GROUP_CHUNK", chunk)
        spec, spectra, j, _ = self.mixed_chain()
        got = position_distribution(spec, spectra, t, j)
        assert len(got) == spec.n_dims
        for q, s, jl, row in zip(spec.select_prob, spectra, j, got):
            assert np.array_equal(row, transition_row(s, q * t, jl))

    @pytest.mark.parametrize("chunk", [ctqw._GROUP_CHUNK, 1])
    @pytest.mark.parametrize("t", [0.4, 2.0, 13.7])
    def test_product_matches_the_per_dimension_factors(self, monkeypatch, chunk, t):
        monkeypatch.setattr(ctqw, "_GROUP_CHUNK", chunk)
        spec, spectra, j, k = self.mixed_chain()
        factors = [
            transition_prob_1d(s, q * t, jl, kl)
            for q, s, jl, kl in zip(spec.select_prob, spectra, j, k)
        ]
        assert transition_prob_factorized(spec, spectra, t, j, k) == math.prod(factors)

    def test_one_kernel_call_per_group_and_chunk(self, monkeypatch):
        calls = []
        real = ctqw._amplitudes

        def counted(factors, values, t, *args):
            calls.append(np.shape(t))
            return real(factors, values, t, *args)

        monkeypatch.setattr(ctqw, "_amplitudes", counted)
        spec, spectra, j, k = self.mixed_chain()
        position_distribution(spec, spectra, 1.0, j)
        starts = {(id(s), jl) for s, jl in zip(spectra, j)}
        assert len(calls) == len(starts) == 5
        calls.clear()
        ctqw._marginal_laws(spec, spectra, (0.5, 1.0, 2.0), j)  # simulate's route: one per time
        assert len(calls) == 3 * len(starts)
        calls.clear()
        transition_prob_factorized(spec, spectra, 1.0, j, k)
        pairs = {(id(s), jl, kl) for s, jl, kl in zip(spectra, j, k)}
        assert len(calls) == len(pairs) == 8

        # two equal but separate dimensions, each with a spectrum of its own
        # solve: spectra[l] is dims[l]'s spectrum, so they are one group
        first, second = ehrenfest_dimension(5), ehrenfest_dimension(5)
        spec = MultiChainSpec(dims=(first, second), select_prob=(0.4, 0.6))
        spectra = (dimension_spectrum(first), dimension_spectrum(second))
        calls.clear()
        position_distribution(spec, spectra, 1.0, (2, 2))
        assert calls == [(2,)]

        n, d = 121, 9000
        urn = ehrenfest_dimension(n - 1)
        spectra = (dimension_spectrum(urn),) * d
        calls.clear()
        position_distribution(uniform_multi_chain(urn, d), spectra, 1.0, (0,) * d)
        per_chunk = ctqw._GROUP_CHUNK // n
        assert calls == [(per_chunk,)] * (d // per_chunk) + [(d % per_chunk,)]

    def test_a_large_group_is_chunked(self):
        # 400 dimensions sharing a 121-state spectrum: unchunked, each part's
        # stacked (400, 121, 121) phase product alone is 47 MB.
        d, urn = 400, ehrenfest_dimension(120)
        spec = uniform_multi_chain(urn, d)
        spectra = (dimension_spectrum(urn),) * d
        tracemalloc.start()
        try:
            marginals = position_distribution(spec, spectra, 30.0, (0,) * d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20
        binomial = scipy.stats.binom.pmf(np.arange(121), 120, math.sin(30.0 / d / 120) ** 2)
        assert np.max(np.abs(marginals[-1] - binomial)) <= 1e-12


class TestExtremeStepProbabilities:
    """Four-state chains with p(k) at 1e-300 and 1 - 1e-16, against expm of J built by hand."""

    @pytest.mark.parametrize(
        "table", [(1e-300, 0.5), (0.5, 1 - 1e-16), (1e-300, 1 - 1e-16), (1 - 1e-16, 1 - 1e-16)]
    )
    def test_rows_match_expm(self, table):
        data = dimension_spectrum(DimensionSpec(size=3, decrease_prob=table))
        up = np.array([1.0, *(1.0 - p for p in table)])  # from positions 0..2
        down = np.array([*table, 1.0])  # from positions 1..3
        off = np.sqrt(up * down)
        generator = np.diag(off, 1) + np.diag(off, -1)
        for t in (0.3, 2.0, 50.0):
            expected = np.abs(scipy.linalg.expm(1j * t * generator)) ** 2
            for j in range(4):
                assert np.max(np.abs(transition_row(data, t, j) - expected[:, j])) <= 1e-12

    def test_two_vanishing_steps_fail_loudly(self):
        with pytest.raises(NumericalError, match="vanishing first component"):
            dimension_spectrum(DimensionSpec(size=3, decrease_prob=(1e-300, 1e-300)))


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
        # The twisted-factorization eigenvectors keep small weights to ~9e-13
        # relative.  LAPACK's eigh on the same tridiagonal agrees on
        # probabilities but returns a smallest weight of ~1.4e-43 where the
        # exact one is 2^-240 ~ 5.6e-73, which is why the hand-written solver stays.
        expected = scipy.stats.binom.pmf(np.arange(self.N + 1), self.N, 0.5)
        assert np.max(np.abs(weights(urn) - expected) / expected) <= 1e-10


class TestLargeUrn:
    """Ehrenfest N=1200, past the weights' underflow at N~1075, on the twisted branch."""

    N = 1200

    @pytest.fixture(scope="class")
    def urn(self):
        return dimension_spectrum(ehrenfest_dimension(self.N))

    @pytest.mark.parametrize("t", [0.5, 300.0, 1200 * math.pi / 2])
    def test_row_from_origin_is_binomial(self, urn, t):
        expected = scipy.stats.binom.pmf(np.arange(self.N + 1), self.N, math.sin(t / self.N) ** 2)
        assert np.max(np.abs(transition_row(urn, t, 0) - expected)) <= 1e-12

    def test_log_weights_are_binomial_half(self, urn):
        # The smallest weight, 2^-1200, underflows; its first component does not.
        expected = scipy.stats.binom.logpmf(np.arange(self.N + 1), self.N, 0.5)
        assert np.max(np.abs(2.0 * np.log(urn.eigenvectors[0]) - expected)) <= 1e-10


class TestHugeTime:
    """The phase t * lambda is rounded to about |t| eps absolute, and so is the row.

    Measured from position 0 at N = 3, 7 and 96, t = 1 ... 1e16: the row error
    is at most 0.57 |t| eps from t = 100 on, and a few eps at t = 1.  The
    kernel takes times up to the phase budget, |t| eps <= 1e-10 (t = 450359).
    """

    @pytest.mark.parametrize("t", [10.0**e for e in range(0, 6)] + [450_359.0])
    @pytest.mark.parametrize("n_balls", [3, 7, 96])
    def test_row_from_origin_within_t_eps(self, n_balls, t):
        eps = np.finfo(float).eps
        row = transition_row(dimension_spectrum(ehrenfest_dimension(n_balls)), t, 0)
        p = math.sin(t / n_balls) ** 2
        expected = scipy.stats.binom.pmf(np.arange(n_balls + 1), n_balls, p)
        assert np.max(np.abs(row - expected)) <= 16 * eps + abs(t) * eps


class TestPhaseBudget:
    """A time whose phase error |t| eps is beyond 1e-10 has no law to trust: every route raises.

    Before the budget, transition_row on one edge gave [0.784, 0.216] at
    t = 1e17 and [0.331, 0.669] at 1e300.
    """

    SPEC = MultiChainSpec(
        dims=(ehrenfest_dimension(1), ehrenfest_dimension(3)), select_prob=(0.5, 0.5)
    )
    ROUTES = {
        "row": lambda s, t: transition_row(s[0], t, 0),
        "1d": lambda s, t: transition_prob_1d(s[0], t, 0, 1),
        "matrix": lambda s, t: transition_matrix_1d(s[1], t),
        "propagator": lambda s, t: ctqw._factorized_propagate(
            TestPhaseBudget.SPEC, s, np.ones((2, 4)), t
        ),
        "factorized": lambda s, t: transition_prob_factorized(
            TestPhaseBudget.SPEC, s, t, (0, 1), (1, 2)
        ),
        "marginals": lambda s, t: position_distribution(TestPhaseBudget.SPEC, s, t, (0, 1)),
    }

    @pytest.mark.parametrize("t", [1e6, -1e8, 1e17, 1e300])
    @pytest.mark.parametrize("route", ROUTES)
    def test_raises_naming_t(self, route, t):
        spectra = chain_spectra(self.SPEC)
        budget = r"^t must be within the phase budget \|t\| eps <= 1e-10, got"
        with pytest.raises(ValueError, match=budget):
            self.ROUTES[route](spectra, t)

    def test_the_edge_at_1e17_raises(self):
        with pytest.raises(ValueError, match=r"^t must be within the phase budget.*1e\+17"):
            transition_row(dimension_spectrum(ehrenfest_dimension(1)), 1e17, 0)

    @pytest.mark.parametrize("route", ROUTES)
    def test_the_budget_is_on_each_factor_s_rescaled_time(self, route):
        # 1e-10 / eps = 450359.96...; the product routes rescale t by q_l = 1/2
        spectra = chain_spectra(self.SPEC)
        scale = 1.0 if route in ("row", "1d", "matrix") else 2.0
        for t in (450_359.0, -450_359.0):
            self.ROUTES[route](spectra, scale * t)
        with pytest.raises(ValueError, match="phase budget"):
            self.ROUTES[route](spectra, scale * 450_360.0)

    def test_a_time_the_cli_accepts_passes_the_kernel(self):
        # the CLI's budget is the largest q_l's: 1e-10 / (eps * 0.75) = 600479.95...
        fields = {"dims": [{"size": 1}, {"size": 3}], "select_prob": [0.25, 0.75]}
        config = parse_config({**fields, "time": [-600479, 600479]})
        spectra = chain_spectra(config.spec)
        for t in config.times:
            laws = position_distribution(config.spec, spectra, t, (0, 0))
            assert all(abs(law.sum() - 1.0) <= 1e-12 for law in laws)
        with pytest.raises(ValueError, match="phase budget"):
            position_distribution(config.spec, spectra, 600480.0, (0, 0))


class TestNonFiniteTime:
    """A NaN or infinite time has no law: every route raises ValueError naming t."""

    SPEC = MultiChainSpec(
        dims=(ehrenfest_dimension(1), ehrenfest_dimension(3)), select_prob=(0.5, 0.5)
    )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "route",
        [
            lambda s, t: transition_row(s[0], t, 0),
            lambda s, t: transition_prob_1d(s[0], t, 0, 1),
            lambda s, t: transition_matrix_1d(s[1], t),
            lambda s, t: ctqw._factorized_propagate(TestNonFiniteTime.SPEC, s, np.ones((2, 4)), t),
            lambda s, t: transition_prob_factorized(TestNonFiniteTime.SPEC, s, t, (0, 1), (1, 2)),
            lambda s, t: position_distribution(TestNonFiniteTime.SPEC, s, t, (0, 1)),
            lambda s, t: dense_position_distribution(TestNonFiniteTime.SPEC, t, (0, 1)),
            lambda s, t: ehrenfest_sum_law(3, t),
        ],
        ids=["row", "1d", "matrix", "propagator", "factorized", "marginals", "dense", "sum law"],
    )
    def test_raises_naming_t(self, route, bad):
        spectra = chain_spectra(self.SPEC)
        with pytest.raises(ValueError, match=r"^t\b.*finite"):
            route(spectra, bad)


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
            dense = expm_transition_matrix(spec, t)
            assert np.max(np.abs(fact - dense)) <= 1e-10
