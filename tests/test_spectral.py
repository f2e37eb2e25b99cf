"""Symmetrization, the tridiagonal eigensolver and the weight machinery."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings

from bdqw import spectral
from bdqw.chain import (
    DimensionSpec,
    MultiChainSpec,
    build_conditional_matrix,
    ehrenfest_dimension,
    stationary_distribution,
)
from bdqw.errors import NumericalError, SizeLimitError
from bdqw.spectral import (
    SymmetricTridiagonal,
    chain_spectra,
    dimension_spectrum,
    eigendecompose,
    orthogonality_defect,
    symmetrize,
)

from conftest import dimension_specs


def dense_similarity_oracle(m: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Independent dense conjugation D^{1/2} m D^{-1/2}."""
    root = np.sqrt(pi)
    return np.diag(root) @ m @ np.diag(1.0 / root)


def spectrum_of(spec: DimensionSpec):
    m = build_conditional_matrix(spec)
    pi = stationary_distribution(m)
    return symmetrize(m, pi)


class TestSymmetrize:
    def test_edge_chain_is_already_symmetric(self):
        tri = spectrum_of(ehrenfest_dimension(1))
        assert np.array_equal(tri.to_dense(), [[0.0, 1.0], [1.0, 0.0]])

    def test_two_ball_chain(self):
        tri = spectrum_of(ehrenfest_dimension(2))
        assert np.allclose(tri.offdiag, [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-15)
        assert np.array_equal(tri.diag, [0.0, 0.0, 0.0])

    def test_asymmetric_chain_against_dense_conjugation(self):
        spec = DimensionSpec(size=2, decrease_prob=(0.3,))
        m = build_conditional_matrix(spec)
        pi = stationary_distribution(m)
        tri = symmetrize(m, pi)
        # sqrt formula: sqrt(m[0,1]*m[1,0]) then sqrt(m[1,2]*m[2,1])
        assert np.allclose(tri.offdiag, [math.sqrt(0.3), math.sqrt(0.7)], atol=1e-15)
        assert np.max(np.abs(tri.to_dense() - dense_similarity_oracle(m, pi))) <= 1e-12

    def test_rejects_nonpositive_pi(self):
        m = build_conditional_matrix(ehrenfest_dimension(1))
        with pytest.raises(ValueError):
            symmetrize(m, np.array([1.0, 0.0]))

    @pytest.mark.filterwarnings("error")
    def test_rejects_nan_pi(self):
        m = build_conditional_matrix(ehrenfest_dimension(3))
        for pos in range(4):
            pi = np.full(4, 0.25)
            pi[pos] = math.nan
            with pytest.raises(ValueError):
                symmetrize(m, pi)

    @pytest.mark.filterwarnings("error")
    def test_underflowing_urn_fails_loudly(self):
        # at N = 1100 the stationary tails fall below the smallest double
        m = build_conditional_matrix(ehrenfest_dimension(1100))
        with pytest.raises(ValueError, match="strictly positive"):
            symmetrize(m, stationary_distribution(m))

    def test_rejects_non_reversible_pi(self):
        m = build_conditional_matrix(ehrenfest_dimension(2))
        with pytest.raises(ValueError):
            symmetrize(m, np.array([0.2, 0.2, 0.6]))

    @given(dimension_specs(max_size=12))
    def test_matches_dense_conjugation(self, spec):
        m = build_conditional_matrix(spec)
        pi = stationary_distribution(m)
        tri = symmetrize(m, pi)
        assert np.max(np.abs(tri.to_dense() - dense_similarity_oracle(m, pi))) <= 1e-12


class TestEigendecompose:
    def test_edge_chain_closed_form(self):
        data = dimension_spectrum(ehrenfest_dimension(1))
        assert np.allclose(data.eigenvalues, [-1.0, 1.0], atol=1e-14)
        expected = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
        assert np.allclose(data.eigenvectors, expected, atol=1e-14)
        assert np.allclose(data.weights, [0.5, 0.5], atol=1e-14)

    def test_two_ball_chain_characteristic_polynomial(self):
        # char poly of tridiag(0; sqrt(1/2), sqrt(1/2)) is x^3 - x: roots -1, 0, 1
        data = dimension_spectrum(ehrenfest_dimension(2))
        assert np.allclose(data.eigenvalues, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_random_matrix_orthonormality(self):
        # zero diagonal and small couplings keep the spectrum inside [-1, 1]
        rng = np.random.default_rng(11)
        tri = SymmetricTridiagonal(diag=np.zeros(6), offdiag=rng.uniform(0.1, 0.5, 5))
        data = eigendecompose(tri)
        defect = np.max(np.abs(data.eigenvectors.T @ data.eigenvectors - np.eye(6)))
        assert defect <= 1e-10

    def test_poly_table_first_row_is_one(self):
        data = dimension_spectrum(ehrenfest_dimension(5))
        assert np.max(np.abs(data.poly_table[0] - 1.0)) == 0.0

    def test_validate_rejects_corrupted_weights(self):
        data = dimension_spectrum(ehrenfest_dimension(3))
        bad = dataclasses.replace(data, weights=data.weights + 0.01)
        with pytest.raises(NumericalError):
            bad.validate()

    @settings(max_examples=60, deadline=None)
    @given(dimension_specs(max_size=12))
    def test_reconstruction_and_spectrum_bounds(self, spec):
        tri = spectrum_of(spec)
        data = eigendecompose(tri)
        reconstruction = (data.eigenvectors * data.eigenvalues) @ data.eigenvectors.T
        assert np.max(np.abs(reconstruction - tri.to_dense())) <= 1e-10
        assert np.max(np.abs(data.eigenvalues)) <= 1.0 + 1e-10
        assert abs(float(data.weights.sum()) - 1.0) <= 1e-10
        assert np.max(np.abs(data.weights - data.eigenvectors[0] ** 2)) <= 1e-14

    @settings(max_examples=60, deadline=None)
    @given(dimension_specs(max_size=12))
    def test_agrees_with_brute_force_solver(self, spec):
        tri = spectrum_of(spec)
        data = eigendecompose(tri)
        reference = np.linalg.eigvalsh(tri.to_dense())
        assert np.max(np.abs(data.eigenvalues - reference)) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(dimension_specs(max_size=8))
    def test_spectral_mapping_against_kernel_eigenvalues(self, spec):
        # J is similar to P, so their spectra coincide
        m = build_conditional_matrix(spec)
        data = dimension_spectrum(spec)
        kernel_eigs = np.sort(np.linalg.eigvals(m).real)
        assert np.max(np.abs(data.eigenvalues - kernel_eigs)) <= 1e-9


class TestChainSpectra:
    def test_one_eigensolve_per_distinct_dimension(self, monkeypatch):
        solved = []

        def counting(dim):
            solved.append(dim)
            return dimension_spectrum(dim)

        monkeypatch.setattr(spectral, "dimension_spectrum", counting)
        a, b, c = ehrenfest_dimension(3), DimensionSpec(size=2, decrease_prob=(0.3,)), ehrenfest_dimension(1)
        # equal by value, not by identity: a fresh ehrenfest_dimension(3) shares a's eigensolve
        spec = MultiChainSpec(dims=(a, b, ehrenfest_dimension(3), c, b, a), select_prob=(1 / 6,) * 6)
        spectra = chain_spectra(spec)
        assert solved == [a, b, c]
        assert [s.n_states for s in spectra] == [4, 3, 4, 2, 3, 4]
        assert spectra[0] is spectra[2] is spectra[5]
        for dim, s in zip(spec.dims, spectra):
            assert np.array_equal(s.eigenvectors, dimension_spectrum(dim).eigenvectors)


class TestOrthogonalityDefect:
    def test_edge_chain_is_exactly_orthogonal(self):
        data = dimension_spectrum(ehrenfest_dimension(1))
        assert orthogonality_defect([data]) <= 1e-12

    def test_two_dimension_product(self):
        datasets = [dimension_spectrum(ehrenfest_dimension(1)), dimension_spectrum(ehrenfest_dimension(2))]
        assert orthogonality_defect(datasets) <= 1e-10

    def test_detects_perturbed_weights(self):
        data = dimension_spectrum(ehrenfest_dimension(2))
        weights = data.weights.copy()
        weights[0] += 0.01
        perturbed = dataclasses.replace(data, weights=weights)
        assert orthogonality_defect([perturbed]) > 1e-3

    def test_requires_at_least_one_dataset(self):
        with pytest.raises(ValueError):
            orthogonality_defect([])

    def test_cap_enforced(self):
        data = dimension_spectrum(ehrenfest_dimension(7))
        with pytest.raises(SizeLimitError, match="100"):
            orthogonality_defect([data, data, data], oracle_cap=100)

    @settings(max_examples=30, deadline=None)
    @given(dimension_specs(max_size=6), dimension_specs(max_size=6))
    def test_random_products_stay_orthogonal(self, spec_a, spec_b):
        datasets = [dimension_spectrum(spec_a), dimension_spectrum(spec_b)]
        assert orthogonality_defect(datasets, oracle_cap=256) <= 1e-10
