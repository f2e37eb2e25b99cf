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
from bdqw.ctqw import transition_prob_weight_form
from bdqw.errors import NumericalError
from bdqw.spectral import (
    _QL_MAX_SWEEPS,
    SpectralData,
    SymmetricTridiagonal,
    chain_spectra,
    dimension_spectrum,
    eigendecompose,
    orthogonality_defect,
    symmetrize,
)

from conftest import dimension_specs, multi_chain_specs


def dense_similarity_oracle(m: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Independent dense conjugation D^{1/2} m D^{-1/2}."""
    root = np.sqrt(pi)
    return np.diag(root) @ m @ np.diag(1.0 / root)


# Reference for the wave-batched solver: the serial loop, one column-pair update
# per rotation, kept verbatim so the batched output can be required bit-identical.
def serial_tridiagonal_ql(diag: np.ndarray, offdiag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Implicitly shifted QL iteration for a symmetric tridiagonal matrix.

    Returns (eigenvalues, eigenvector columns), unsorted.  Convergence of an
    off-diagonal entry is declared when it is negligible relative to its two
    diagonal neighbours; each eigenvalue is allowed at most 30 sweeps.
    """
    n = diag.size
    d = diag.astype(float).copy()
    e = np.zeros(n)
    e[: n - 1] = offdiag
    z = np.eye(n)
    eps = np.finfo(float).eps

    for l in range(n):
        sweeps = 0
        while True:
            for m in range(l, n - 1):
                if abs(e[m]) <= eps * (abs(d[m]) + abs(d[m + 1])):
                    break
            else:
                m = n - 1
            if m == l:
                break
            if sweeps == _QL_MAX_SWEEPS:
                raise NumericalError(
                    f"QL iteration failed to converge within {_QL_MAX_SWEEPS} sweeps"
                )
            sweeps += 1

            # implicit shift from the 2x2 block at l
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # rotation annihilated early; drop the shift and retry
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                col = z[:, i + 1].copy()
                z[:, i + 1] = s * z[:, i] + c * col
                z[:, i] = c * z[:, i] - s * col
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0
    return d, z


# Reference for orthogonality_defect: the product-space Gram built as a Kronecker
# product, kept verbatim so the per-dimension evaluation can be required equal.
def kronecker_orthogonality_defect(datasets) -> float:
    size = math.prod(s.n_states for s in datasets)
    gram = np.ones((1, 1))
    for s in datasets:
        g = (s.poly_table * s.weights) @ s.poly_table.T
        gram = np.kron(gram, g)
    return float(np.max(np.abs(gram - np.eye(size))))


def spectrum_of(spec: DimensionSpec):
    return symmetrize(build_conditional_matrix(spec))


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
        tri = symmetrize(m)
        # sqrt formula: sqrt(m[0,1]*m[1,0]) then sqrt(m[1,2]*m[2,1])
        assert np.allclose(tri.offdiag, [math.sqrt(0.3), math.sqrt(0.7)], atol=1e-15)
        pi = stationary_distribution(m)
        assert np.max(np.abs(tri.to_dense() - dense_similarity_oracle(m, pi))) <= 1e-12

    @pytest.mark.filterwarnings("error")
    def test_urn_past_the_stationary_underflow_is_the_closed_form(self):
        # at N = 1100 the stationary tails fall below the smallest double; J does
        # not need them: its off-diagonal is sqrt((N - k)(k + 1)) / N
        n = 1100
        tri = symmetrize(build_conditional_matrix(ehrenfest_dimension(n)))
        k = np.arange(n)
        assert np.max(np.abs(tri.offdiag - np.sqrt((n - k) * (k + 1.0)) / n)) <= 1e-15
        assert np.array_equal(tri.diag, np.zeros(n + 1))

    @pytest.mark.filterwarnings("error")
    def test_rejects_non_square_kernel(self):
        with pytest.raises(ValueError, match="square"):
            symmetrize(np.zeros((3, 4)))
        with pytest.raises(ValueError, match="square"):
            symmetrize(np.zeros(3))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [-0.5, 0.0, math.nan])
    def test_rejects_a_step_product_that_is_not_positive(self, value):
        for pos in range(3):
            m = build_conditional_matrix(ehrenfest_dimension(3))
            m[pos + 1, pos] = value
            with pytest.raises(ValueError, match="strictly positive"):
                symmetrize(m)

    @given(dimension_specs(max_size=12))
    def test_matches_dense_conjugation(self, spec):
        m = build_conditional_matrix(spec)
        pi = stationary_distribution(m)
        tri = symmetrize(m)
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
        vectors = data.eigenvectors.copy()
        vectors[0] += 0.01
        with pytest.raises(NumericalError):
            dataclasses.replace(data, eigenvectors=vectors).validate()

    def test_validate_rejects_nan_eigenvalue(self):
        data = dimension_spectrum(ehrenfest_dimension(3))
        values = data.eigenvalues.copy()
        values[-1] = math.nan
        with pytest.raises(NumericalError):
            dataclasses.replace(data, eigenvalues=values).validate()

    def test_validate_rejects_nan_eigenvector_entry(self):
        data = dimension_spectrum(ehrenfest_dimension(3))
        vectors = data.eigenvectors.copy()
        vectors[2, 1] = math.nan
        with pytest.raises(NumericalError, match="orthonormal"):
            dataclasses.replace(data, eigenvectors=vectors).validate()

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


class TestSymmetricTridiagonal:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_diag(self, value):
        with pytest.raises(ValueError, match=r"^diag"):
            SymmetricTridiagonal(diag=np.array([0.0, value, 0.0]), offdiag=np.array([0.5, 0.5]))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_offdiag(self, value):
        with pytest.raises(ValueError, match=r"^offdiag"):
            SymmetricTridiagonal(diag=np.zeros(3), offdiag=np.array([0.5, value]))


class TestSerialReference:
    """The wave-batched QL solver against the serial loop it replaced."""

    @staticmethod
    def assert_bit_identical(tri):
        values, vectors = spectral._tridiagonal_ql(tri.diag, tri.offdiag)
        ref_values, ref_vectors = serial_tridiagonal_ql(tri.diag, tri.offdiag)
        assert np.array_equal(values, ref_values)
        assert np.array_equal(vectors, ref_vectors)

    # N=240 queues about 60 000 rotations, several times the flush threshold
    # of _QL_FLUSH_ROTATIONS_PER_STATE * 241, so pending waves flush repeatedly.
    @pytest.mark.parametrize("n_balls", [1, 2, 3, 7, 15, 96, 240])
    def test_ehrenfest(self, n_balls):
        self.assert_bit_identical(spectrum_of(ehrenfest_dimension(n_balls)))

    @settings(max_examples=60, deadline=None)
    @given(dimension_specs(max_size=12))
    def test_random_dimensions(self, spec):
        self.assert_bit_identical(spectrum_of(spec))

    @settings(max_examples=30, deadline=None)
    @given(dimension_specs(max_size=12))
    def test_flush_after_every_sweep(self, spec):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_QL_FLUSH_ROTATIONS_PER_STATE", 0)
            self.assert_bit_identical(spectrum_of(spec))

    def test_sweep_cap_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "_QL_MAX_SWEEPS", 0)
        with pytest.raises(NumericalError, match="within 0 sweeps"):
            eigendecompose(spectrum_of(ehrenfest_dimension(2)))


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
        vectors = data.eigenvectors.copy()
        vectors[0, 0] += 0.01
        perturbed = dataclasses.replace(data, eigenvectors=vectors)
        assert orthogonality_defect([perturbed]) > 1e-3

    def test_requires_at_least_one_dataset(self):
        with pytest.raises(ValueError):
            orthogonality_defect([])

    @settings(max_examples=30, deadline=None)
    @given(dimension_specs(max_size=6), dimension_specs(max_size=6))
    def test_random_products_stay_orthogonal(self, spec_a, spec_b):
        datasets = [dimension_spectrum(spec_a), dimension_spectrum(spec_b)]
        assert orthogonality_defect(datasets) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(multi_chain_specs(max_dims=3, max_size=5))
    def test_equals_the_kronecker_gram(self, spec):
        datasets = chain_spectra(spec)
        assert orthogonality_defect(datasets) == kronecker_orthogonality_defect(datasets)

    def test_equals_the_kronecker_gram_when_corrupted(self):
        # a perturbed spectrum with defects well above rounding, in every position
        a, b = dimension_spectrum(ehrenfest_dimension(2)), dimension_spectrum(ehrenfest_dimension(3))
        vectors = b.eigenvectors.copy()
        vectors[1:, 1] *= 1.05
        bad = dataclasses.replace(b, eigenvectors=vectors)
        for datasets in ([bad], [a, bad], [bad, a], [a, bad, a], [bad, bad]):
            defect = orthogonality_defect(datasets)
            assert defect > 1e-3
            assert defect == kronecker_orthogonality_defect(datasets)

    def test_nan_propagates(self):
        data = dimension_spectrum(ehrenfest_dimension(2))
        vectors = data.eigenvectors.copy()
        vectors[2, 1] = math.nan
        bad = dataclasses.replace(data, eigenvectors=vectors)
        for datasets in ([bad], [data, bad], [bad, data]):
            assert math.isnan(orthogonality_defect(datasets))


class TestUnderflowingWeight:
    """A weight that underflows to 0 fails every weight-form consumer loudly."""

    @staticmethod
    def tiny_first_component() -> SpectralData:
        # orthonormal columns whose second first component squares to 1e-340
        c = 1e-170
        s = math.sqrt(1.0 - c * c)
        return SpectralData(
            eigenvalues=np.array([-0.5, 0.5]),
            eigenvectors=np.array([[s, c], [-c, s]]),
        )

    def test_validate_still_passes(self):
        self.tiny_first_component().validate()

    def test_weights_name_the_eigenvalue(self):
        with pytest.raises(NumericalError, match="eigenvalue index 1 underflows"):
            self.tiny_first_component().weights

    def test_orthogonality_defect_raises(self):
        data = self.tiny_first_component()
        good = dimension_spectrum(ehrenfest_dimension(1))
        for datasets in ([data], [good, data]):
            with pytest.raises(NumericalError, match="underflows"):
                orthogonality_defect(datasets)

    def test_weight_form_raises(self):
        with pytest.raises(NumericalError, match="underflows"):
            transition_prob_weight_form(self.tiny_first_component(), 1.0, 0, 1)
