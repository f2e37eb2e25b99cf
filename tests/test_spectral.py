"""Symmetrization, the tridiagonal eigensolver and the weights read off its eigenvectors."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings

from bdqw import spectral
from bdqw.chain import (
    DimensionSpec,
    MultiChainSpec,
    build_conditional_matrix,
    ehrenfest_dimension,
    stationary_distribution,
)
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

from conftest import dimension_specs, double_well, multi_chain_specs, poly_table, weights


def dense_similarity_oracle(m: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Independent dense conjugation D^{1/2} m D^{-1/2}."""
    root = np.sqrt(pi)
    return np.diag(root) @ m @ np.diag(1.0 / root)


# Reference for the QL solver: the serial loop, one column-pair update per
# rotation, kept verbatim so the solver's output can be required bit-identical.
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
# product of the per-dimension Grams V V^T, so the evaluation that never forms
# it can be required equal.
def kronecker_orthogonality_defect(datasets) -> float:
    size = math.prod(s.n_states for s in datasets)
    gram = np.ones((1, 1))
    for s in datasets:
        g = s.eigenvectors @ s.eigenvectors.T
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
        assert np.allclose(weights(data), [0.5, 0.5], atol=1e-14)

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

    def test_validate_rejects_a_spectrum_outside_the_unit_interval(self):
        data = dimension_spectrum(ehrenfest_dimension(3))
        values = data.eigenvalues * (1.0 + 1e-9)
        with pytest.raises(NumericalError, match=r"^spectrum escapes \[-1, 1\]$"):
            dataclasses.replace(data, eigenvalues=values).validate()

    def test_validate_rejects_a_non_positive_first_component(self):
        # a column's sign flip keeps the columns orthonormal
        data = dimension_spectrum(ehrenfest_dimension(3))
        vectors = data.eigenvectors.copy()
        vectors[:, 2] *= -1.0
        with pytest.raises(NumericalError, match="^first eigenvector components must be strictly"):
            dataclasses.replace(data, eigenvectors=vectors).validate()

    def test_validate_rejects_weights_that_pass_orthonormality(self):
        # Q: the orthonormal DCT-II basis, its row 0 uniform at 0.1.  V = Q M^(1/2) with
        # M = I + eps 11^T has V^T V - I = eps 11^T, a 9.0e-11 defect that passes,
        # while the row-0 norm^2 is 1 + n eps, off by 9.0e-9.
        n, eps = 100, 0.9e-10
        k, j = np.ogrid[:n, :n]
        q = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * j + 1) / (2 * n))
        q[0] = np.sqrt(1.0 / n)
        vectors = q @ (np.eye(n) + (math.sqrt(1.0 + n * eps) - 1.0) / n)
        assert np.max(np.abs(vectors.T @ vectors - np.eye(n))) <= 1e-10
        data = SpectralData(eigenvalues=np.linspace(-0.9, 0.9, n), eigenvectors=vectors)
        with pytest.raises(NumericalError, match="^weights do not sum to 1$"):
            data.validate()

    @settings(max_examples=60, deadline=None)
    @given(dimension_specs(max_size=12))
    def test_reconstruction_and_spectrum_bounds(self, spec):
        tri = spectrum_of(spec)
        data = eigendecompose(tri)
        reconstruction = (data.eigenvectors * data.eigenvalues) @ data.eigenvectors.T
        assert np.max(np.abs(reconstruction - tri.to_dense())) <= 1e-10
        assert np.max(np.abs(data.eigenvalues)) <= 1.0 + 1e-10
        assert abs(float(weights(data).sum()) - 1.0) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(dimension_specs(max_size=12))
    def test_agrees_with_brute_force_solver(self, spec):
        # the serial QL loop, independent of the LAPACK call that supplies the values
        tri = spectrum_of(spec)
        data = eigendecompose(tri)
        reference = np.sort(serial_tridiagonal_ql(tri.diag, tri.offdiag)[0])
        assert np.max(np.abs(data.eigenvalues - reference)) <= 1e-10

    # The exact urn spectrum is (2k - N) / N; measured error at most 7.3e-15 (N = 1100).
    @pytest.mark.parametrize("n_balls", [1, 2, 3, 7, 15, 96, 240, 1100])
    def test_urn_eigenvalues_are_the_closed_form(self, n_balls):
        data = dimension_spectrum(ehrenfest_dimension(n_balls))
        exact = (2.0 * np.arange(n_balls + 1) - n_balls) / n_balls
        assert np.max(np.abs(data.eigenvalues - exact)) <= 1e-14

    # The urn's weights V[0]^2 are Binomial(N, 1/2), tails down to 2^-240 included.
    @pytest.mark.parametrize("n_balls", [96, 240])
    def test_urn_log_weights_are_binomial_half(self, n_balls):
        data = dimension_spectrum(ehrenfest_dimension(n_balls))
        expected = scipy.stats.binom.logpmf(np.arange(n_balls + 1), n_balls, 0.5)
        assert np.max(np.abs(2.0 * np.log(data.eigenvectors[0]) - expected)) <= 1e-10

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

    @pytest.mark.parametrize("diag", [np.zeros(0), np.zeros((2, 2))])
    def test_rejects_a_diag_that_is_not_a_non_empty_vector(self, diag):
        with pytest.raises(ValueError, match="^diag must be a non-empty one-dimensional array$"):
            SymmetricTridiagonal(diag=diag, offdiag=np.zeros(0))

    @pytest.mark.parametrize("size", [1, 3])
    def test_rejects_an_offdiag_of_the_wrong_length(self, size):
        with pytest.raises(ValueError, match="^offdiag must have one entry fewer than diag$"):
            SymmetricTridiagonal(diag=np.zeros(3), offdiag=np.full(size, 0.5))

    @pytest.mark.parametrize("value", [0.0, -0.5])
    def test_rejects_an_offdiag_entry_that_is_not_positive(self, value):
        with pytest.raises(ValueError, match="^off-diagonal entries must be strictly positive$"):
            SymmetricTridiagonal(diag=np.zeros(3), offdiag=np.array([0.5, value]))

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_matmul_is_the_dense_product(self, n):
        rng = np.random.default_rng(n)
        tri = SymmetricTridiagonal(diag=rng.uniform(-1, 1, n), offdiag=rng.uniform(0.1, 1, n - 1))
        v = rng.standard_normal((n, 5))
        assert np.max(np.abs(tri @ v - tri.to_dense() @ v)) <= 1e-15


class TestSerialReference:
    """The QL solver against the serial loop."""

    @staticmethod
    def assert_bit_identical(tri):
        values, vectors = spectral._tridiagonal_ql(tri.diag, tri.offdiag)
        ref_values, ref_vectors = serial_tridiagonal_ql(tri.diag, tri.offdiag)
        assert np.array_equal(values, ref_values)
        assert np.array_equal(vectors, ref_vectors)

    # N=240 applies about 60 000 rotations, each to rows of 241 entries.
    @pytest.mark.parametrize("n_balls", [1, 2, 3, 7, 15, 96, 240])
    def test_ehrenfest(self, n_balls):
        self.assert_bit_identical(spectrum_of(ehrenfest_dimension(n_balls)))

    @settings(max_examples=60, deadline=None)
    @given(dimension_specs(max_size=12))
    def test_random_dimensions(self, spec):
        self.assert_bit_identical(spectrum_of(spec))

    def test_sweep_cap_raises(self, monkeypatch):
        # a tight-gap spectrum, so eigendecompose runs the QL
        monkeypatch.setattr(spectral, "_QL_MAX_SWEEPS", 0)
        with pytest.raises(NumericalError, match="within 0 sweeps"):
            eigendecompose(spectrum_of(double_well(12)))


def serial_reference(tri):
    """The serial QL's spectrum with eigendecompose's ordering and sign conventions."""
    values, vectors = serial_tridiagonal_ql(tri.diag, tri.offdiag)
    order = np.argsort(values)
    vectors = vectors[:, order]
    return values[order], vectors * np.sign(vectors[0])


def full_ql_counter(mp: pytest.MonkeyPatch) -> list[int]:
    """Record the size of every QL solve."""
    calls: list[int] = []
    solve = spectral._tridiagonal_ql

    def counting(diag, offdiag):
        calls.append(diag.size)
        return solve(diag, offdiag)

    mp.setattr(spectral, "_tridiagonal_ql", counting)
    return calls


class TestTwistedEigenvectors:
    """eigendecompose's two branches against the serial QL reference."""

    # LAPACK's eigenvalues and the QL's differ by at most 18 eps at N = 240 and
    # 9 eps on 3000 random chains of up to 12 states.
    @staticmethod
    def assert_matches_serial(tri) -> None:
        data = eigendecompose(tri)
        ref_values, ref_vectors = serial_reference(tri)
        assert np.max(np.abs(data.eigenvalues - ref_values)) <= 1e-13
        assert np.max(np.abs(data.eigenvectors - ref_vectors)) <= 1e-12

    @pytest.mark.parametrize("n_balls", [1, 2, 3, 7, 15, 96, 240])
    def test_ehrenfest_takes_the_twisted_branch(self, n_balls, monkeypatch):
        calls = full_ql_counter(monkeypatch)
        self.assert_matches_serial(spectrum_of(ehrenfest_dimension(n_balls)))
        assert calls == []

    @settings(max_examples=60, deadline=None)
    @given(dimension_specs(max_size=12))
    def test_random_dimensions(self, spec):
        self.assert_matches_serial(spectrum_of(spec))

    @settings(max_examples=60, deadline=None)
    @given(dimension_specs(max_size=12))
    def test_random_dimensions_on_the_full_ql(self, spec):
        tri = spectrum_of(spec)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_TWIST_MIN_GAP", math.inf)
            data = eigendecompose(tri)
        ref_values, ref_vectors = serial_reference(tri)
        assert np.array_equal(data.eigenvalues, ref_values)
        assert np.array_equal(data.eigenvectors, ref_vectors)

    @pytest.mark.parametrize("size", [12, 16, 20, 30, 80])
    def test_double_well_takes_the_full_ql(self, size, monkeypatch):
        calls = full_ql_counter(monkeypatch)
        tri = spectrum_of(double_well(size))
        data = eigendecompose(tri)
        data.validate()
        assert calls == [size + 1]
        ref_values, ref_vectors = serial_reference(tri)
        assert np.array_equal(data.eigenvalues, ref_values)
        assert np.array_equal(data.eigenvectors, ref_vectors)

    # Without the gap rule the twisted vectors' defect, about eps / gap, exceeds
    # the validation tolerance from size 16 (smallest gap 8.3e-8) on.
    @pytest.mark.parametrize("size", [16, 20, 30, 80])
    def test_tight_gaps_need_the_rule(self, size, monkeypatch):
        monkeypatch.setattr(spectral, "_TWIST_MIN_GAP", 0.0)
        with pytest.raises(NumericalError, match="not orthonormal"):
            eigendecompose(spectrum_of(double_well(size)))

    def test_urn_poly_table_is_krawtchouk_entrywise(self):
        # Column c of the urn's table is p_j = K_j(l) / sqrt(C(N, j)), l = N - c,
        # with the integer Krawtchouk recurrence (j+1) K_{j+1} = (N - 2l) K_j -
        # (N - j + 1) K_{j-1}.  Products of ratios keep every nonzero entry to
        # 2e-10 relative; the QL rotations lost small entries entirely (1.7e-2).
        n_balls = 96
        exact = np.zeros((n_balls + 1, n_balls + 1))
        for c in range(n_balls + 1):
            shift = 2 * c - n_balls  # N - 2l
            prev, cur = 0, 1
            for j in range(n_balls + 1):
                exact[j, c] = cur / math.sqrt(math.comb(n_balls, j))
                prev, cur = cur, (shift * cur - (n_balls - j + 1) * prev) // (j + 1)
        table = poly_table(dimension_spectrum(ehrenfest_dimension(n_balls)))
        nonzero = exact != 0.0
        assert np.max(np.abs(table - exact)[nonzero] / np.abs(exact[nonzero])) <= 1e-8

    def test_exact_zero_pivot_is_guarded(self):
        # The exact urn spectrum (2k - N) / N holds lambda = 0 for even N, and
        # J's diagonal is zero, so the backward pivot at the last row is
        # exactly 0 until the guard replaces it by -pivmin.
        n_balls = 240
        tri = spectrum_of(ehrenfest_dimension(n_balls))
        values = (2.0 * np.arange(n_balls + 1) - n_balls) / n_balls
        zero = n_balls // 2
        pivmin = float(np.finfo(float).tiny)
        assert tri.diag[-1] - values[zero] == 0.0
        backward = spectral._pivots(tri.diag[::-1], tri.offdiag[::-1], values, pivmin)
        assert backward[0, zero] == -pivmin
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            vectors = spectral._twisted_eigenvectors(tri.diag, tri.offdiag, values)
        _, ref_vectors = serial_reference(tri)
        assert np.max(np.abs(vectors * np.sign(vectors[0]) - ref_vectors)) <= 1e-12


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

    @settings(max_examples=60, deadline=None)
    @given(dimension_specs(max_size=12))
    def test_weighted_polynomial_gram_is_v_vt(self, spec):
        # the first components cancel: sum_l w_l p_l(j) p_l(k) = sum_l V[j, l] V[k, l]
        data = dimension_spectrum(spec)
        weighted = (poly_table(data) * weights(data)) @ poly_table(data).T
        assert np.max(np.abs(weighted - data.eigenvectors @ data.eigenvectors.T)) <= 1e-15


class TestUnderflowingWeight:
    """A first component whose square underflows to 0 validates, and the Gram reads no weight."""

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

    def test_orthogonality_defect_needs_no_weight(self):
        data = self.tiny_first_component()
        good = dimension_spectrum(ehrenfest_dimension(1))
        for datasets in ([data], [good, data]):
            assert orthogonality_defect(datasets) <= 1e-15
