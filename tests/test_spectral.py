"""Symmetrization, the tridiagonal eigensolver and the weights read off its eigenvectors."""

from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings

from bdqw import spectral
from bdqw.ctqw import transition_matrix_1d, transition_row
from bdqw.chain import (
    DimensionSpec,
    MultiChainSpec,
    build_conditional_matrix,
    ehrenfest_dimension,
    stationary_distribution,
)
from bdqw.errors import NumericalError
from bdqw.spectral import (
    SpectralData,
    SymmetricTridiagonal,
    chain_spectra,
    dimension_spectrum,
    eigendecompose,
    orthogonality_defect,
    symmetrize,
)

from conftest import (
    dimension_specs,
    double_well,
    kernel_layer_dimensions,
    multi_chain_specs,
    poly_table,
    weights,
)


def dense_similarity_oracle(m: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Independent dense conjugation D^{1/2} m D^{-1/2}."""
    root = np.sqrt(pi)
    return np.diag(root) @ m @ np.diag(1.0 / root)


# Reference eigenvalues and vectors: a serial implicitly shifted QL loop, one
# column-pair update per rotation, independent of LAPACK and of the chiral solver.
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
            if sweeps == 30:
                raise NumericalError("QL iteration failed to converge within 30 sweeps")
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


def three_array_orthogonality_defect(datasets) -> float:
    """orthogonality_defect as it was written with three n x n arrays per dimension.

    The same folds over the dimensions, with the off-diagonal maximum read
    from np.abs(gram - np.diag(diag)); the one-Gram evaluation must equal it
    bit for bit.
    """
    diag_max = diag_min = span = 1.0
    off = 0.0
    for s in datasets:
        gram = s.eigenvectors @ s.eigenvectors.T
        diag = np.diagonal(gram)
        top = np.abs(gram).max()
        off = np.maximum(off * top, span * np.abs(gram - np.diag(diag)).max())
        span *= top
        diag_max *= diag.max()
        diag_min *= diag.min()
    return float(np.max([diag_max - 1.0, 1.0 - diag_min, off]))


class TestSymmetrize:
    def test_edge_chain_is_already_symmetric(self):
        tri = symmetrize(ehrenfest_dimension(1))
        assert np.array_equal(tri.to_dense(), [[0.0, 1.0], [1.0, 0.0]])

    def test_two_ball_chain(self):
        tri = symmetrize(ehrenfest_dimension(2))
        assert np.allclose(tri.offdiag, [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-15)
        assert tri.n_states == 3

    def test_asymmetric_chain_against_dense_conjugation(self):
        spec = DimensionSpec(size=2, decrease_prob=(0.3,))
        m = build_conditional_matrix(spec)
        tri = symmetrize(spec)
        # sqrt formula: sqrt(m[0,1]*m[1,0]) then sqrt(m[1,2]*m[2,1])
        assert np.allclose(tri.offdiag, [math.sqrt(0.3), math.sqrt(0.7)], atol=1e-15)
        pi = stationary_distribution(spec)
        assert np.max(np.abs(tri.to_dense() - dense_similarity_oracle(m, pi))) <= 1e-12

    @pytest.mark.filterwarnings("error")
    def test_urn_past_the_stationary_underflow_is_the_closed_form(self):
        # at N = 1100 the stationary tails fall below the smallest double; J does
        # not need them: its off-diagonal is sqrt((N - k)(k + 1)) / N
        n = 1100
        tri = symmetrize(ehrenfest_dimension(n))
        k = np.arange(n)
        assert np.max(np.abs(tri.offdiag - np.sqrt((n - k) * (k + 1.0)) / n)) <= 1e-15
        assert tri.n_states == n + 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("table", [(0.75, 5e-324), (0.5, 0.75, 5e-324, 0.5)])
    def test_rejects_a_step_product_that_underflows(self, table):
        # up[k] down[k] = 0.25 * 5e-324 rounds to 0, a kernel with no step back
        spec = DimensionSpec(size=len(table) + 1, decrease_prob=table)
        with pytest.raises(ValueError, match="strictly positive"):
            symmetrize(spec)

    @given(dimension_specs(max_size=12))
    def test_matches_dense_conjugation(self, spec):
        m = build_conditional_matrix(spec)
        pi = stationary_distribution(spec)
        tri = symmetrize(spec)
        assert np.max(np.abs(tri.to_dense() - dense_similarity_oracle(m, pi))) <= 1e-12

    def test_offdiag_is_read_off_the_dense_kernel_bit_for_bit(self):
        for dim in kernel_layer_dimensions():
            m = build_conditional_matrix(dim)
            expected = np.sqrt(np.diag(m, 1) * np.diag(m, -1))
            assert symmetrize(dim).offdiag.tobytes() == expected.tobytes()


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
        tri = SymmetricTridiagonal(offdiag=rng.uniform(0.1, 0.5, 5))
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

    @pytest.mark.parametrize("seed", range(3))
    def test_validate_defect_is_the_gram_defect(self, seed, monkeypatch):
        # validate forms G - I and |G - I| over G's upper triangle, a row block at a
        # time; at a tolerance of -1 every defect fails and is named, so the message
        # shows the value it compared: the largest over the same blocks, within
        # 1e-15 of the full Gram's (the blocks' BLAS calls may round differently)
        monkeypatch.setattr(spectral, "_VALIDATE_TOLERANCE", -1.0)
        rng = np.random.default_rng(seed)
        for n in (1, 2, 5, 33, 100, 200, 513):
            orthonormal = np.linalg.qr(rng.standard_normal((n, n)))[0]
            near = orthonormal + 1e-9 * rng.standard_normal((n, n))
            with_nan = rng.standard_normal((n, n))
            with_nan[rng.integers(n), rng.integers(n)] = math.nan
            for vectors in (rng.standard_normal((n, n)), orthonormal, near, with_nan):
                data = SpectralData(eigenvalues=np.linspace(-0.9, 0.9, n), eigenvectors=vectors)
                with pytest.raises(NumericalError, match="not orthonormal") as caught:
                    data.validate()
                defect = float(str(caught.value).rpartition("defect ")[2].rstrip(")"))
                blocks = []
                for rows in spectral._row_blocks(n):
                    gram = vectors[:, rows].T @ vectors[:, rows.start :]
                    blocks.append(np.max(np.abs(gram - np.eye(n)[rows, rows.start :])))
                expected = np.max(blocks)
                full = np.max(np.abs(vectors.T @ vectors - np.eye(n)))
                if math.isnan(expected):
                    assert math.isnan(defect) and math.isnan(full)
                else:
                    assert defect == expected and abs(expected - full) <= 1e-15

    def test_the_gram_is_read_in_a_bounded_number_of_blocks(self):
        # n <= 64 keeps one block; past it, at most 8, all but the last of 64 rows or more
        assert spectral._row_blocks(1) == [slice(0, 1)]
        assert spectral._row_blocks(64) == [slice(0, 64)]
        for n in (65, 400, 513, 1101, 5000):
            blocks = spectral._row_blocks(n)
            assert blocks[0].start == 0 and blocks[-1].stop == n and len(blocks) <= 8
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            assert all(b.stop - b.start >= 64 for b in blocks[:-1])

    @pytest.mark.parametrize("where", ["first", "last"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_validate_fails_on_a_nan_in_any_row_block(self, where, value):
        # the N = 400 urn's Gram is read in 7 row blocks of its upper triangle;
        # V^T V is NaN or infinite in the row and column of the entry's
        # eigenvector, which for column 3 only the first block holds
        data = dimension_spectrum(ehrenfest_dimension(400))
        blocks = spectral._row_blocks(401)
        assert len(blocks) > 1
        column = blocks[0].start + 3 if where == "first" else blocks[-1].stop - 2
        vectors = data.eigenvectors.copy()
        vectors[200, column] = value
        with pytest.raises(NumericalError, match="not orthonormal"):
            dataclasses.replace(data, eigenvectors=vectors).validate()

    def test_solve_holds_at_most_two_and_a_half_n_by_n_arrays(self):
        # the twisted vectors of the lambda >= 0 half hold two n x n/2 pivot tables,
        # |gamma| a row block at a time and the ratio products in place; the half's
        # vectors and the mirrored table then hold 1.5 arrays, and validate's Gram
        # is read a row block at a time, so the solve holds 1.76 arrays; with every
        # column solved it held 2.3, and with gamma whole 3.24
        spec = ehrenfest_dimension(400)
        dimension_spectrum(spec)  # LAPACK's first call, outside the trace
        tracemalloc.start()
        try:
            dimension_spectrum(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * 401**2

    @settings(max_examples=60, deadline=None)
    @given(dimension_specs(max_size=12))
    def test_reconstruction_and_spectrum_bounds(self, spec):
        tri = symmetrize(spec)
        data = eigendecompose(tri)
        reconstruction = (data.eigenvectors * data.eigenvalues) @ data.eigenvectors.T
        assert np.max(np.abs(reconstruction - tri.to_dense())) <= 1e-10
        assert np.max(np.abs(data.eigenvalues)) <= 1.0 + 1e-10
        assert abs(float(weights(data).sum()) - 1.0) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(dimension_specs(max_size=12))
    def test_agrees_with_brute_force_solver(self, spec):
        # the serial QL loop, independent of the LAPACK call that supplies the values
        tri = symmetrize(spec)
        data = eigendecompose(tri)
        reference = np.sort(serial_tridiagonal_ql(np.zeros(tri.n_states), tri.offdiag)[0])
        assert np.max(np.abs(data.eigenvalues - reference)) <= 1e-10

    # The exact urn spectrum is (2k - N) / N; measured error at most 1.0e-15 (N = 1100).
    @pytest.mark.parametrize("n_balls", [1, 2, 3, 7, 15, 96, 240, 1100])
    def test_urn_eigenvalues_are_the_closed_form(self, n_balls):
        data = dimension_spectrum(ehrenfest_dimension(n_balls))
        exact = (2.0 * np.arange(n_balls + 1) - n_balls) / n_balls
        assert np.max(np.abs(data.eigenvalues - exact)) <= 1e-14

    # The urn's weights V[0]^2 are Binomial(N, 1/2), tails down to 2^-2001 included.
    # N = 2001 (gap 2 / N below 1e-3, as from N = 2000 on) takes the SVD route with its rebuilt tails,
    # measured within 6.4e-12.
    @pytest.mark.parametrize("n_balls", [96, 240, 2001])
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


class TestChirality:
    """J's zero diagonal mirrors every spectrum: lambda with -lambda, V[:, n - 1 - i] = S V[:, i]."""

    @staticmethod
    def assert_mirrored(data: SpectralData) -> None:
        # bit for bit: -x and S x flip sign bits only, so the bits must match, zeros included
        values, vectors = data.eigenvalues, data.eigenvectors
        n, paired = data.n_states, data.n_states // 2
        signs = np.where(np.arange(n) % 2, -1.0, 1.0)[:, None]  # S = diag((-1)^k)
        partners = slice(n - 1, n - 1 - paired, -1)
        assert np.array_equal(values[:paired].view(np.int64), (-values[partners]).view(np.int64))
        assert np.array_equal(
            vectors[:, :paired].view(np.int64), (signs * vectors[:, partners]).view(np.int64)
        )
        if n % 2:  # the unpaired middle eigenvalue is an exact +0.0
            assert values[paired].view(np.int64) == 0

    @settings(max_examples=60, deadline=None)
    @given(dimension_specs(max_size=12))
    def test_random_dimensions(self, spec):
        self.assert_mirrored(dimension_spectrum(spec))

    @pytest.mark.parametrize(
        "dim",
        [ehrenfest_dimension(n) for n in (1, 2, 3, 96, 240)] + [double_well(s) for s in (12, 43, 80, 130)],
        ids=[f"urn-{n}" for n in (1, 2, 3, 96, 240)] + [f"well-{s}" for s in (12, 43, 80, 130)],
    )
    def test_urns_and_double_wells(self, dim):
        self.assert_mirrored(dimension_spectrum(dim))

    @settings(max_examples=30, deadline=None)
    @given(multi_chain_specs(max_dims=3, max_size=6))
    def test_chain_spectra(self, spec):
        for data in chain_spectra(spec):
            self.assert_mirrored(data)


def next_above(values: list[float]) -> list[float]:
    """Each value not above its predecessor raised to the next double above it, in order."""
    out = list(values)
    for i in range(1, len(out)):
        if out[i] <= out[i - 1]:
            out[i] = math.nextafter(out[i - 1], math.inf)
    return out


class TestTiedSingularValues:
    """A singular value that ties its predecessor in the lambda >= 0 half is raised by one ulp."""

    A = 0.5

    @pytest.mark.parametrize(
        "n_balls, sigma",
        [
            (7, [0.9, A, A, A]),  # a run of three
            (7, [math.nextafter(A, 1.0), A, A, 0.2]),  # raising one makes the next tie
            (7, [0.9, 0.6, 0.3, 0.0]),  # even n: the smallest must be above its mirror
            (8, [0.9, 0.6, 0.3, 0.0]),  # odd n: above the exact 0
        ],
    )
    def test_ties_are_raised(self, monkeypatch, n_balls, sigma):
        svd = np.linalg.svd

        def tied(b, compute_uv=True):  # LAPACK's vectors, the given values
            return svd(b) if compute_uv else np.array(sigma)

        monkeypatch.setattr(np.linalg, "svd", tied)
        data = dimension_spectrum(ehrenfest_dimension(n_balls))
        n = n_balls + 1
        half = next_above([0.0] + sorted(sigma))[1 - n % 2 :]
        assert data.eigenvalues[n // 2 :].tolist() == half
        TestChirality.assert_mirrored(data)


# 80-digit reference spectra and walks from position 0 of the double wells;
# tests/data/make_double_well_fixture.py writes the file.
DOUBLE_WELLS = json.loads((Path(__file__).parent / "data" / "double_well_mp.json").read_text())


class TestDoubleWellReference:
    """Double wells of size 2 to 130, whose eigenvalues pair within about 3^-size."""

    def test_every_size_solves(self):
        for size in range(2, 131):
            TestChirality.assert_mirrored(dimension_spectrum(double_well(size)))

    # Measured over the fixture's sizes: eigenvalues within 8.5 eps (size 30) and
    # |U|^2 within 28.6 t eps (size 3 at t = 0.7, on the twisted route: 4.4e-15),
    # 7.9 t eps on every other size; the QL before the chiral solver read 11 eps and
    # 11.4 t eps on the sizes it solved, and failed on 42, 50, 60, 68 and from 86 on.
    # The size-3 error is the twisted vectors' eps / gap, so it scales with the
    # last bit of the eigenvalues, which another LAPACK may round the other way:
    # K is twice the measured worst.
    K = 64

    @pytest.mark.parametrize("size", sorted(map(int, DOUBLE_WELLS["wells"])))
    def test_matches_the_80_digit_fixture(self, size):
        reference = DOUBLE_WELLS["wells"][str(size)]
        data = dimension_spectrum(double_well(size))
        eps = np.finfo(float).eps
        assert np.max(np.abs(data.eigenvalues - reference["eigenvalues"])) <= self.K * eps
        for t, expected in zip(DOUBLE_WELLS["times"], reference["probabilities"]):
            error = np.max(np.abs(transition_row(data, t, 0) - expected))
            assert error <= self.K * t * eps


class TestSymmetricTridiagonal:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_offdiag(self, value):
        with pytest.raises(ValueError, match=r"^offdiag"):
            SymmetricTridiagonal(offdiag=np.array([0.5, value]))

    @pytest.mark.parametrize("offdiag", [np.array(0.5), np.full((2, 2), 0.5)])
    def test_rejects_an_offdiag_that_is_not_a_vector(self, offdiag):
        with pytest.raises(ValueError, match="^offdiag must be a one-dimensional array$"):
            SymmetricTridiagonal(offdiag=offdiag)

    @pytest.mark.parametrize("value", [0.0, -0.5])
    def test_rejects_an_offdiag_entry_that_is_not_positive(self, value):
        with pytest.raises(ValueError, match="^off-diagonal entries must be strictly positive$"):
            SymmetricTridiagonal(offdiag=np.array([0.5, value]))

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_matmul_is_the_dense_product(self, n):
        rng = np.random.default_rng(n)
        tri = SymmetricTridiagonal(offdiag=rng.uniform(0.1, 1, n - 1))
        assert tri.n_states == n and np.array_equal(np.diag(tri.to_dense()), np.zeros(n))
        for v in (rng.standard_normal((n, 5)), rng.standard_normal(n)):
            product = tri @ v
            assert product.shape == v.shape
            assert np.max(np.abs(product - tri.to_dense() @ v)) <= 1e-15


def serial_reference(tri):
    """The serial QL's spectrum with eigendecompose's ordering and sign conventions."""
    values, vectors = serial_tridiagonal_ql(np.zeros(tri.n_states), tri.offdiag)
    order = np.argsort(values)
    vectors = vectors[:, order]
    return values[order], vectors * np.sign(vectors[0])


def twisted_counter(mp: pytest.MonkeyPatch) -> list[int]:
    """Record the number of eigenvalues of every twisted-factorization call."""
    calls: list[int] = []
    solve = spectral._twisted_eigenvectors

    def counting(offdiag, values):
        calls.append(values.size)
        return solve(offdiag, values)

    mp.setattr(spectral, "_twisted_eigenvectors", counting)
    return calls


class TestTwistedEigenvectors:
    """eigendecompose's two routes against the serial QL reference."""

    # The singular values of B and the QL's eigenvalues differ by at most 9.5 eps at
    # N = 240 and 7 eps on 3000 random chains of up to 12 states (LAPACK's eigvalsh
    # read 18 and 9).  On the twisted route, every gap at least 1e-3, the vectors
    # agree within 1e-12 (at most 4.3e-13 on 40000 random chains of up to 12
    # states).  On the SVD route either method fixes an eigenvector only to about
    # eps / gap, so each column is compared within 256 eps over its own gap (the
    # nearer neighbour's), and V Lambda V^T against J within 1e-13.  Measured: at
    # most 87 eps / gap (double well of size 30), 18.4 on 20000 random chains of
    # up to 12 states sent to the SVD route.  The residual J v - lambda v is
    # checked on both (at most 7.4e-15 on the same chains).
    @classmethod
    def assert_matches_serial(cls, tri) -> None:
        data = eigendecompose(tri)
        ref_values, ref_vectors = serial_reference(tri)
        assert np.max(np.abs(data.eigenvalues - ref_values)) <= 1e-13
        residual = tri @ data.eigenvectors - data.eigenvectors * data.eigenvalues
        assert np.max(np.abs(residual)) <= 1e-13
        if spectral._takes_svd_route(data.eigenvalues):
            cls.assert_matches_serial_spectrum(tri, data)
        else:
            assert np.max(np.abs(data.eigenvectors - ref_vectors)) <= 1e-12

    @pytest.mark.parametrize("n_balls", [1, 2, 3, 7, 15, 96, 240])
    def test_ehrenfest_takes_the_twisted_route_on_the_half(self, n_balls, monkeypatch):
        # N + 1 states: the lambda >= 0 half is N // 2 + 1 eigenvalues, the 0 included for even N
        calls = twisted_counter(monkeypatch)
        self.assert_matches_serial(symmetrize(ehrenfest_dimension(n_balls)))
        assert calls == [n_balls // 2 + 1]

    @settings(max_examples=60, deadline=None)
    @given(dimension_specs(max_size=12))
    def test_random_dimensions(self, spec):
        self.assert_matches_serial(symmetrize(spec))

    @settings(max_examples=60, deadline=None)
    @given(dimension_specs(max_size=12))
    def test_random_dimensions_on_the_svd_route(self, spec):
        tri = symmetrize(spec)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_TWIST_MIN_GAP", math.inf)
            calls = twisted_counter(mp)
            data = eigendecompose(tri)
        assert calls == []
        self.assert_matches_serial_spectrum(tri, data)

    @staticmethod
    def assert_matches_serial_spectrum(tri, data) -> None:
        ref_values, ref_vectors = serial_reference(tri)
        assert np.max(np.abs(data.eigenvalues - ref_values)) <= 1e-13
        steps = np.diff(data.eigenvalues)
        gap = np.minimum(np.append(np.inf, steps), np.append(steps, np.inf))
        error = np.max(np.abs(data.eigenvectors - ref_vectors), axis=0)
        assert np.all(error <= 256 * np.finfo(float).eps / gap)
        reconstruction = (data.eigenvectors * data.eigenvalues) @ data.eigenvectors.T
        assert np.max(np.abs(reconstruction - tri.to_dense())) <= 1e-13

    @pytest.mark.parametrize("size", [12, 16, 20, 30, 80])
    def test_double_well_takes_the_svd_route(self, size, monkeypatch):
        calls = twisted_counter(monkeypatch)
        tri = symmetrize(double_well(size))
        data = eigendecompose(tri)
        assert calls == []
        self.assert_matches_serial_spectrum(tri, data)

    # A disordered chain of 300 states: its tight gaps take the SVD route, and |U|^2
    # must stay within K t eps of expm.  Measured on seeds 0-15: up to 41.4 at
    # t = 0.7, 12.2 at t = 30 and 5.4 at t = 500; seed 0 reads 32.1, 4.2 and 3.1
    # (the QL, before the chiral solver, read up to 85, 12 and 9.4, and 53, 12 and
    # 5.9 on seed 0).
    def test_disordered_chain_on_the_svd_route_matches_expm(self, monkeypatch):
        calls = twisted_counter(monkeypatch)
        rng = np.random.default_rng(0)
        spec = DimensionSpec(size=299, decrease_prob=tuple(rng.uniform(0.02, 0.98, 298)))
        data = dimension_spectrum(spec)
        assert calls == []
        assert float(np.diff(data.eigenvalues).min()) < spectral._TWIST_MIN_GAP
        j = symmetrize(spec).to_dense()
        for t in (0.7, 30.0, 500.0):
            expected = np.abs(scipy.linalg.expm(1j * t * j)) ** 2
            error = np.max(np.abs(transition_matrix_1d(data, t) - expected))
            assert error <= 74 * t * np.finfo(float).eps

    # The double wells of size 7, 8 and 9 have smallest gaps of 9.8e-4, 5.4e-4 and
    # 1.1e-4.  On the SVD route |U|^2 reads at most 7.9, 5.0 and 10.0 t eps from
    # expm at t = 0.7 and 30; the twisted vectors read 639, 1224 and 10 634, with
    # an orthonormality defect of up to 1.4e-12.
    @pytest.mark.parametrize("size", [7, 8, 9])
    def test_gaps_below_1e_3_take_the_svd_route(self, size, monkeypatch):
        calls = twisted_counter(monkeypatch)
        tri = symmetrize(double_well(size))
        data = eigendecompose(tri)
        assert calls == []
        for t in (0.7, 30.0):
            expected = np.abs(scipy.linalg.expm(1j * t * tri.to_dense())) ** 2
            error = np.max(np.abs(transition_matrix_1d(data, t) - expected))
            assert error <= 32 * t * np.finfo(float).eps

    # Without the gap rule the twisted vectors' defect, about eps / gap, exceeds
    # the validation tolerance from size 16 (smallest gap 8.3e-8) on.
    @pytest.mark.parametrize("size", [16, 20, 30, 80])
    def test_tight_gaps_need_the_rule(self, size, monkeypatch):
        monkeypatch.setattr(spectral, "_TWIST_MIN_GAP", 0.0)
        with pytest.raises(NumericalError, match="not orthonormal"):
            eigendecompose(symmetrize(double_well(size)))

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
        tri = symmetrize(ehrenfest_dimension(n_balls))
        values = (2.0 * np.arange(n_balls + 1) - n_balls) / n_balls
        zero = n_balls // 2
        pivmin = float(np.finfo(float).tiny)  # max b^2 < 1
        assert values[zero] == 0.0
        backward = spectral._pivots(tri.offdiag[::-1], values)
        assert backward[0, zero] == -pivmin
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            vectors = spectral._twisted_eigenvectors(tri.offdiag, values)
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
        # equal by value, not by identity: a fresh ehrenfest_dimension(3) shares a's eigensolve,
        # a fresh copy of b shares b's
        b_copy = DimensionSpec(size=2, decrease_prob=(0.3,))
        dims = (a, b, ehrenfest_dimension(3), c, b, a, b_copy)
        spec = MultiChainSpec(dims=dims, select_prob=(1 / 7,) * 7)
        spectra = chain_spectra(spec)
        assert solved == [a, b, c]
        assert [s.n_states for s in spectra] == [4, 3, 4, 2, 3, 4, 3]
        assert spectra[0] is spectra[2] is spectra[5]
        assert spectra[1] is spectra[4] is spectra[6]
        for dim, s in zip(spec.dims, spectra):
            assert np.array_equal(s.eigenvectors, dimension_spectrum(dim).eigenvectors)

    def test_the_dimensions_are_numbered_once_by_value(self):
        # the chain of test_one_eigensolve_per_distinct_dimension: numbers in
        # order of first appearance, equal dimensions one number, solved at first
        a, c = ehrenfest_dimension(3), ehrenfest_dimension(1)
        b, b_copy = (DimensionSpec(size=2, decrease_prob=(0.3,)) for _ in range(2))
        dims = (a, b, ehrenfest_dimension(3), c, b, a, b_copy)
        spec = MultiChainSpec(dims=dims, select_prob=(1 / 7,) * 7)
        first, index = spec.distinct
        assert first == (0, 1, 3)
        assert index == (0, 1, 0, 2, 1, 0, 1)
        assert all(dims[first[i]] == dim for i, dim in zip(index, dims))
        spectra = chain_spectra(spec)
        assert all(spectra[l] is spectra[first[i]] for l, i in enumerate(index))

    def test_a_failure_names_the_first_index_of_equal_objects(self):
        # two separate but equal urns that the eigensolver cannot resolve: at N = 2200
        # the smallest first component, 2^-1100, is below the smallest subnormal
        first, second = ehrenfest_dimension(2200), ehrenfest_dimension(2200)
        assert first == second and first is not second
        dims = (ehrenfest_dimension(3), first, ehrenfest_dimension(5), second)
        spec = MultiChainSpec(dims=dims, select_prob=(0.25,) * 4)
        with pytest.raises(NumericalError) as info:
            chain_spectra(spec)
        assert str(info.value) == "dims[1] (size 2200): eigenvector with vanishing first component"
        flipped = MultiChainSpec(dims=(second,) + dims[:3], select_prob=(0.25,) * 4)
        with pytest.raises(NumericalError, match=r"^dims\[0\] \(size 2200\): "):
            chain_spectra(flipped)


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

    @pytest.mark.parametrize("seed", range(6))
    def test_one_gram_equals_the_three_array_form_bit_for_bit(self, seed):
        # random matrices of 1 to 40 rows, near-orthogonal and far from it, one to
        # three dimensions; then a NaN in a row (on the Gram's diagonal and off
        # it) and an infinity beside zeros (a NaN off the diagonal, inf on it)
        rng = np.random.default_rng(seed)

        def data(n: int, scale: float) -> SpectralData:
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            vectors = q + scale * rng.standard_normal((n, n))
            return SpectralData(eigenvalues=np.zeros(n), eigenvectors=vectors)

        for _ in range(10):
            datasets = [
                data(int(rng.integers(1, 41)), float(rng.choice([0.0, 1e-12, 1e-3, 1.0])))
                for _ in range(rng.integers(1, 4))
            ]
            assert orthogonality_defect(datasets) == three_array_orthogonality_defect(datasets)
        for value, fill in ((math.nan, None), (math.inf, 0.0)):
            bad = data(5, 1e-3)
            if fill is not None:
                bad.eigenvectors[:, 2] = fill
            bad.eigenvectors[3, 2] = value
            for datasets in ([bad], [data(4, 0.0), bad], [bad, data(3, 1e-6)]):
                with np.errstate(invalid="ignore"):  # inf * 0 in the Gram is the point
                    assert math.isnan(three_array_orthogonality_defect(datasets))
                    assert math.isnan(orthogonality_defect(datasets))

    def test_holds_one_gram(self):
        # the N = 400 urn's Gram is 8 * 401^2 bytes; the three-array form held
        # three such arrays at its peak
        data = dimension_spectrum(ehrenfest_dimension(400))
        tracemalloc.start()
        try:
            defect = orthogonality_defect([data])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * 401**2
        assert defect <= 1e-10

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
