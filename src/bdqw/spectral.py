"""Symmetrization and spectral decomposition of per-dimension kernels.

A birth-death kernel P with positive steps both ways is similar to the
symmetric tridiagonal J = D^{1/2} P D^{-1/2}, D its stationary law; J has P's
diagonal and off-diagonal sqrt(P[k, k+1] P[k+1, k]), so it needs no D.  A
dimension's spectral data is J's orthonormal eigensystem and nothing else.
The Golub-Welsch objects (1969) are read off the eigenvectors V: the
discrete weight function is V[0]^2, which sums to one, and the table of
orthogonal-polynomial values is V / V[0], each column rescaled so its first
entry equals one.

The eigenvalues come from LAPACK (np.linalg.eigvalsh), the eigenvectors
from twisted factorizations at those values, which keep tiny first
components to high relative accuracy; a spectrum with a tight gap takes
both from a QL iteration instead.  Eigenvalues are returned in ascending
order and every eigenvector is flipped so its first component is strictly
positive, making the output deterministic.  Per-dimension decompositions
are independent pure functions and safe to run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import DimensionSpec, MultiChainSpec, build_conditional_matrix
from .errors import NumericalError

_QL_MAX_SWEEPS = 30
# Bound on the orthonormality and weight-sum defects SpectralData.validate accepts.
_VALIDATE_TOLERANCE = 1e-10
# A spectrum whose smallest gap is below this takes its eigenvectors from the
# QL rotations instead of twisted factorizations.  Measured on the double wells
# of 2 to 40 states and 2000 random chains of up to 40, with twisted vectors
# built on LAPACK's eigenvalues, twisted and QL vectors differ by at most
# 1.1e-15 / gap and the orthonormality defect reaches 1.7e-15 / gap, so from
# this gap on the vectors agree within about 1e-12 and the defect is below 2e-12.
_TWIST_MIN_GAP = 1e-3
# The twist search and SpectralData.validate read their n x n products in row
# blocks: at most _BLOCKS of them, each of at least _MIN_BLOCK rows, so a
# small n keeps one block.
_BLOCKS = 8
_MIN_BLOCK = 64


@dataclass(frozen=True)
class SymmetricTridiagonal:
    """Unreduced symmetric tridiagonal matrix: finite entries, all off-diagonal ones > 0."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self) -> None:
        diag = np.asarray(self.diag, dtype=float)
        off = np.asarray(self.offdiag, dtype=float)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", off)
        if diag.ndim != 1 or diag.size < 1:
            raise ValueError("diag must be a non-empty one-dimensional array")
        if off.shape != (diag.size - 1,):
            raise ValueError("offdiag must have one entry fewer than diag")
        if not np.isfinite(diag).all():
            raise ValueError("diag entries must be finite")
        if not np.isfinite(off).all():
            raise ValueError("offdiag entries must be finite")
        if off.size and float(off.min()) <= 0.0:
            raise ValueError("off-diagonal entries must be strictly positive")

    @property
    def n_states(self) -> int:
        return self.diag.size

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """J @ v in v's shape, for a vector or a matrix v: O(n) per column from the diagonals."""
        rows = (slice(None),) + (None,) * (np.ndim(v) - 1)  # J's entries along v's first axis
        out = self.diag[rows] * v
        out[:-1] += self.offdiag[rows] * v[1:]
        out[1:] += self.offdiag[rows] * v[:-1]
        return out

    def to_dense(self) -> np.ndarray:
        j = np.diag(self.diag)
        idx = np.arange(self.n_states - 1)
        j[idx, idx + 1] = self.offdiag
        j[idx + 1, idx] = self.offdiag
        return j


@dataclass(frozen=True)
class SpectralData:
    """Full eigensystem of one dimension's symmetrized kernel.

    ``eigenvalues`` are strictly ascending; ``eigenvectors`` holds orthonormal
    columns with positive first components.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n_states(self) -> int:
        return self.eigenvalues.size

    def validate(self) -> None:
        """Check the construction invariants, raising NumericalError on violation.

        Every check is written so that a NaN fails it; a first component whose
        square underflows to 0 passes.
        """
        lam, vec = self.eigenvalues, self.eigenvectors
        if lam.size > 1 and not float(np.diff(lam).min()) > 0.0:
            raise NumericalError("eigenvalues are not strictly ascending")
        if not float(np.max(np.abs(lam))) <= 1.0 + 1e-10:
            raise NumericalError("spectrum escapes [-1, 1]")
        ortho = 0.0  # max |V^T V - I| over the Gram's upper triangle, a row block at a time
        for rows in _row_blocks(vec.shape[1]):
            block = vec[:, rows].T @ vec[:, rows.start :]  # G - I and its modulus, in place
            block.reshape(-1)[:: block.shape[1] + 1] -= 1.0
            ortho = np.maximum(ortho, np.abs(block, out=block).max())  # keeps a NaN
        ortho = float(ortho)
        if not ortho <= _VALIDATE_TOLERANCE:
            raise NumericalError(f"eigenvector columns not orthonormal (defect {ortho})")
        if not float(vec[0].min()) > 0.0:
            raise NumericalError("first eigenvector components must be strictly positive")
        if not abs(float((vec[0] ** 2).sum()) - 1.0) <= _VALIDATE_TOLERANCE:
            raise NumericalError("weights do not sum to 1")


def symmetrize(matrix: np.ndarray) -> SymmetricTridiagonal:
    """J = D^{1/2} m D^{-1/2}: m's diagonal and off-diagonal sqrt(m[k, k+1] m[k+1, k]).

    Raises ValueError for a non-square kernel or a step product that is not
    strictly positive (NaN included).
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"kernel must be a square matrix, got shape {m.shape}")
    steps = np.diag(m, 1) * np.diag(m, -1)
    if steps.size and not float(steps.min()) > 0.0:
        raise ValueError("kernel step products m[k, k+1] * m[k+1, k] must be strictly positive")
    return SymmetricTridiagonal(diag=np.diag(m).copy(), offdiag=np.sqrt(steps))


def _tridiagonal_ql(diag: np.ndarray, offdiag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Implicitly shifted QL iteration for a symmetric tridiagonal matrix.

    Returns (eigenvalues, eigenvector columns), unsorted.  Convergence of an
    off-diagonal entry is declared when it is negligible relative to its two
    diagonal neighbours; each eigenvalue is allowed at most _QL_MAX_SWEEPS
    sweeps.  eigendecompose runs it only on spectra with tight gaps.

    The scalar recurrence runs on Python floats.  Each Givens rotation
    (i, c, s) is applied as it is made to rows i and i+1 of the row-major
    transpose, one column pair at a time.
    """
    n = diag.size
    d = diag.astype(float).tolist()
    e = offdiag.astype(float).tolist() + [0.0]
    zt = np.eye(n)  # row j is eigenvector column j
    eps = float(np.finfo(float).eps)

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
                za, zb = zt[i].copy(), zt[i + 1]
                zt[i] = c * za - s * zb
                zb *= c
                zb += s * za
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0
    # C-ordered columns, as the serial loop returned, so later matmuls see the same layout
    return np.array(d), zt.T.copy()


def _pivots(diag: np.ndarray, offdiag: np.ndarray, values: np.ndarray, pivmin: float) -> np.ndarray:
    """Pivots D[k] of J - lambda I = L D L^T from the top, column i for lambda = values[i].

    D[0] = a[0] - lambda and D[k] = (a[k] - lambda) - b[k-1]^2 / D[k-1].  A
    pivot smaller than ``pivmin`` in magnitude is replaced by -pivmin, as
    LAPACK's dlar1v does, so every division stays finite.
    """
    piv = np.empty((diag.size, values.size))
    piv[0] = diag[0] - values
    squares = offdiag * offdiag
    for k in range(diag.size):
        row = piv[k]
        np.copyto(row, -pivmin, where=np.abs(row) < pivmin)
        if k + 1 < diag.size:
            np.subtract(diag[k + 1] - values, squares[k] / row, out=piv[k + 1])
    return piv


def _row_blocks(n: int) -> list[slice]:
    """Slices covering range(n) in order: at most _BLOCKS, all but the last _MIN_BLOCK or longer."""
    if n <= _MIN_BLOCK:
        return [slice(0, n)]
    step = max(_MIN_BLOCK, -(-n // _BLOCKS))
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _ratio_products(offdiag: np.ndarray, piv: np.ndarray, twist: np.ndarray) -> np.ndarray:
    """z[k] / z[twist] above the twist: the product of -b[j] / D[j], k <= j < twist; 1 elsewhere.

    Formed in place over the pivot table ``piv``, which is returned: the
    ratios, masked in row blocks, then one cumprod run upwards over a
    reversed view.
    """
    np.divide(-offdiag[:, None], piv[:-1], out=piv[:-1])
    piv[-1] = 1.0
    for rows in _row_blocks(piv.shape[0] - 1):
        np.copyto(piv[rows], 1.0, where=np.arange(rows.start, rows.stop)[:, None] >= twist)
    np.cumprod(piv[::-1], axis=0, out=piv[::-1])
    return piv


def _twisted_eigenvectors(diag: np.ndarray, offdiag: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Unit eigenvector columns of a tridiagonal J for given eigenvalues, by twisted factorization.

    For every eigenvalue at once: forward pivots D+ of J - lambda I from the
    top and backward pivots D- from the bottom (see _pivots, whose guard
    keeps an exactly singular leading or trailing block finite); the twist
    r = argmin_k |gamma[k]|, where gamma[k] = D+[k] + D-[k] - (a[k] - lambda)
    is 1 / (J - lambda I)^{-1}[k, k]; then z[r] = 1, z[k] = -b[k] / D+[k] *
    z[k+1] above r and z[k] = -b[k-1] / D-[k] * z[k-1] below it (Parlett &
    Dhillon, LAA 267, 1997; Dhillon & Parlett, LAA 387, 2004).  Products of
    ratios keep small entries, the first components among them, to high
    relative accuracy.  The columns are normalized, with signs as they fall.

    Two n x n arrays are held, the pivot tables: |gamma| is read in row
    blocks (_row_blocks), the first minimum of each column kept, and both
    ratio products are formed in place over the tables.
    """
    n, m = diag.size, values.size
    pivmin = float(np.finfo(float).tiny) * max(1.0, float((offdiag * offdiag).max(initial=0.0)))
    down = _pivots(diag, offdiag, values, pivmin)
    up = _pivots(diag[::-1], offdiag[::-1], values, pivmin)[::-1]
    firsts, lows = [], []  # each block's argmin of |gamma|, as a row of J, and its minimum
    for rows in _row_blocks(n):
        # column-major: argmin copies any array whose axis 0 is not contiguous
        gamma = np.add(down[rows], up[rows], out=np.empty((rows.stop - rows.start, m), order="F"))
        gamma -= diag[rows, None]
        gamma += values
        np.abs(gamma, out=gamma)
        firsts.append(gamma.argmin(axis=0) + rows.start)
        lows.append(gamma.min(axis=0))
        del gamma  # before the next block's is made
    # the first block holding the minimum; np.choose takes up to 32 choices
    twist = firsts[0] if len(firsts) == 1 else np.choose(np.argmin(lows, axis=0), firsts)
    vectors = _ratio_products(offdiag, down, twist)
    vectors *= _ratio_products(offdiag[::-1], up[::-1], n - 1 - twist)[::-1]
    del up
    vectors /= np.sqrt((vectors * vectors).sum(axis=0))
    return vectors


def eigendecompose(tri: SymmetricTridiagonal) -> SpectralData:
    """Eigensystem of a symmetric tridiagonal matrix with the package's conventions.

    The eigenvalues come from LAPACK, np.linalg.eigvalsh on the dense J,
    ascending.  The eigenvectors come from twisted factorizations of
    J - lambda I at those values (_twisted_eigenvectors), with pivots below
    tiny * max(1, max b^2) in magnitude replaced by that bound's negative.
    Their error grows as eps / gap, so when the smallest gap between
    eigenvalues is below _TWIST_MIN_GAP the QL iteration, rotations
    included, supplies values and vectors instead.  There the first
    components, and so the weights V[0]^2, are accurate only to about 1e-16
    in absolute terms: on a double well of 81 states the pairs of
    eigenvalues near 1 and -1, each split by 2.1e-17, hold two first
    components of 2.3e-22, which the QL returns as 3.2e-46 and 1.7e-17.
    Deeper wells fail loudly: a pair that rounds to one double fails the
    strict ascent check, and a first component the QL returns as exactly 0
    is rejected as vanishing.

    Eigenvalues come out strictly ascending with their orthonormal columns
    permuted jointly; each column is flipped so the first component is
    positive, fixing the sign freedom.

    Raises NumericalError if the iteration does not converge or the result
    violates its invariants.
    """
    values = np.linalg.eigvalsh(tri.to_dense())
    if values.size > 1 and float(np.diff(values).min()) < _TWIST_MIN_GAP:
        values, vectors = _tridiagonal_ql(tri.diag, tri.offdiag)
        order = np.argsort(values)
        values, vectors = values[order], vectors[:, order]
    else:
        vectors = _twisted_eigenvectors(tri.diag, tri.offdiag, values)

    if np.any(vectors[0] == 0.0):
        raise NumericalError("eigenvector with vanishing first component")
    vectors *= np.sign(vectors[0])  # np.sign makes a copy of the row before it is flipped
    data = SpectralData(eigenvalues=values, eigenvectors=vectors)
    data.validate()
    return data


def dimension_spectrum(spec: DimensionSpec) -> SpectralData:
    """Kernel, symmetrization and eigensystem for one dimension."""
    return eigendecompose(symmetrize(build_conditional_matrix(spec)))


def chain_spectra(spec: MultiChainSpec) -> tuple[SpectralData, ...]:
    """Spectra of a chain's dimensions in order, one eigensolve per distinct dimension.

    Each distinct dimension of ``spec.distinct`` is solved at its first
    position, and equal dimensions share the result.  A NumericalError is
    prefixed with ``dims[i] (size N): ``, i that first position.
    """
    solved = []
    for l in spec.distinct[0]:
        try:
            solved.append(dimension_spectrum(spec.dims[l]))
        except NumericalError as exc:
            raise NumericalError(f"dims[{l}] (size {spec.dims[l].size}): {exc}") from exc
    return tuple(map(solved.__getitem__, spec.distinct[1]))


def orthogonality_defect(datasets: list[SpectralData] | tuple[SpectralData, ...]) -> float:
    """Worst-case deviation of the weighted polynomial products from identity.

    For basis pairs (j, k) of the product space, sums the per-dimension
    products p_l(j) p_l(k) weighted by the measure over all spectral indices
    and compares against the Kronecker delta.  The first components cancel,
    so each dimension's Gram is G_l = V_l V_l^T, which reads no weight.

    The Gram matrix is the Kronecker product of the per-dimension Grams G_l,
    never formed: the worst diagonal defect is max(prod dmax_l - 1,
    1 - prod dmin_l), the worst off-diagonal entry max_l offmax_l *
    prod_{m != l} absmax_m.  Rounding is monotone in non-negative factors,
    so products formed left to right, as np.kron does, give its exact value.

    Each dimension holds its Gram and no other n x n array: the diagonal's
    extremes are read first, then the Gram is made absolute in place, its
    maximum read, its diagonal zeroed and the off-diagonal maximum read.
    """
    datasets = tuple(datasets)
    if not datasets:
        raise ValueError("need at least one SpectralData")
    diag_max = diag_min = span = 1.0
    off = 0.0  # worst |off-diagonal entry| of the Gram over the dimensions so far
    for s in datasets:
        gram = s.eigenvectors @ s.eigenvectors.T
        diag = np.diagonal(gram)
        diag_max *= diag.max()
        diag_min *= diag.min()
        top = np.abs(gram, out=gram).max()
        np.fill_diagonal(gram, 0.0)  # a NaN there is in diag_max and top already
        # np.maximum keeps a NaN, as the maximum over the Kronecker build does
        off = np.maximum(off * top, span * gram.max())
        span *= top
    return float(np.max([diag_max - 1.0, 1.0 - diag_min, off]))
