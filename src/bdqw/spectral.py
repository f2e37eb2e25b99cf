"""Symmetrization and spectral decomposition of per-dimension kernels.

A birth-death kernel P with positive steps both ways is similar to the
symmetric tridiagonal J = D^{1/2} P D^{-1/2}, D its stationary law; J has P's
diagonal and off-diagonal sqrt(P[k, k+1] P[k+1, k]), so it needs no D.  A
dimension's spectral data is J's orthonormal eigensystem, from which two
objects are derived when read (Golub & Welsch, 1969):

* a discrete weight function, the squared first components of the
  eigenvectors, which sums to one; and
* a table of orthogonal-polynomial values, each eigenvector rescaled so its
  first entry equals one.

The weight/polynomial pair gives an independent route to transition
amplitudes and to the orthogonality checks in the verification tooling.

Eigenvalues are returned in ascending order and every eigenvector is flipped
so its first component is strictly positive, making the output deterministic.
Per-dimension decompositions are independent pure functions and safe to run
concurrently.
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
# Queued QL rotations are applied once they number this many per state, so the
# rotation schedule's memory grows linearly with the matrix size.
_QL_FLUSH_ROTATIONS_PER_STATE = 32


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

    @property
    def weights(self) -> np.ndarray:
        """Squared first components; NumericalError where one underflows to 0."""
        weights = self.eigenvectors[0] ** 2
        if not weights.all():  # every weight-form result would be wrong
            idx = int(np.argmax(weights == 0.0))
            raise NumericalError(f"weight of eigenvalue index {idx} underflows to 0")
        return weights

    @property
    def poly_table(self) -> np.ndarray:
        """``poly_table[j, l]`` is column l rescaled by its first component."""
        return self.eigenvectors / self.eigenvectors[0]

    def validate(self) -> None:
        """Check the construction invariants, raising NumericalError on violation.

        Every check is written so that a NaN fails it; an underflowed weight passes.
        """
        lam, vec = self.eigenvalues, self.eigenvectors
        n = self.n_states
        if lam.size > 1 and not float(np.diff(lam).min()) > 0.0:
            raise NumericalError("eigenvalues are not strictly ascending")
        if not float(np.max(np.abs(lam))) <= 1.0 + 1e-10:
            raise NumericalError("spectrum escapes [-1, 1]")
        ortho = float(np.max(np.abs(vec.T @ vec - np.eye(n))))
        if not ortho <= _VALIDATE_TOLERANCE:
            raise NumericalError(f"eigenvector columns not orthonormal (defect {ortho})")
        if not float(vec[0].min()) > 0.0:
            raise NumericalError("first eigenvector components must be strictly positive")
        if not abs(float((vec[0] ** 2).sum()) - 1.0) <= _VALIDATE_TOLERANCE:
            raise NumericalError("weights do not sum to 1")

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": self.eigenvalues.tolist(),
            "eigenvectors": self.eigenvectors.tolist(),
            "weights": self.weights.tolist(),
            "poly_table": self.poly_table.tolist(),
        }


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
    sweeps.

    The scalar recurrence runs on Python floats.  Its Givens rotations reach
    the eigenvectors in waves: rotation (i, c, s) joins the first wave after
    the last one that touched column i or i+1, so the rotations of one wave
    touch disjoint column pairs and a wave is one fancy-indexed update of the
    row-major transpose.  Pending waves are applied in order once they hold
    _QL_FLUSH_ROTATIONS_PER_STATE * n rotations, and at the end.  Each column
    sees its rotations in serial order with the same elementwise arithmetic,
    so the output is bit-identical to rotating one column pair at a time.
    """
    n = diag.size
    d = diag.astype(float).tolist()
    e = offdiag.astype(float).tolist() + [0.0]
    zt = np.eye(n)  # row j is eigenvector column j
    eps = float(np.finfo(float).eps)
    flush_at = _QL_FLUSH_ROTATIONS_PER_STATE * n
    waves: list[tuple[list[int], list[float], list[float]]] = []
    last = [-1] * n  # wave that last touched each column since the last flush
    pending = 0

    def flush() -> None:
        for cols, cs, ss in waves:
            i = np.array(cols)
            c = np.array(cs)[:, None]
            s = np.array(ss)[:, None]
            a = zt[i]
            b = zt[i + 1]
            zt[i + 1] = s * a + c * b
            a *= c
            b *= s
            a -= b
            zt[i] = a
        waves.clear()
        last[:] = [-1] * n

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
                w = max(last[i], last[i + 1]) + 1
                last[i] = last[i + 1] = w
                if w == len(waves):
                    waves.append(([i], [c], [s]))
                else:
                    cols, cs, ss = waves[w]
                    cols.append(i)
                    cs.append(c)
                    ss.append(s)
            pending += m - l  # an underflowing sweep queued fewer; flushing early is harmless
            if pending >= flush_at:
                flush()
                pending = 0
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0
    flush()
    # C-ordered columns, as the serial loop returned, so later matmuls see the same layout
    return np.array(d), zt.T.copy()


def eigendecompose(tri: SymmetricTridiagonal) -> SpectralData:
    """Eigensystem of a symmetric tridiagonal matrix with the package's conventions.

    Eigenvalues come out strictly ascending with their orthonormal columns
    permuted jointly; each column is flipped so the first component is
    positive, fixing the sign freedom.

    Raises NumericalError if the iteration does not converge or the result
    violates its invariants.
    """
    values, vectors = _tridiagonal_ql(tri.diag, tri.offdiag)
    order = np.argsort(values)
    values = values[order]
    vectors = vectors[:, order]

    first = vectors[0].copy()
    if np.any(first == 0.0):
        raise NumericalError("eigenvector with vanishing first component")
    data = SpectralData(eigenvalues=values, eigenvectors=vectors * np.sign(first))
    data.validate()
    return data


def dimension_spectrum(spec: DimensionSpec) -> SpectralData:
    """Kernel, symmetrization and eigensystem for one dimension."""
    return eigendecompose(symmetrize(build_conditional_matrix(spec)))


def chain_spectra(spec: MultiChainSpec) -> tuple[SpectralData, ...]:
    """Spectra of a chain's dimensions in order, one eigensolve per distinct dimension."""
    solved = {dim: dimension_spectrum(dim) for dim in dict.fromkeys(spec.dims)}
    return tuple(solved[dim] for dim in spec.dims)


def orthogonality_defect(datasets: list[SpectralData] | tuple[SpectralData, ...]) -> float:
    """Worst-case deviation of the weighted polynomial products from identity.

    For basis pairs (j, k) of the product space, sums the per-dimension
    products p_l(j) p_l(k) weighted by the measure over all spectral indices
    and compares against the Kronecker delta.  Evaluated through the weight /
    polynomial tables, so corrupted first components are detected.

    The Gram matrix is the Kronecker product of the per-dimension Grams G_l,
    never formed: the worst diagonal defect is max(prod dmax_l - 1,
    1 - prod dmin_l), the worst off-diagonal entry max_l offmax_l *
    prod_{m != l} absmax_m.  Rounding is monotone in non-negative factors,
    so products formed left to right, as np.kron does, give its exact value.
    """
    datasets = tuple(datasets)
    if not datasets:
        raise ValueError("need at least one SpectralData")
    diag_max = diag_min = span = 1.0
    off = 0.0  # worst |off-diagonal entry| of the Gram over the dimensions so far
    for s in datasets:
        weights, poly = s.weights, s.poly_table
        gram = (poly * weights) @ poly.T
        diag = np.diagonal(gram)
        top = np.abs(gram).max()
        # np.maximum keeps a NaN, as the maximum over the Kronecker build does
        off = np.maximum(off * top, span * np.abs(gram - np.diag(diag)).max())
        span *= top
        diag_max *= diag.max()
        diag_min *= diag.min()
    return float(np.max([diag_max - 1.0, 1.0 - diag_min, off]))
