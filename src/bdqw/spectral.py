"""Symmetrization and spectral decomposition of per-dimension kernels.

Detailed balance lets every conditional kernel P be conjugated into a
symmetric tridiagonal matrix J = D^{1/2} P D^{-1/2} with the same spectrum,
where D holds the stationary distribution.  The orthonormal eigenbasis of J
then carries two derived objects used throughout the quantum-walk code:

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

from .chain import (
    DEFAULT_ORACLE_CAP,
    DimensionSpec,
    MultiChainSpec,
    build_conditional_matrix,
    check_oracle_cap,
    stationary_distribution,
)
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
    columns with positive first components; ``weights[l]`` is the squared
    first component of column l; ``poly_table[j, l]`` is column l rescaled by
    its first component, so row 0 is identically one.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    weights: np.ndarray
    poly_table: np.ndarray

    @property
    def n_states(self) -> int:
        return self.eigenvalues.size

    def validate(self) -> None:
        """Check the construction invariants, raising NumericalError on violation.

        Every check is written so that a NaN fails it.
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
        if not abs(float(self.weights.sum()) - 1.0) <= _VALIDATE_TOLERANCE:
            raise NumericalError("weights do not sum to 1")
        if not float(np.max(np.abs(self.weights - vec[0] ** 2))) <= 1e-14:
            raise NumericalError("weights disagree with squared first components")
        if not float(np.max(np.abs(self.poly_table[0] - 1.0))) <= 1e-14:
            raise NumericalError("polynomial table row 0 must be identically one")

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": self.eigenvalues.tolist(),
            "eigenvectors": self.eigenvectors.tolist(),
            "weights": self.weights.tolist(),
            "poly_table": self.poly_table.tolist(),
        }


def symmetrize(matrix: np.ndarray, pi: np.ndarray) -> SymmetricTridiagonal:
    """Conjugate a conditional kernel by the square root of its stationary law.

    The result has the kernel's diagonal and off-diagonal entries
    sqrt(m[k, k+1] * m[k+1, k]); under detailed balance this equals
    D^{1/2} m D^{-1/2} entrywise.
    """
    m = np.asarray(matrix, dtype=float)
    p = np.asarray(pi, dtype=float)
    if p.shape != (m.shape[0],):
        raise ValueError("stationary distribution length must match the kernel")
    if not float(p.min()) > 0.0:
        raise ValueError("stationary distribution must be strictly positive (and not NaN)")
    up = np.diag(m, 1)
    down = np.diag(m, -1)
    ratio = np.sqrt(p[:-1] / p[1:])
    if up.size and not float(np.max(np.abs(up * ratio - down / ratio))) <= 1e-12:
        raise ValueError("pi does not satisfy detailed balance for this kernel")
    return SymmetricTridiagonal(diag=np.diag(m).copy(), offdiag=np.sqrt(up * down))


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
    positive, fixing the sign freedom.  Weights and the polynomial table are
    derived from the first row of the eigenvector matrix.

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
    vectors = vectors * np.sign(first)

    weights = vectors[0] ** 2
    poly_table = vectors / vectors[0]
    data = SpectralData(
        eigenvalues=values, eigenvectors=vectors, weights=weights, poly_table=poly_table
    )
    data.validate()
    return data


def dimension_spectrum(spec: DimensionSpec) -> SpectralData:
    """Kernel, stationary law, symmetrization and eigensystem for one dimension."""
    m = build_conditional_matrix(spec)
    pi = stationary_distribution(m)
    return eigendecompose(symmetrize(m, pi))


def chain_spectra(spec: MultiChainSpec) -> tuple[SpectralData, ...]:
    """Spectra of a chain's dimensions in order, one eigensolve per distinct dimension."""
    solved = {dim: dimension_spectrum(dim) for dim in dict.fromkeys(spec.dims)}
    return tuple(solved[dim] for dim in spec.dims)


def orthogonality_defect(
    datasets: list[SpectralData] | tuple[SpectralData, ...],
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> float:
    """Worst-case deviation of the weighted polynomial products from identity.

    For basis pairs (j, k) of the product space, sums the per-dimension
    products p_l(j) p_l(k) weighted by the measure over all spectral indices
    and compares against the Kronecker delta.  Evaluated through the weight /
    polynomial tables, so corrupted weights are detected.
    """
    datasets = tuple(datasets)
    if not datasets:
        raise ValueError("need at least one SpectralData")
    size = math.prod(s.n_states for s in datasets)
    check_oracle_cap(size, oracle_cap)
    gram = np.ones((1, 1))
    for s in datasets:
        g = (s.poly_table * s.weights) @ s.poly_table.T
        gram = np.kron(gram, g)
    return float(np.max(np.abs(gram - np.eye(size))))
