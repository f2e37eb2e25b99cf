"""Symmetrization and spectral decomposition of per-dimension kernels.

A birth-death kernel P with positive steps both ways is similar to the
symmetric tridiagonal J = D^{1/2} P D^{-1/2}, D its stationary law; J has
P's zero diagonal and off-diagonal sqrt(up[k] down[k]), read off the
dimension's step arrays (chain.step_probabilities), so it needs no D and no
dense P.  A dimension's spectral data is J's orthonormal eigensystem and
nothing else.
The Golub-Welsch objects (1969) are read off the eigenvectors V: the
discrete weight function is V[0]^2, which sums to one, and the table of
orthogonal-polynomial values is V / V[0], each column rescaled so its first
entry equals one.

J's diagonal is zero (a dimension is conditioned on moving), so S J S = -J
with S = diag((-1)^k): eigenvalues come in pairs +-lambda with
v_{-lambda} = S v_lambda, and they are +-sigma(B), B the half-size
bidiagonal of J's off-diagonal (Golub & Kahan, 1965).  The singular values
come from LAPACK (np.linalg.svd), the eigenvectors of the lambda >= 0 half
from twisted factorizations at those values, which keep tiny first
components to high relative accuracy, or from the SVD of B when a gap is
tight, and each lambda < 0 column is S times its partner.  Eigenvalues are
ascending and every eigenvector has a positive first component, making the
output deterministic.  Per-dimension decompositions are independent pure
functions and safe to run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import DimensionSpec, MultiChainSpec, step_probabilities
from .errors import NumericalError

# Bound on the orthonormality and weight-sum defects SpectralData.validate accepts.
_VALIDATE_TOLERANCE = 1e-10
# A spectrum whose smallest gap is below this takes the eigenvectors of its
# lambda >= 0 half from the SVD of B instead of twisted factorizations, whose
# orthonormality defect grows as eps / gap: measured on the double wells of 2
# to 40 states and 2000 random chains of up to 40, it reached 1.0e-15 / gap,
# and |U|^2 on the double well of size 9 (gap 1.1e-4) read 10 600 t eps from
# expm against 10 on the SVD route.  The twisted vectors keep every entry to
# high relative accuracy; so does the SVD route with its rebuilt tails, so the
# urns of 2000 balls or more, whose gap 2 / N rounds below this, lose nothing.
_TWIST_MIN_GAP = 1e-3
# The twist search and SpectralData.validate read their n x n products in row
# blocks: at most _BLOCKS of them, each of at least _MIN_BLOCK rows, so a
# small n keeps one block.
_BLOCKS = 8
_MIN_BLOCK = 64


@dataclass(frozen=True)
class SymmetricTridiagonal:
    """Unreduced symmetric tridiagonal matrix with a zero diagonal, held by its off-diagonal.

    The off-diagonal entries are finite and > 0.  The zero diagonal is what
    S J S = -J, S = diag((-1)^k), and so the mirrored spectra rest on.
    """

    offdiag: np.ndarray

    def __post_init__(self) -> None:
        off = np.asarray(self.offdiag, dtype=float)
        object.__setattr__(self, "offdiag", off)
        if off.ndim != 1:
            raise ValueError("offdiag must be a one-dimensional array")
        if not np.isfinite(off).all():
            raise ValueError("offdiag entries must be finite")
        if off.size and float(off.min()) <= 0.0:
            raise ValueError("off-diagonal entries must be strictly positive")

    @property
    def n_states(self) -> int:
        return self.offdiag.size + 1

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """J @ v in v's shape, for a vector or a matrix v: O(n) per column from the off-diagonal."""
        off = self.offdiag[(slice(None),) + (None,) * (np.ndim(v) - 1)]  # along v's first axis
        out = np.zeros(np.shape(v), np.result_type(v, off))
        out[:-1] = off * v[1:]
        out[1:] += off * v[:-1]
        return out

    def to_dense(self) -> np.ndarray:
        return np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Full eigensystem of one dimension's symmetrized kernel.

    ``eigenvalues`` are strictly ascending; ``eigenvectors`` holds orthonormal
    columns with positive first components.  Spectra compare and hash by
    identity, as their arrays cannot.
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


def symmetrize(spec: DimensionSpec) -> SymmetricTridiagonal:
    """J = D^{1/2} P D^{-1/2} of a dimension's kernel P: off-diagonal sqrt(up[k] down[k]).

    Raises ValueError for a step product that underflows to 0.
    """
    steps = np.multiply(*step_probabilities(spec))  # up[k] down[k]
    if not float(steps.min()) > 0.0:
        raise ValueError("kernel step products up[k] * down[k] must be strictly positive")
    return SymmetricTridiagonal(offdiag=np.sqrt(steps))


def _pivots(offdiag: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Pivots D[k] of J - lambda I = L D L^T from the top, column i for lambda = values[i].

    J's diagonal is zero, so D[0] = -lambda and D[k] = -lambda - b[k-1]^2 /
    D[k-1].  A pivot smaller than pivmin = tiny * max(1, max b^2) in
    magnitude is replaced by -pivmin, as LAPACK's dlar1v does, so every
    division stays finite.
    """
    n, shift = offdiag.size + 1, -values
    squares = offdiag * offdiag
    pivmin = float(np.finfo(float).tiny) * max(1.0, float(squares.max(initial=0.0)))
    piv = np.empty((n, values.size))
    piv[0] = shift
    for k in range(n):
        row = piv[k]
        np.copyto(row, -pivmin, where=np.abs(row) < pivmin)
        if k + 1 < n:
            np.subtract(shift, squares[k] / row, out=piv[k + 1])
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


def _twisted_eigenvectors(offdiag: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Unit eigenvector columns of a zero-diagonal tridiagonal J for given eigenvalues.

    For every eigenvalue at once: forward pivots D+ of J - lambda I from the
    top and backward pivots D- from the bottom (see _pivots, whose guard
    keeps an exactly singular leading or trailing block finite); the twist
    r = argmin_k |gamma[k]|, where gamma[k] = D+[k] + D-[k] + lambda is
    1 / (J - lambda I)^{-1}[k, k]; then z[r] = 1, z[k] = -b[k] / D+[k] *
    z[k+1] above r and z[k] = -b[k-1] / D-[k] * z[k-1] below it (Parlett &
    Dhillon, LAA 267, 1997; Dhillon & Parlett, LAA 387, 2004).  Products of
    ratios keep small entries, the first components among them, to high
    relative accuracy.  The columns are normalized, with signs as they fall.

    Two n x m arrays are held, m the number of values, the pivot tables:
    |gamma| is read in row blocks (_row_blocks), the first minimum of each
    column kept, and both ratio products are formed in place over the tables.
    """
    n, m = offdiag.size + 1, values.size
    down = _pivots(offdiag, values)
    up = _pivots(offdiag[::-1], values)[::-1]
    firsts, lows = [], []  # each block's argmin of |gamma|, as a row of J, and its minimum
    for rows in _row_blocks(n):
        # column-major: argmin copies any array whose axis 0 is not contiguous
        gamma = np.add(down[rows], up[rows], out=np.empty((rows.stop - rows.start, m), order="F"))
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


def _rebuild_tails(offdiag: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> None:
    """Rebuild, in place, the leading entries an SVD leaves without relative accuracy.

    An SVD's vectors are accurate to about eps / gap in absolute terms, so a
    small entry carries little relative information and one below eps times
    its column's largest may come out as exactly 0.  A column's entries above
    its first one larger than the anchor times its largest, r, become x[r]
    times the ratio products at its eigenvalue (_ratio_products with twist
    r): J x = lambda x read from the top.  The anchor is 1e-2 first, which
    keeps x[r] to about 100 eps / gap relative; a column whose rebuild moves
    an entry by more than 64 eps times its largest, as where the leading rows
    hold a block with an eigenvalue near lambda, tries the anchor eps, and
    then keeps its SVD entries.  No entry moves by more than that, so the
    columns stay orthonormal.
    """
    done = np.zeros(values.size, dtype=bool)  # the columns an earlier anchor rebuilt
    for anchor in (1e-2, np.finfo(float).eps):
        top = np.abs(vectors).max(axis=0)
        twist = np.argmax(np.abs(vectors) > anchor * top, axis=0)
        rebuilt = _ratio_products(offdiag, _pivots(offdiag, values), twist)
        rebuilt *= vectors[twist, np.arange(values.size)]
        tail = np.arange(offdiag.size + 1)[:, None] < twist
        moved = rebuilt - vectors
        near = np.abs(moved, out=moved) <= 64 * np.finfo(float).eps * top
        close = ~done & np.all(~tail | near, axis=0)
        np.copyto(vectors, rebuilt, where=tail & close)
        done |= close
        del rebuilt, moved  # before the next anchor's pivot table is made


def _takes_svd_route(values: np.ndarray) -> bool:
    """Whether eigendecompose takes the vectors of the ascending ``values`` from the SVD of B."""
    return float(np.diff(values).min(initial=np.inf)) < _TWIST_MIN_GAP


def eigendecompose(tri: SymmetricTridiagonal) -> SpectralData:
    """Eigensystem of a zero-diagonal symmetric tridiagonal matrix with the package's conventions.

    J's diagonal is zero, so S J S = -J with S = diag((-1)^k), and with the
    states ordered evens first J is [[0, B], [B^T, 0]], B the ceil(n/2) x
    floor(n/2) lower bidiagonal with diagonal b[0::2] and subdiagonal
    b[1::2]: the eigenvalues are +-sigma(B), and an exact 0 when n is
    odd.  The singular values are
    those of B^T, with a zero row for odd n: an upper bidiagonal, which
    LAPACK's reduction to bidiagonal form leaves as it is, so they keep high
    relative accuracy (Demmel & Kahan, 1990), where the dense lower B reads
    a singular value of 7e-151 as 0.  A value that ties its predecessor in
    the ascending lambda >= 0 half (the 0 included, so the half is positive
    for even n) is raised to the next double above it.

    Only the lambda >= 0 half is solved, by twisted factorizations of
    J - lambda I (_twisted_eigenvectors).  Their error grows as eps / gap,
    so when the smallest gap is below _TWIST_MIN_GAP the full SVD of the
    lower B, B = U Sigma W^T, supplies the half instead, (u_k, w_k) / sqrt(2)
    interleaved for sigma_k and (u, 0) for the 0 of odd n, with each
    column's small leading entries rebuilt (_rebuild_tails).  Each column is
    flipped so its first component is positive, and each lambda < 0 column
    is S times its partner, so values[i] == -values[n - 1 - i] and
    V[:, i] == S V[:, n - 1 - i] bit for bit.  The first components of a
    pair split by less than eps are fixed by J's last bits, so only their
    absolute accuracy, about eps, means anything.

    Raises NumericalError if a first component vanishes or the result
    violates the SpectralData invariants.
    """
    n, off = tri.n_states, tri.offdiag
    paired = n // 2
    # B^T, with a zero row for odd n, a square upper bidiagonal
    upper = np.diag(np.append(off[0::2], [0.0] * (n % 2))) + np.diag(off[1::2], 1)
    # the lambda >= 0 half, ascending; on non-negative doubles the bit patterns
    # ascend with the values, so a running maximum of bits - k raises each tie
    half = np.concatenate(([0.0], np.linalg.svd(upper, compute_uv=False)[:paired][::-1]))
    k = np.arange(half.size)
    half = (np.maximum.accumulate(half.view(np.int64) - k) + k).view(float)[1 - n % 2 :]
    values = np.concatenate((-half[::-1][:paired], half))
    if _takes_svd_route(values):
        # the dense lower B: its Householder reduction leaves entries that the
        # upper form's divide and conquer would deflate to exactly 0
        left, _, right = np.linalg.svd(upper.T[:, :paired])  # B = left diag(sigma) right
        vectors = np.zeros((n, half.size))
        vectors[0::2] = left[:, ::-1]
        vectors[1::2, n % 2 :] = right[::-1].T
        del left, right
        vectors[:, n % 2 :] *= np.sqrt(0.5)
        _rebuild_tails(off, half[n % 2 :], vectors[:, n % 2 :])
    else:
        vectors = _twisted_eigenvectors(off, half)

    if np.any(vectors[0] == 0.0):
        raise NumericalError("eigenvector with vanishing first component")
    vectors *= np.sign(vectors[0])  # np.sign makes a copy of the row before it is flipped
    full = np.empty((n, n))
    full[:, paired:] = vectors
    full[:, :paired] = vectors[:, ::-1][:, :paired]
    del vectors
    full[1::2, :paired] *= -1.0
    data = SpectralData(eigenvalues=values, eigenvectors=full)
    data.validate()
    return data


def dimension_spectrum(spec: DimensionSpec) -> SpectralData:
    """Symmetrization and eigensystem for one dimension."""
    return eigendecompose(symmetrize(spec))


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
