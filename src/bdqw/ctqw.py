"""Continuous-time quantum walks driven by symmetrized birth-death kernels.

The walk on one dimension evolves under the unitary U(t) = exp(i t J) built
from that dimension's eigensystem; transition probabilities are squared
moduli of its matrix elements.  On a d-dimensional product space the
generator is the selection-probability-weighted Kronecker sum of the
per-dimension J's, and its transition probability factorizes exactly into
one-dimensional transition probabilities evaluated at rescaled times q_l * t.

Two evaluation routes are provided, both given the per-dimension spectra
(solved once, e.g. by spectral.chain_spectra):

* the factorized fast path, a product of d small one-dimensional
  calculations that never touches the product space; dimensions that share
  a spectrum and a start (and a target) differ only in their time q_l * t,
  so each such group is one kernel call over its rescaled times; and
* a dense oracle that evaluates the amplitude as one sum over the product
  spectrum: the phase is taken at every Kronecker-sum eigenvalue, never split
  per dimension, and the tensor-product eigenvectors are applied one
  dimension at a time without forming their matrix.  The oracle is capped,
  since its cost grows with the product-space size.

Every route is a slice of one kernel, the elements of W diag(e^{i t lambda}) W^T
with W the Kronecker product of per-dimension bases V_l: one factor for the
factorized path, all of them for the oracle.

The oracle reads the eigenpairs the fast path reads, so it cannot see a wrong
spectrum.  The independent check of Theorem 1, which the CLI's verify runs,
applies both sides of e^{itH} = (x)_l e^{i q_l t J_l} to vectors of the
product space: _chebyshev_propagate sums Chebyshev terms of H built from the
kernels J_l alone, reading no eigenpair, and _factorized_propagate applies
each dimension's propagator along its axis.

The phase t * lambda carries an absolute error of about |t| eps, and the
probabilities inherit it: from position 0 of the Ehrenfest urn (N = 3, 7,
96) they stay within 0.57 |t| eps of Binomial(N, sin^2(t/N)) for t >= 100,
and within a few eps at t = 1.

Everything here is a pure function of immutable inputs; per-dimension
propagators and per-pair evaluations can be computed concurrently.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from collections.abc import Iterator
from functools import reduce

import numpy as np

from .chain import DEFAULT_ORACLE_CAP, MultiChainSpec, check_oracle_cap
from .errors import NumericalError
from .spectral import SpectralData, SymmetricTridiagonal

# Elements of one stacked (times, rows, n) phase product in a grouped kernel call: 4 MiB.
_GROUP_CHUNK = 1 << 19

# A 1-D factor at or below this is rounding noise, not a resolved probability:
# SpectralData.validate accepts orthonormality defects up to 1e-10, and at t = 0
# an exactly-zero transition comes out as such a defect squared.  On exact
# zeros (Ehrenfest urns of up to 1100 at t = 0 and at the mirror time pi N / 2,
# 3000 random chains of up to 41 states at t = 0) the noise reached 3.7e-25.
_FACTOR_NOISE = 1e-20

# The Chebyshev series of e^{itH} is cut past k = |t| once two consecutive
# |J_k(t)| are below this; the terms dropped then sum to about 1e-17 |x|.
_BESSEL_TAIL = 1e-17


def _amplitudes(
    factors: tuple[np.ndarray, ...],
    values: np.ndarray,
    t: float | np.ndarray,
    rows: tuple[int | slice, ...] | None = None,
    cols: tuple[int | slice, ...] | None = None,
) -> np.ndarray | list[np.ndarray]:
    """Real and imaginary parts of the [rows, cols] block of W diag(e^{i t lambda}) W^T.

    The one amplitude kernel behind every route.  W = V_1 (x) ... (x) V_d is
    the Kronecker product of the per-dimension bases ``factors``, and
    ``values`` holds the eigenvalues of its columns, one axis per factor.
    ``rows`` and ``cols`` give one index per factor (all of each by default);
    an integer drops that axis.  The two parts come first; in each, the kept
    row axes come before the kept column axes, in factor order, so a C-order
    reshape flattens them as multi-indices.

    W is never formed.  The phase array cos(t lambda), with sin(t lambda)
    stacked on a leading axis, is contracted one spectral index m_l at a
    time: step l computes sum_m V_l[rows_l, m] X[..., m, ...] V_l[cols_l, m]
    by real matmuls with the column factor.  All pairs cost size^2 * sum n_l
    multiply-adds, against size^3 per matmul with W.  Real matmuls rather
    than a complex-phase product, which costs a complex matmul.

    Every step keeps its row axis, an integer row k_l as the one-row slice
    k_l:k_l+1 whose axis is squeezed on return, and makes one matmul per row
    index k_l: X, read in place as (lead, rest, m_l) with lead the axes kept
    so far and rest the axes after m_l, times V_l[cols_l]^T scaled by
    V_l[k_l], written straight into the slice out[:, k_l] of the output
    viewed as (lead, n_l, rest, cols).  The step holds its input and its
    output and nothing else: for the all-pairs routes the (2, size, size)
    result plus, in the last step, an input of 1/n_d of it; for one element,
    the phase array plus an output of 1/n_1 of it.  Each term is
    x * (V_l[k_l, m] V_l[c, m]) rather than (x * V_l[k_l, m]) * V_l[c, m], so
    the sums round differently from scaling X (within 2 eps on every chain
    measured), and the k_l blocks are no longer what one gemm over all k_l
    would sum.

    A single factor is one step that scales its input, (V[rows] cos) @
    V[cols]^T and the same with sin, kept as two matmuls: stacking them
    would change the BLAS call (and so the bits) of every one-dimensional
    route, whose many tiny calls also pay for any bookkeeping.  There ``t``
    may also be a 1-D array of times, which puts a leading time axis on each
    part.  With a row axis kept (a slice in ``rows``), numpy's stacked
    matmul then makes, per time, the BLAS call that scalar ``t`` makes, so
    each time's block is bit-identical to its own call; an integer row would
    turn the per-time dot products into one gemv, whose sums differ in the
    last bits.
    """
    full = (slice(None),) * len(factors)
    rows, cols = rows or full, cols or full
    lam_t = np.multiply.outer(t, values)
    if len(factors) == 1:
        left, right = factors[0][rows[0]], factors[0][cols[0]].T
        cos, sin = np.cos(lam_t), np.sin(lam_t)
        if left.ndim == 2:  # the row axis, after the time axis if any
            cos, sin = cos[..., None, :], sin[..., None, :]
        return [(left * cos) @ right, (left * sin) @ right]
    x = np.stack((np.cos(lam_t), np.sin(lam_t)))
    for l, (v, r, c) in enumerate(zip(factors, rows, cols)):
        left, right = np.atleast_2d(v[r]), v[c].T  # an integer row: an axis of length one
        lead, m = x.shape[: 1 + l], x.shape[1 + l]  # the parts' axis and the row axes so far
        src = x.reshape(math.prod(lead), m, -1).swapaxes(1, 2)  # (lead, rest, m), in place
        x = np.empty(lead + left.shape[:1] + x.shape[2 + l :] + right.shape[1:])
        dst = x.reshape(len(src), len(left), src.shape[1], -1)  # (lead, n_l, rest, cols)
        for k, row in enumerate(left):
            np.matmul(src, (v[c] * row).T.reshape(m, -1), out=dst[:, k])
    return x.squeeze(tuple(1 + l for l, r in enumerate(rows) if not isinstance(r, slice)))


def _probabilities(parts: np.ndarray) -> np.ndarray:
    """Squared moduli of the elements whose real and imaginary parts the kernel gave."""
    re, im = parts
    return re * re + im * im  # not **2: on 0-d parts that is pow, which can miss by an ulp


def propagator_parts(spectrum: SpectralData, t: float) -> np.ndarray:
    """Real and imaginary parts of the 1-D unitary exp(i t J), one contiguous (2, n, n) array."""
    return np.asarray(_amplitudes((spectrum.eigenvectors,), spectrum.eigenvalues, t))


def _check_position(n_states: int, pos: int, name: str) -> None:
    if not 0 <= pos < n_states:
        raise ValueError(f"position {name}={pos} out of range 0..{n_states - 1}")


def transition_prob_1d(spectrum: SpectralData, t: float, j: int, k: int) -> float:
    """Probability of moving from position j to k in elapsed time t."""
    _check_position(spectrum.n_states, j, "j")
    _check_position(spectrum.n_states, k, "k")
    parts = _amplitudes((spectrum.eigenvectors,), spectrum.eigenvalues, t, (k,), (j,))
    return float(_probabilities(parts))


def transition_matrix_1d(spectrum: SpectralData, t: float) -> np.ndarray:
    """All-pairs transition probabilities; entry [k, j] is j -> k."""
    return _probabilities(_amplitudes((spectrum.eigenvectors,), spectrum.eigenvalues, t))


def transition_row(spectrum: SpectralData, t: float, j: int) -> np.ndarray:
    """Position distribution after elapsed time t, started from position j."""
    _check_position(spectrum.n_states, j, "j")
    parts = _amplitudes((spectrum.eigenvectors,), spectrum.eigenvalues, t, None, (j,))
    return _probabilities(parts)


def _check_multi(
    spec: MultiChainSpec,
    spectra: tuple[SpectralData, ...],
    indices: dict[str, tuple[int, ...]],
) -> None:
    """Check the spectra and multi-indices against the chain.

    Each distinct (spectrum object, size) pair is checked once, the positions
    in C; an out-of-range position is then found for the message.
    """
    if len(spectra) != spec.n_dims:
        raise ValueError(f"{len(spectra)} spectra supplied for {spec.n_dims} dimensions")
    shape = spec.shape
    pairs = dict(zip(zip(map(id, spectra), shape), spectra))
    if any(s.n_states != n for (_, n), s in pairs.items()):
        raise ValueError("spectrum size does not match its dimension")
    for name, multi in indices.items():
        if len(multi) != spec.n_dims:
            raise ValueError(f"multi-index {name} has length {len(multi)}, expected {spec.n_dims}")
        if min(multi) < 0 or not all(map(operator.lt, multi, shape)):
            for pos, n in zip(multi, shape):
                _check_position(n, pos, name)


def transition_prob_factorized(
    spec: MultiChainSpec,
    spectra: tuple[SpectralData, ...],
    t: float,
    j: tuple[int, ...],
    k: tuple[int, ...],
) -> float:
    """Multi-dimensional transition probability as a product of 1-D factors.

    Each dimension l contributes its one-dimensional transition probability
    at the rescaled elapsed time q_l * t; the factors are multiplied in
    dimension order.  Never touches the product space, so it scales to
    dimensions where the dense route is infeasible.

    Raises NumericalError, giving log10 of the product summed over the
    factors, when their product rounds to 0.0 although every factor is above
    the rounding noise _FACTOR_NOISE; with a factor in that noise the product
    is 0 within rounding, and is returned as computed.
    """
    _check_multi(spec, spectra, {"j": tuple(j), "k": tuple(k)})
    factors = np.empty(spec.n_dims)
    for _, members, probs in _grouped_factors(spec, spectra, (t,), j, k):
        factors[members] = probs[:, 0]
    prob = math.prod(factors.tolist())
    if prob == 0.0 and factors.min() > _FACTOR_NOISE:
        log10 = math.fsum(np.log10(factors).tolist())
        raise NumericalError(
            f"transition probability underflows: the product of {spec.n_dims} positive "
            f"factors is 10^{log10:.1f}, below the smallest double"
        )
    return prob


def position_distribution(
    spec: MultiChainSpec, spectra: tuple[SpectralData, ...], t: float, j: tuple[int, ...]
) -> tuple[np.ndarray, ...]:
    """Marginal position laws at elapsed time t from initial multi-index j.

    Entry l is dimension l's distribution at the rescaled time q_l * t; the
    marginals are independent, so their outer product is the joint law.
    """
    laws = _marginal_laws(spec, spectra, (t,), j)[0]
    return tuple(np.split(laws, np.cumsum(spec.shape)[:-1]))


def _marginal_laws(
    spec: MultiChainSpec,
    spectra: tuple[SpectralData, ...],
    times: tuple[float, ...],
    j: tuple[int, ...],
) -> np.ndarray:
    """position_distribution at each of ``times``, one row of sum n_l values per time.

    Row i holds every dimension's law at times[i], dimension after
    dimension, as one array rather than one view per dimension.
    """
    _check_multi(spec, spectra, {"j": tuple(j)})
    starts = np.cumsum((0,) + spec.shape[:-1])  # where each dimension's law begins in a row
    out = np.empty((len(times), sum(spec.shape)))
    for i, members, laws in _grouped_factors(spec, spectra, times, j):
        out[i, starts[members][:, None] + np.arange(laws.shape[1])] = laws
    return out


def _grouped_factors(
    spec: MultiChainSpec,
    spectra: tuple[SpectralData, ...],
    times: tuple[float, ...],
    j: tuple[int, ...],
    k: tuple[int, ...] | None = None,
) -> Iterator[tuple[int, list[int], np.ndarray]]:
    """The 1-D probabilities from j_l at the rescaled times q_l * t, by groups of dimensions.

    Dimensions with the same spectrum object, start j_l and target k_l
    differ only in their time, so each such group is one kernel call per
    time t in ``times`` and per chunk of its rescaled times.  Yields the
    index of t, the chunk's dimensions and, row by row, their position laws
    (transition_row) or, with ``k``, their one-element probabilities of
    reaching k_l; each row is bit-identical to its own kernel call.  A
    chunk's stacked (times, rows, n) phase products hold at most
    _GROUP_CHUNK elements.
    """
    groups: dict[tuple, list[int]] = defaultdict(list)
    targets = (None,) * len(j) if k is None else k
    for l, key in enumerate(zip(map(id, spectra), j, targets)):
        groups[key].append(l)
    select_prob = np.array(spec.select_prob)
    for i, t in enumerate(times):
        for (_, jl, kl), members in groups.items():
            s = spectra[members[0]]
            # a one-row slice keeps a row axis, so each time is one dot as in transition_prob_1d
            rows = None if kl is None else (slice(kl, kl + 1),)
            step = max(1, _GROUP_CHUNK // (s.n_states * (s.n_states if kl is None else 1)))
            scaled = select_prob[members] * t
            for start in range(0, len(members), step):
                chunk = slice(start, start + step)
                parts = _amplitudes((s.eigenvectors,), s.eigenvalues, scaled[chunk], rows, (jl,))
                yield i, members[chunk], _probabilities(parts)


def _bessel_coefficients(t: float) -> np.ndarray:
    """J_k(t) for k = 0, 1, ..., K - 1: the Chebyshev series of e^{itx} that is kept.

    Miller's backward recurrence J_{k-1} = (2k / |t|) J_k - J_{k+1}, started
    from 0 and 1e-300 at k = |t| + 25 (|t| / 2)^{1/3} + 30, where J_k(t) is
    below 1e-35 (past k = |t| it falls as Ai(s) at k = |t| + s (|t| / 2)^{1/3})
    and above 1e-562 (at |t| = 2e-17 and k = 31, the smallest), so the values
    stay finite; then normalized by J_0 + 2 sum_k J_{2k} = 1, and
    J_k(-t) = (-1)^k J_k(t).  K is the first k > |t| with |J_k| and |J_{k+1}|
    below _BESSEL_TAIL, so about |t| terms.  Below |t| = 2 _BESSEL_TAIL,
    J_1 ~ t / 2 is in the tail already and J_0 rounds to 1.
    """
    a = abs(t)
    if a < 2 * _BESSEL_TAIL:
        return np.ones(1)
    values, above, here = [], 0.0, 1e-300
    for k in range(math.ceil(a + 25.0 * (a / 2.0) ** (1.0 / 3.0)) + 30, 0, -1):
        values.append(here)
        above, here = here, 2.0 * k / a * here - above
    values.append(here)
    j = np.array(values[::-1])
    j /= j[0] + 2.0 * j[2::2].sum()
    small = np.abs(j) < _BESSEL_TAIL
    first = math.floor(a) + 1
    j = j[: first + int(np.argmax(small[first:-1] & small[first + 1 :]))]
    if t < 0:
        j[1::2] *= -1.0
    return j


def _chebyshev_propagate(
    spec: MultiChainSpec, kernels: tuple[SymmetricTridiagonal, ...], x: np.ndarray, t: float
) -> np.ndarray:
    """e^{itH} x for H = sum_l q_l J_l, with J_l = ``kernels[l]`` acting on axis l of x's last d.

    x is complex, one product-space vector of ``spec.shape`` per leading index.
    No eigenpair is read.  H's spectrum lies in [-1, 1] (each J_l is similar to
    a stochastic kernel and the q_l sum to 1), so e^{itH} x is the Chebyshev
    series J_0(t) x + 2 sum_{k>=1} i^k J_k(t) T_k(H) x (Tal-Ezer & Kosloff,
    J. Chem. Phys. 81, 3967, 1984), cut where _bessel_coefficients cuts it.

    T_{k+1}(H) x = 2 H T_k(H) x - T_{k-1}(H) x is one pass over the flattened
    vectors for H's diagonal and two per axis: J_l couples flat indices s_l
    apart, s_l the stride of axis l, with the weight 2 q_l J_l[k, k+1] at each
    flat index whose axis-l index k is not the last and 0 where it is, so
    every pass is one long contiguous loop.  H is real, so the recurrence runs
    on x's real and imaginary parts, stacked as rows, in real arithmetic; i^k
    only sends term k to the even or odd sum, with the sign (-1)^{k // 2}.  A
    term costs about 2d + 2 multiply-adds per entry of x's parts, and
    the arrays held are a few of x's size.
    """
    coeffs = _bessel_coefficients(t)
    coeffs[1:] *= 2.0
    coeffs[2::4] *= -1.0
    coeffs[3::4] *= -1.0  # i^k is (-1)^{k // 2}, times i for odd k
    size = stride = spec.product_size
    steps = []  # s_l, and the weights of the flat indices up to size - s_l
    for n, q, kernel in zip(spec.shape, spec.select_prob, kernels):
        stride //= n
        weights = np.repeat(np.append(2.0 * q * kernel.offdiag, 0.0), stride)
        steps.append((stride, np.tile(weights, size // (n * stride))[: size - stride]))
    diag = reduce(np.add.outer, [2.0 * q * k.diag for q, k in zip(spec.select_prob, kernels)])
    diag = diag.ravel()

    def twice_h_minus(cur: np.ndarray, out: np.ndarray) -> None:
        """out = 2 H cur - out, in place."""
        np.subtract(diag * cur, out, out=out)
        for stride, w in steps:
            out[:, :-stride] += w * cur[:, stride:]
            out[:, stride:] += w * cur[:, :-stride]

    vectors = x.reshape(-1, size)
    prev, cur = np.zeros((2 * len(vectors), size)), np.concatenate((vectors.real, vectors.imag))
    sums = np.zeros((2,) + cur.shape)  # the even and the odd terms
    sums[0] = coeffs[0] * cur
    for k in range(1, len(coeffs)):
        twice_h_minus(cur, prev)
        if k == 1:
            prev *= 0.5  # T_1 = H T_0, from T_{-1} = 0
        prev, cur = cur, prev
        sums[k & 1] += coeffs[k] * cur
    (even_re, even_im), (odd_re, odd_im) = sums.reshape(2, 2, -1, size)
    return ((even_re - odd_im) + 1j * (even_im + odd_re)).reshape(x.shape)


def _factorized_propagate(
    spec: MultiChainSpec, spectra: tuple[SpectralData, ...], x: np.ndarray, t: float
) -> np.ndarray:
    """(U_1(q_1 t) (x) ... (x) U_d(q_d t)) x, the factorized side of Theorem 1 on whole vectors.

    x is as for _chebyshev_propagate.  Each dimension's propagator_parts is
    contracted along its axis of x: size * sum n_l complex multiply-adds per
    vector, and no product-space operator is formed.
    """
    for l, (q, s) in enumerate(zip(spec.select_prob, spectra)):
        re, im = propagator_parts(s, q * t)
        axis = x.ndim - spec.n_dims + l
        x = np.moveaxis(np.tensordot(re + 1j * im, x, axes=(1, axis)), 0, axis)
    return x


def _kronecker_sum(spec: MultiChainSpec, spectra: tuple[SpectralData, ...]) -> np.ndarray:
    """The product generator's eigenvalues sum_l q_l lambda_l, one axis per dimension."""
    return reduce(np.add.outer, [q * s.eigenvalues for q, s in zip(spec.select_prob, spectra)])


def _dense_amplitudes(
    spec: MultiChainSpec,
    spectra: tuple[SpectralData, ...],
    t: float,
    oracle_cap: int,
    j: tuple[int, ...] | None = None,
    k: tuple[int, ...] | None = None,
) -> np.ndarray:
    """The kernel over the product basis: rows k, columns j, all of each by default.

    Each part is flattened over the product space, so all pairs come as one
    contiguous (2, size, size) array.  The phase is taken over the full
    q-weighted Kronecker sum of the eigenvalues, one entry per product
    eigenvector, and never split per dimension: that split is Theorem 1, the
    claim this oracle checks.  The spectra, the indices and the oracle cap
    are checked first.
    """
    indices = {name: tuple(m) for name, m in (("j", j), ("k", k)) if m is not None}
    _check_multi(spec, spectra, indices)
    check_oracle_cap(spec.product_size, oracle_cap)
    values = _kronecker_sum(spec, spectra)
    factors = tuple(s.eigenvectors for s in spectra)
    parts = _amplitudes(factors, values, t, indices.get("k"), indices.get("j"))
    return np.reshape(parts, (2,) + (spec.product_size,) * (2 - len(indices)))


def dense_propagator_parts(
    spec: MultiChainSpec,
    spectra: tuple[SpectralData, ...],
    t: float,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    """Real and imaginary parts of the product-space unitary, one (2, size, size) array."""
    return _dense_amplitudes(spec, spectra, t, oracle_cap)


def transition_prob_dense(
    spec: MultiChainSpec,
    spectra: tuple[SpectralData, ...],
    t: float,
    j: tuple[int, ...],
    k: tuple[int, ...],
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> float:
    """Transition probability evaluated on the full product space.

    Single sum over the product spectrum, no factorization, from the same
    eigenpairs as the fast path.
    """
    return float(_probabilities(_dense_amplitudes(spec, spectra, t, oracle_cap, j=j, k=k)))


def dense_position_distribution(
    spec: MultiChainSpec,
    spectra: tuple[SpectralData, ...],
    t: float,
    j: tuple[int, ...],
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    """Joint position law from the dense oracle, flattened in C order over the product space."""
    return _probabilities(_dense_amplitudes(spec, spectra, t, oracle_cap, j=j))


def ehrenfest_sum_law(d: int, t: float) -> np.ndarray:
    """Exact law of the summed positions of d single-ball urn walkers.

    Binomial over {0..d} with success probability p = sin^2(t/d).  The
    multiplicative coefficient recursion runs in log space and the law is
    normalized after subtracting the largest log, so for large d neither
    C(d, k) overflows nor p^k underflows into a NaN; p of exactly 0 or 1
    gives the exact point mass.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    p = math.sin(t / d) ** 2
    k = np.arange(d + 1)
    if p in (0.0, 1.0):  # log(0) below; the law is a point mass
        return (k == round(p * d)).astype(float)
    log_coeff = np.concatenate(([0.0], np.cumsum(np.log(d - k[:-1]) - np.log(k[1:]))))
    log_mass = log_coeff + k * math.log(p) + (d - k) * math.log1p(-p)
    mass = np.exp(log_mass - log_mass.max())
    return mass / mass.sum()
