"""Continuous-time quantum walks driven by symmetrized birth-death kernels.

The walk on one dimension evolves under the unitary U(t) = exp(i t J) built
from that dimension's eigensystem; transition probabilities are squared
moduli of its matrix elements.  On a d-dimensional product space the
generator H is the selection-probability-weighted Kronecker sum of the
per-dimension J's, and its transition probability factorizes exactly into
one-dimensional transition probabilities evaluated at rescaled times q_l * t
(Theorem 1: e^{itH} = (x)_l e^{i q_l t J_l}).

Two evaluation routes are provided:

* the factorized fast path, given the per-dimension spectra (solved once,
  e.g. by spectral.chain_spectra): a product of d small one-dimensional
  calculations that never touches the product space.  Every one of them is
  a slice of one kernel, the elements of V diag(e^{i t lambda}) V^T for one
  dimension's basis V; equal dimensions (one number of the chain's index
  MultiChainSpec.distinct) that share a start (and a target) differ only in
  their time q_l * t, so each such group is one kernel call over its
  rescaled times; and
* one product-space oracle that reads no eigenpair: _chebyshev_propagate
  sums Chebyshev terms of H built from the kernels J_l alone, each built
  once per distinct dimension, so it checks Theorem 1 independently of the
  spectra.  dense_position_distribution is its column |e^{itH} e_j|^2, and
  the CLI's verify applies it to real probe vectors against
  _factorized_propagate, which applies each dimension's V^T, phases and V
  along its axis.  It costs about |t| terms over the product
  space, so the oracle cap bounds both the product size and |t|.

The phase t * lambda carries an absolute error of about |t| eps, and the
probabilities inherit it: from position 0 of the Ehrenfest urn (N = 3, 7,
96) they stay within 0.57 |t| eps of Binomial(N, sin^2(t/N)) for t >= 100,
and within a few eps at t = 1.  So every kernel and propagator route raises
ValueError naming t for a time whose phase error |t| eps, at the rescaled
time q_l * t of each factor, is beyond _PHASE_BUDGET, as for a NaN or
infinite time.

Everything here is a pure function of immutable inputs; per-dimension
propagators and per-pair evaluations can be computed concurrently.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import defaultdict
from collections.abc import Iterator

import numpy as np

from .chain import MultiChainSpec, build_conditional_matrix
from .errors import NumericalError, SizeLimitError
from .spectral import SpectralData, symmetrize

# Elements of one stacked (times, n) array in a grouped kernel call: 4 MiB.
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
    vectors: np.ndarray,
    values: np.ndarray,
    t: float | np.ndarray,
    row: slice = slice(None),
    col: int | slice = slice(None),
) -> list[np.ndarray]:
    """Real and imaginary parts of the [row, col] block of V diag(e^{i t lambda}) V^T.

    The one amplitude kernel behind every spectral route: V = ``vectors`` is
    one dimension's orthonormal basis and ``values`` its eigenvalues.
    ``row`` is a slice of positions, so the row axis is always kept, and
    ``col`` a position or a slice of positions (all of them by default); an
    integer drops that axis.  The phases scale the column side: the parts
    are V[row] @ (V[col] cos)^T and the same with sin, so a column holds
    (times, n) arrays, not (times, rows, n).

    ``t`` may also be a 1-D array of times, which puts a leading time axis
    on each part.  Numpy's stacked matmul then makes, per time, the BLAS
    call that scalar ``t`` makes, so each time's block is bit-identical to
    its own call.

    Raises ValueError naming ``t`` for a time beyond the phase budget
    (_check_phase), a NaN or infinite one included.
    """
    _check_phase(t)
    lam_t = np.multiply.outer(t, values)[..., None]  # the column axis, after any time axis
    left, right = vectors[row], vectors[col if isinstance(col, slice) else slice(col, col + 1)].T
    parts = [left @ (right * np.cos(lam_t)), left @ (right * np.sin(lam_t))]
    return parts if isinstance(col, slice) else [part[..., 0] for part in parts]


def _probabilities(parts: np.ndarray) -> np.ndarray:
    """Squared moduli of the elements whose real and imaginary parts the kernel gave."""
    re, im = parts
    return re * re + im * im


def _check_position(n_states: int, pos: int, name: str) -> None:
    if not 0 <= pos < n_states:
        raise ValueError(f"position {name}={pos} out of range 0..{n_states - 1}")


def transition_prob_1d(spectrum: SpectralData, t: float, j: int, k: int) -> float:
    """Probability of moving from position j to k in elapsed time t."""
    _check_position(spectrum.n_states, j, "j")
    _check_position(spectrum.n_states, k, "k")
    parts = _amplitudes(spectrum.eigenvectors, spectrum.eigenvalues, t, slice(k, k + 1), j)
    return float(_probabilities(parts)[0])


def transition_matrix_1d(spectrum: SpectralData, t: float) -> np.ndarray:
    """All-pairs transition probabilities; entry [k, j] is j -> k."""
    return _probabilities(_amplitudes(spectrum.eigenvectors, spectrum.eigenvalues, t))


def transition_row(spectrum: SpectralData, t: float, j: int) -> np.ndarray:
    """Position distribution after elapsed time t, started from position j."""
    _check_position(spectrum.n_states, j, "j")
    parts = _amplitudes(spectrum.eigenvectors, spectrum.eigenvalues, t, slice(None), j)
    return _probabilities(parts)


def _check_multi(
    spec: MultiChainSpec,
    spectra: tuple[SpectralData, ...] | None,
    indices: dict[str, tuple[int, ...]],
) -> None:
    """Check the spectra (None for a route that reads none) and multi-indices against the chain.

    Each distinct (spectrum object, size) pair is checked once, the positions
    in C; an out-of-range position is then found for the message.
    """
    shape = spec.shape
    if spectra is not None:
        if len(spectra) != spec.n_dims:
            raise ValueError(f"{len(spectra)} spectra supplied for {spec.n_dims} dimensions")
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
    dimensions where the dense route is infeasible.  ``spectra[l]`` is
    ``dims[l]``'s spectrum (chain_spectra gives them), so equal dimensions
    are evaluated on the spectrum of the first of them in each group.

    Raises NumericalError, giving log10 of the product summed over the
    factors, when their product rounds to 0.0 although every factor is above
    the rounding noise _FACTOR_NOISE; with a factor in that noise the product
    is 0 within rounding, and is returned as computed.
    """
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
    ``spectra[l]`` is ``dims[l]``'s spectrum, as in transition_prob_factorized.
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

    ``spectra[l]`` is ``dims[l]``'s spectrum, so equal dimensions (one
    number of ``spec.distinct``) with the same start j_l and target k_l
    differ only in their time, and each such group is one kernel call per
    time t in ``times`` and per chunk of its rescaled times, on the
    spectrum of its first member.  The spectra and indices are checked
    (_check_multi) before the first kernel call.  Yields the
    index of t, the chunk's dimensions and, row by row, their position laws
    (transition_row) or, with ``k``, their one-element probabilities of
    reaching k_l; each row is bit-identical to its own kernel call.  A
    chunk's stacked (times, n) arrays hold at most _GROUP_CHUNK elements.
    """
    _check_multi(spec, spectra, {"j": tuple(j)} if k is None else {"j": tuple(j), "k": tuple(k)})
    groups: dict[tuple, list[int]] = defaultdict(list)
    for l, key in enumerate(zip(spec.distinct[1], j, (None,) * len(j) if k is None else k)):
        groups[key].append(l)
    select_prob = np.array(spec.select_prob)
    for i, t in enumerate(times):
        for (_, jl, kl), members in groups.items():
            s = spectra[members[0]]
            # a target is the one-row slice that transition_prob_1d takes
            rows = slice(None) if kl is None else slice(kl, kl + 1)
            step = max(1, _GROUP_CHUNK // s.n_states)
            scaled = select_prob[members] * t
            for start in range(0, len(members), step):
                chunk = slice(start, start + step)
                parts = _amplitudes(s.eigenvectors, s.eigenvalues, scaled[chunk], rows, jl)
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


def _chebyshev_propagate(spec: MultiChainSpec, rows: np.ndarray, t: float) -> np.ndarray:
    """The even and odd Chebyshev sums of e^{itH} on real ``rows``, one (2, m, size) array.

    H = sum_l q_l J_l, with J_l = symmetrize(build_conditional_matrix(dims[l]))
    acting on axis l of each of the m rows of ``rows``, read as
    product-space vectors of ``spec.shape``; each J_l is built once per
    distinct dimension (``spec.distinct``).  No eigenpair is read.  H's
    spectrum lies in [-1, 1] (each J_l is similar to a stochastic kernel
    and the q_l sum to 1), so e^{itH} x is the Chebyshev series
    J_0(t) x + 2 sum_{k>=1} i^k J_k(t) T_k(H) x (Tal-Ezer & Kosloff, J. Chem.
    Phys. 81, 3967, 1984), cut where _bessel_coefficients cuts it.  H is
    real, so for a real x the terms with even k, whose i^k is
    (-1)^{k // 2}, sum to the real part and those with odd k to the
    imaginary part: e^{itH} x = even + i odd.  The rows are real only: a
    complex-linear operator is fixed by what it does to real vectors.

    T_{k+1}(H) x = 2 H T_k(H) x - T_{k-1}(H) x is two passes over the rows
    per axis: J_l couples flat indices s_l apart, s_l the stride of axis l,
    with the weight 2 q_l J_l[k, k+1] at each flat index whose axis-l index
    k is not the last and 0 where it is, so every pass is one long
    contiguous loop.  H has no diagonal term, as every J_l from
    build_conditional_matrix has a zero diagonal.  A term costs about 2d
    multiply-adds per entry of the rows, and the arrays held are a few of
    their size.
    """
    coeffs = _bessel_coefficients(t)
    coeffs[1:] *= 2.0
    coeffs[2::4] *= -1.0
    coeffs[3::4] *= -1.0  # i^k is (-1)^{k // 2}, times i for odd k
    built = [symmetrize(build_conditional_matrix(spec.dims[l])) for l in spec.distinct[0]]
    kernels = [built[i] for i in spec.distinct[1]]
    size = stride = spec.product_size
    steps = []  # s_l, and the weights of the flat indices up to size - s_l
    for n, q, kernel in zip(spec.shape, spec.select_prob, kernels):
        stride //= n
        weights = np.repeat(np.append(2.0 * q * kernel.offdiag, 0.0), stride)
        steps.append((stride, np.tile(weights, size // (n * stride))[: size - stride]))

    def twice_h_minus(cur: np.ndarray, out: np.ndarray) -> None:
        """out = 2 H cur - out, in place."""
        np.negative(out, out=out)
        for stride, w in steps:
            out[:, :-stride] += w * cur[:, stride:]
            out[:, stride:] += w * cur[:, :-stride]

    prev, cur = np.zeros(rows.shape), rows.astype(float)  # a copy: the recurrence writes it
    sums = np.zeros((2,) + cur.shape)  # the even and the odd terms
    sums[0] = coeffs[0] * cur
    for k in range(1, len(coeffs)):
        twice_h_minus(cur, prev)
        if k == 1:
            prev *= 0.5  # T_1 = H T_0, from T_{-1} = 0
        prev, cur = cur, prev
        sums[k & 1] += coeffs[k] * cur
    return sums


def _factorized_propagate(
    spec: MultiChainSpec, spectra: tuple[SpectralData, ...], x: np.ndarray, t: float
) -> np.ndarray:
    """(U_1(q_1 t) (x) ... (x) U_d(q_d t)) x, the factorized side of Theorem 1 on whole vectors.

    x is a real product-space vector of ``spec.shape`` on its last d axes
    per leading index, and the result is complex.  Along each axis l in
    turn, V^T, the phases e^{i q_l t lambda} and V are applied to the real
    and imaginary parts, stacked on a leading axis, as real matmuls and a
    rotation, about 4 size n_l multiply-adds per vector, so neither
    U_l = V diag(e^{i q_l t lambda}) V^T, nor a complex copy of V, nor any
    product-space operator is formed.  Raises ValueError naming the
    rescaled times q_l t for one beyond the phase budget (_check_phase), a
    NaN or infinite one included.
    """
    _check_phase(np.multiply(spec.select_prob, t))
    parts = np.stack((x, np.zeros_like(x)))  # the real and imaginary parts
    for l, (q, s) in enumerate(zip(spec.select_prob, spectra)):
        axis = parts.ndim - spec.n_dims + l
        re, im = np.moveaxis(parts, axis, -1) @ s.eigenvectors
        phase = q * t * s.eigenvalues
        cos, sin = np.cos(phase), np.sin(phase)  # (re + i im) e^{i phase}, then V
        parts = np.stack((re * cos - im * sin, re * sin + im * cos)) @ s.eigenvectors.T
        parts = np.moveaxis(parts, -1, axis)
    return parts[0] + 1j * parts[1]


# A factor's phase t lambda carries an absolute error of about |t| eps, and
# SpectralData.validate bounds |lambda| by 1, so a rescaled time whose |t| eps
# is above this, verify's tolerance, gives a law that no check could trust.
_PHASE_BUDGET = 1e-10


def _check_phase(t: float | np.ndarray) -> None:
    """Raise ValueError naming ``t``, a time or an array of times, for one beyond the budget.

    The phase budget is |t| eps <= _PHASE_BUDGET.  A NaN or infinite time
    fails it, and is named as not finite.
    """
    if not np.abs(t).max() * sys.float_info.epsilon <= _PHASE_BUDGET:  # a NaN fails it
        if not np.isfinite(t).all():
            raise ValueError(f"t must be finite, got {t}")
        raise ValueError(f"t must be within the phase budget |t| eps <= {_PHASE_BUDGET}, got {t}")


# The oracle cap's default, on the product size and on |t| alike.
DEFAULT_ORACLE_CAP = 4096


def _check_oracle_work(size: int, times: tuple[float, ...], cap: int, field: str = "t") -> None:
    """Raise SizeLimitError for a product space or a time over the oracle cap ``cap``.

    The oracle's Chebyshev series takes about |t| terms over the ``size``
    states of the product space, so the cap bounds |t| as it bounds the
    size.  A time over it is named as ``field[i]``, i its index in ``times``.
    A size of 2^63 or more is named by its bit length, as "at least 2^k",
    not in decimal: past int-to-str's digit limit (4300 digits by default)
    str() raises ValueError, and below it the message could run to
    thousands of digits.  A NaN or infinite time raises ValueError.
    """
    if size > cap:
        states = size if size < 2**63 else f"at least 2^{size.bit_length() - 1}"
        raise SizeLimitError(
            f"product space has {states} states, exceeding the oracle cap of {cap}"
        )
    for idx, t in enumerate(times):
        if not math.isfinite(t):
            raise ValueError(f"{field}[{idx}]: {t} is not a finite time")
        if abs(t) > cap:
            raise SizeLimitError(
                f"{field}[{idx}]: {t} is beyond the oracle cap of {cap} on |t|: "
                "the Chebyshev series takes about |t| terms"
            )


def dense_position_distribution(
    spec: MultiChainSpec, t: float, j: tuple[int, ...], oracle_cap: int = DEFAULT_ORACLE_CAP
) -> np.ndarray:
    """Joint position law |e^{itH} e_j|^2 over the product space, flattened in C order.

    The oracle's column: e_j propagated by Chebyshev terms of H, built from
    the kernels alone, so no eigenpair is read and a wrong spectrum cannot
    hide in it.  The product size and |t| are checked against ``oracle_cap``
    first (see _check_oracle_work).
    """
    _check_multi(spec, None, {"j": tuple(j)})
    _check_oracle_work(spec.product_size, (t,), oracle_cap)
    start = np.zeros((1, spec.product_size))
    start[0, np.ravel_multi_index(tuple(j), spec.shape)] = 1.0
    return _probabilities(_chebyshev_propagate(spec, start, t)[:, 0])


def ehrenfest_sum_law(d: int, t: float) -> np.ndarray:
    """Exact law of the summed positions of d single-ball urn walkers.

    Binomial over {0..d} with success probability p = sin^2(t/d).  The
    multiplicative coefficient recursion runs in log space and the law is
    normalized after subtracting the largest log, so for large d neither
    C(d, k) overflows nor p^k underflows into a NaN; p of exactly 0 or 1
    gives the exact point mass.  A NaN or infinite t raises ValueError naming t.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    p = math.sin(t / d) ** 2
    k = np.arange(d + 1)
    if p in (0.0, 1.0):  # log(0) below; the law is a point mass
        return (k == round(p * d)).astype(float)
    log_coeff = np.concatenate(([0.0], np.cumsum(np.log(d - k[:-1]) - np.log(k[1:]))))
    log_mass = log_coeff + k * math.log(p) + (d - k) * math.log1p(-p)
    mass = np.exp(log_mass - log_mass.max())
    return mass / mass.sum()
