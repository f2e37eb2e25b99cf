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
  calculations that never touches the product space; and
* a dense oracle that assembles the full tensor-space eigensystem
  (Kronecker-sum eigenvalues, tensor-product eigenvectors) and evaluates the
  amplitude as one sum over the product spectrum.  The oracle is capped,
  since its cost grows with the product-space size.

Every route is a slice of one kernel, the elements of V diag(e^{i t lambda}) V^T
over a spectrum (V, lambda): a 1-D spectrum for the factorized path, the
product eigensystem for the oracle.

Everything here is a pure function of immutable inputs; per-dimension
propagators and per-pair evaluations can be computed concurrently.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .chain import DEFAULT_ORACLE_CAP, MultiChainSpec, check_oracle_cap
from .spectral import SpectralData


def _amplitudes(
    vectors: np.ndarray,
    values: np.ndarray,
    t: float,
    rows: int | slice = slice(None),
    cols: int | slice = slice(None),
) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the [rows, cols] block of V diag(e^{i t lambda}) V^T.

    The one amplitude kernel behind every route: two real matmuls, one per
    part; an integer index drops that axis.  Real matmuls rather than a
    complex-phase product, which costs a complex matmul: at 2048 product
    states the dense propagator took 0.65-0.81 s that way against 0.45 s.
    """
    left, right = vectors[rows], vectors[cols].T
    lam_t = t * values
    return (left * np.cos(lam_t)) @ right, (left * np.sin(lam_t)) @ right


def _probabilities(*args) -> np.ndarray:
    """Squared moduli of the kernel's elements; same arguments as _amplitudes."""
    re, im = _amplitudes(*args)
    return re**2 + im**2


def _unitary(vectors: np.ndarray, values: np.ndarray, t: float) -> np.ndarray:
    re, im = _amplitudes(vectors, values, t)
    return re + 1j * im


def propagator(spectrum: SpectralData, t: float) -> np.ndarray:
    """One-dimensional evolution operator exp(i t J), a complex symmetric unitary."""
    return _unitary(spectrum.eigenvectors, spectrum.eigenvalues, t)


def _check_position(n_states: int, pos: int, name: str) -> None:
    if not 0 <= pos < n_states:
        raise ValueError(f"position {name}={pos} out of range 0..{n_states - 1}")


def transition_prob_1d(spectrum: SpectralData, t: float, j: int, k: int) -> float:
    """Probability of moving from position j to k in elapsed time t."""
    _check_position(spectrum.n_states, j, "j")
    _check_position(spectrum.n_states, k, "k")
    return float(_probabilities(spectrum.eigenvectors, spectrum.eigenvalues, t, k, j))


def transition_prob_weight_form(spectrum: SpectralData, t: float, j: int, k: int) -> float:
    """Same probability evaluated through the polynomial table and weights.

    Numerically secondary (it divides by first components); kept as the
    independent route for orthogonality/weight verification.
    """
    _check_position(spectrum.n_states, j, "j")
    _check_position(spectrum.n_states, k, "k")
    poly = spectrum.poly_table
    amp = np.sum(np.exp(1j * t * spectrum.eigenvalues) * poly[k] * poly[j] * spectrum.weights)
    return float(abs(amp) ** 2)


def transition_matrix_1d(spectrum: SpectralData, t: float) -> np.ndarray:
    """All-pairs transition probabilities; entry [k, j] is j -> k."""
    return _probabilities(spectrum.eigenvectors, spectrum.eigenvalues, t)


def transition_row(spectrum: SpectralData, t: float, j: int) -> np.ndarray:
    """Position distribution after elapsed time t, started from position j."""
    _check_position(spectrum.n_states, j, "j")
    return _probabilities(spectrum.eigenvectors, spectrum.eigenvalues, t, slice(None), j)


def _check_multi(
    spec: MultiChainSpec,
    spectra: tuple[SpectralData, ...],
    indices: dict[str, tuple[int, ...]],
) -> None:
    """Check the spectra and multi-indices against the chain."""
    if len(spectra) != spec.n_dims:
        raise ValueError(f"{len(spectra)} spectra supplied for {spec.n_dims} dimensions")
    for s, dim in zip(spectra, spec.dims):
        if s.n_states != dim.n_states:
            raise ValueError("spectrum size does not match its dimension")
    for name, multi in indices.items():
        if len(multi) != spec.n_dims:
            raise ValueError(f"multi-index {name} has length {len(multi)}, expected {spec.n_dims}")
        for pos, dim in zip(multi, spec.dims):
            _check_position(dim.n_states, pos, name)


def transition_prob_factorized(
    spec: MultiChainSpec,
    spectra: tuple[SpectralData, ...],
    t: float,
    j: tuple[int, ...],
    k: tuple[int, ...],
) -> float:
    """Multi-dimensional transition probability as a product of 1-D factors.

    Each dimension l contributes its one-dimensional transition probability
    at the rescaled elapsed time q_l * t.  Never touches the product space,
    so it scales to dimensions where the dense route is infeasible.
    """
    _check_multi(spec, spectra, {"j": tuple(j), "k": tuple(k)})
    out = 1.0
    for q, s, jl, kl in zip(spec.select_prob, spectra, j, k):
        out *= transition_prob_1d(s, q * t, jl, kl)
    return out


def factorized_transition_matrix(
    spec: MultiChainSpec, spectra: tuple[SpectralData, ...], t: float
) -> np.ndarray:
    """All-pairs factorized probabilities over the product space.

    Kronecker product of the per-dimension all-pairs matrices at rescaled
    times; entry [k_flat, j_flat] matches transition_prob_factorized.
    """
    _check_multi(spec, spectra, {})
    out = np.ones((1, 1))
    for q, s in zip(spec.select_prob, spectra):
        out = np.kron(out, transition_matrix_1d(s, q * t))
    return out


def position_distribution(
    spec: MultiChainSpec, spectra: tuple[SpectralData, ...], t: float, j: tuple[int, ...]
) -> tuple[np.ndarray, ...]:
    """Marginal position laws at elapsed time t from initial multi-index j.

    Entry l is dimension l's distribution at the rescaled time q_l * t; the
    marginals are independent, so their outer product is the joint law.
    """
    _check_multi(spec, spectra, {"j": tuple(j)})
    return tuple(transition_row(s, q * t, jl) for q, s, jl in zip(spec.select_prob, spectra, j))


def _product_eigensystem(
    spec: MultiChainSpec, spectra: tuple[SpectralData, ...], oracle_cap: int, **indices: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """Dense eigensystem of the weighted Kronecker-sum generator.

    Eigenvector matrix is the Kronecker product of the per-dimension bases;
    eigenvalues are the q-weighted sums over all index combinations.  Only
    valid below the oracle cap, after checking the spectra and ``indices``.
    """
    _check_multi(spec, spectra, indices)
    check_oracle_cap(spec.product_size, oracle_cap)
    vectors = reduce(np.kron, [s.eigenvectors for s in spectra])
    values = reduce(
        np.add.outer, [q * s.eigenvalues for q, s in zip(spec.select_prob, spectra)]
    )
    return vectors, np.asarray(values).ravel()


def dense_propagator(
    spec: MultiChainSpec,
    spectra: tuple[SpectralData, ...],
    t: float,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    """Full product-space evolution operator, a complex matrix (oracle path)."""
    return _unitary(*_product_eigensystem(spec, spectra, oracle_cap), t)


def transition_prob_dense(
    spec: MultiChainSpec,
    spectra: tuple[SpectralData, ...],
    t: float,
    j: tuple[int, ...],
    k: tuple[int, ...],
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> float:
    """Transition probability evaluated on the full product space.

    Single sum over the product spectrum, no factorization; the independent
    check for the fast path.
    """
    vectors, values = _product_eigensystem(spec, spectra, oracle_cap, j=tuple(j), k=tuple(k))
    flat_k = np.ravel_multi_index(tuple(k), spec.shape)
    flat_j = np.ravel_multi_index(tuple(j), spec.shape)
    return float(_probabilities(vectors, values, t, flat_k, flat_j))


def dense_transition_matrix(
    spec: MultiChainSpec,
    spectra: tuple[SpectralData, ...],
    t: float,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    """All-pairs probabilities from the dense oracle; entry [k_flat, j_flat]."""
    return _probabilities(*_product_eigensystem(spec, spectra, oracle_cap), t)


def dense_position_distribution(
    spec: MultiChainSpec,
    spectra: tuple[SpectralData, ...],
    t: float,
    j: tuple[int, ...],
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    """Joint position law from the dense oracle, flattened in C order over the product space."""
    vectors, values = _product_eigensystem(spec, spectra, oracle_cap, j=tuple(j))
    flat_j = np.ravel_multi_index(tuple(j), spec.shape)
    return _probabilities(vectors, values, t, slice(None), flat_j)


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
