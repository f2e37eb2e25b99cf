"""Birth-death chain specifications and their classical transition kernels.

A single dimension lives on positions {0, ..., size} with reflecting
boundaries: an interior walker at k steps down with probability p(k) and up
with probability 1 - p(k), while positions 0 and size bounce back
deterministically.  A multi-dimensional chain first selects a dimension
according to fixed selection probabilities and then moves inside it; the
composite kernel over the product space is therefore a weighted Kronecker
composition of the per-dimension kernels.

All types are immutable after construction and every operation is a pure
function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError

DEFAULT_ORACLE_CAP = 4096
# Bound on the negative entries and the normalization error check_probability_vector accepts.
PROBABILITY_TOLERANCE = 1e-10


@dataclass(frozen=True)
class DimensionSpec:
    """One birth-death dimension.

    ``decrease_prob[k - 1]`` is the probability of stepping from interior
    position k down to k - 1, for k = 1..size-1.  The boundary values are
    implicit: position 0 always steps up, position ``size`` always steps down.
    """

    size: int
    decrease_prob: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("size must be a positive integer")
        table = tuple(float(p) for p in self.decrease_prob)
        object.__setattr__(self, "decrease_prob", table)
        if len(table) != self.size - 1:
            raise ValueError(
                f"decrease_prob needs {self.size - 1} interior entries, got {len(table)}"
            )
        for k, p in enumerate(table, start=1):
            if not 0.0 < p < 1.0:
                raise ValueError(f"decrease_prob[{k}] = {p} is not strictly inside (0, 1)")

    @property
    def n_states(self) -> int:
        """Number of positions, size + 1."""
        return self.size + 1


@dataclass(frozen=True)
class MultiChainSpec:
    """An ordered collection of dimensions plus their selection probabilities."""

    dims: tuple[DimensionSpec, ...]
    select_prob: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(self.dims))
        object.__setattr__(self, "select_prob", tuple(float(q) for q in self.select_prob))
        if not self.dims:
            raise ValueError("dims must contain at least one DimensionSpec")
        if len(self.select_prob) != len(self.dims):
            raise ValueError(
                f"select_prob has {len(self.select_prob)} entries for {len(self.dims)} dims"
            )
        for q in self.select_prob:
            if not 0.0 < q < math.inf:
                raise ValueError(f"select_prob entry {q} is not finite and strictly positive")
        if abs(math.fsum(self.select_prob) - 1.0) > 1e-12:
            raise ValueError("select_prob entries must sum to 1")

    @property
    def n_dims(self) -> int:
        return len(self.dims)

    @property
    def shape(self) -> tuple[int, ...]:
        """Per-dimension state counts, first dimension most significant."""
        return tuple(d.n_states for d in self.dims)

    @property
    def product_size(self) -> int:
        return math.prod(self.shape)


def uniform_multi_chain(dim: DimensionSpec, d: int) -> MultiChainSpec:
    """Replicate one dimension d times with uniform selection probabilities."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return MultiChainSpec(dims=(dim,) * d, select_prob=(1.0 / d,) * d)


def ehrenfest_dimension(n: int) -> DimensionSpec:
    """Urn-model dimension of n balls: from position k, step down w.p. k/n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return DimensionSpec(size=n, decrease_prob=tuple(k / n for k in range(1, n)))


def build_conditional_matrix(spec: DimensionSpec) -> np.ndarray:
    """Within-dimension transition matrix, conditioned on this dimension moving.

    Tridiagonal and row-stochastic: row k holds p(k) at k-1 and 1 - p(k) at
    k+1, with reflecting rows at both ends and zero diagonal throughout.
    """
    n = spec.size
    m = np.zeros((n + 1, n + 1))
    m[0, 1] = 1.0
    m[n, n - 1] = 1.0
    for k in range(1, n):
        p = spec.decrease_prob[k - 1]
        m[k, k - 1] = p
        m[k, k + 1] = 1.0 - p
    return m


def stationary_distribution(matrix: np.ndarray) -> np.ndarray:
    """Reversible stationary distribution of a conditional transition matrix.

    Runs the product recursion pi(k+1) = pi(k) * m[k, k+1] / m[k+1, k] in
    log space and normalizes after subtracting the largest log, so the
    pairwise balance pi(k) m[k, k+1] = pi(k+1) m[k+1, k] holds to rounding
    error without overflow.  Tails below the smallest double come out as 0;
    symmetrize does not use pi, so the spectra do not see them.
    """
    m = np.asarray(matrix, dtype=float)
    log_pi = np.concatenate(([0.0], np.cumsum(np.log(np.diag(m, 1)) - np.log(np.diag(m, -1)))))
    pi = np.exp(log_pi - log_pi.max())
    return pi / pi.sum()


def check_oracle_cap(size: int, oracle_cap: int = DEFAULT_ORACLE_CAP) -> None:
    """Raise SizeLimitError when a product space of ``size`` states is over the cap."""
    if size > oracle_cap:
        raise SizeLimitError(
            f"product space has {size} states, exceeding the oracle cap of {oracle_cap}"
        )


def full_transition_matrix(
    spec: MultiChainSpec, oracle_cap: int = DEFAULT_ORACLE_CAP
) -> np.ndarray:
    """Composite kernel over the product space (oracle scale only).

    Returns sum_i q_i * (I x ... x P_i x ... x I).  Positions are indexed in
    mixed radix with dimension 1 most significant, i.e. C-order flattening of
    the (N_1+1, ..., N_d+1) position array.
    """
    check_oracle_cap(spec.product_size, oracle_cap)
    total = np.zeros((spec.product_size, spec.product_size))
    for i, q in enumerate(spec.select_prob):
        term = np.ones((1, 1))
        for j, dim in enumerate(spec.dims):
            factor = build_conditional_matrix(dim) if j == i else np.eye(dim.n_states)
            term = np.kron(term, factor)
        total += q * term
    return total


def evolve_classical(init: np.ndarray, matrix: np.ndarray, steps: int) -> np.ndarray:
    """Push a distribution through ``steps`` applications of the kernel."""
    dist = np.asarray(init, dtype=float)
    m = np.asarray(matrix, dtype=float)
    if steps < 0:
        raise ValueError("steps must be a nonnegative integer")
    if dist.shape != (m.shape[0],) or m.shape[0] != m.shape[1]:
        raise ValueError(
            f"dimension mismatch: distribution of length {dist.shape}, kernel {m.shape}"
        )
    for _ in range(steps):
        dist = dist @ m
    return dist


def check_probability_vector(mass: np.ndarray) -> np.ndarray:
    """Validate nonnegativity and normalization; returns the vector as float array."""
    v = np.asarray(mass, dtype=float)
    if v.ndim != 1:
        raise ValueError("a probability vector must be one-dimensional")
    if v.size == 0:
        raise ValueError("a probability vector must be non-empty")
    if not float(v.min()) >= -PROBABILITY_TOLERANCE:  # NaN-aware: a NaN fails both checks
        raise ValueError(f"negative or NaN probability entry {v.min()}")
    total = float(v.sum())
    if not abs(total - 1.0) <= PROBABILITY_TOLERANCE:
        raise ValueError(f"probabilities sum to {total}, not 1")
    return v
