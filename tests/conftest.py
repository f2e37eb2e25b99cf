"""Shared strategies, random fixtures, spectral views and reference routes for the test suite."""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from hypothesis import strategies as st

from bdqw.chain import (
    DimensionSpec,
    MultiChainSpec,
    build_conditional_matrix,
    ehrenfest_dimension,
    stationary_distribution,
)
from bdqw.ctqw import transition_matrix_1d
from bdqw.spectral import SpectralData


def weights(data: SpectralData) -> np.ndarray:
    """The discrete weight function: squared first components of the eigenvectors."""
    return data.eigenvectors[0] ** 2


def poly_table(data: SpectralData) -> np.ndarray:
    """``poly_table(data)[j, l]`` is eigenvector column l rescaled by its first component."""
    return data.eigenvectors / data.eigenvectors[0]


def propagator(data: SpectralData, t: float) -> np.ndarray:
    """The 1-D evolution operator exp(i t J) = V diag(e^{i t lambda}) V^T, one complex matrix."""
    v = data.eigenvectors
    return (v * np.exp(1j * t * data.eigenvalues)) @ v.T


def symmetrized_kernel_oracle(dim: DimensionSpec) -> np.ndarray:
    """Dense D^{1/2} P D^{-1/2}, independent of the spectral module."""
    root = np.sqrt(stationary_distribution(dim))
    return np.diag(root) @ build_conditional_matrix(dim) @ np.diag(1.0 / root)


def expm_oracle(spec: MultiChainSpec, t: float) -> np.ndarray:
    """Structure-blind scaling-and-squaring propagator over the product space.

    scipy's expm of the Kronecker-sum generator, built as a dense matrix from
    the symmetrized kernels: it reads no eigenpair and no Chebyshev term, so
    it is Theorem 1's reference for every route of the package.
    """
    generator = np.zeros((spec.product_size, spec.product_size))
    for i, q in enumerate(spec.select_prob):
        term = np.ones((1, 1))
        for j, dim in enumerate(spec.dims):
            block = symmetrized_kernel_oracle(dim) if j == i else np.eye(dim.n_states)
            term = np.kron(term, block)
        generator += q * term
    return scipy.linalg.expm(1j * t * generator)


def expm_transition_matrix(spec: MultiChainSpec, t: float) -> np.ndarray:
    """expm_oracle's all-pairs probabilities |U|^2; entry [k_flat, j_flat] is j -> k."""
    return np.abs(expm_oracle(spec, t)) ** 2


def factorized_transition_matrix(spec: MultiChainSpec, spectra: tuple, t: float) -> np.ndarray:
    """Theorem 1 over all pairs: the Kronecker product of the 1-D matrices at times q_l * t."""
    out = np.ones((1, 1))
    for q, s in zip(spec.select_prob, spectra):
        out = np.kron(out, transition_matrix_1d(s, q * t))
    return out


def double_well(size: int) -> DimensionSpec:
    """p = 0.9 below the middle, 0.1 above: two wells whose eigenvalues pair up tightly."""
    table = tuple(0.9 if k < size / 2 else 0.1 for k in range(1, size))
    return DimensionSpec(size=size, decrease_prob=table)


@st.composite
def dimension_specs(draw, min_size=1, max_size=12):
    size = draw(st.integers(min_size, max_size))
    table = draw(
        st.lists(
            st.floats(0.01, 0.99, allow_nan=False, allow_infinity=False),
            min_size=size - 1,
            max_size=size - 1,
        )
    )
    return DimensionSpec(size=size, decrease_prob=tuple(table))


@st.composite
def multi_chain_specs(draw, max_dims=3, max_size=4, max_states=256):
    n_dims = draw(st.integers(1, max_dims))
    dims = []
    states = 1
    for _ in range(n_dims):
        dim = draw(dimension_specs(max_size=max_size))
        dims.append(dim)
        states *= dim.n_states
    if states > max_states:
        # trim to the cap by replacing dims with edges from the back
        for i in range(len(dims) - 1, -1, -1):
            if states <= max_states:
                break
            states //= dims[i].n_states
            dims[i] = DimensionSpec(size=1)
            states *= 2
    raw = draw(
        st.lists(st.floats(0.05, 1.0), min_size=len(dims), max_size=len(dims))
    )
    total = math.fsum(raw)
    return MultiChainSpec(dims=tuple(dims), select_prob=tuple(q / total for q in raw))


def random_dimension_spec(rng: np.random.Generator, max_size: int = 12) -> DimensionSpec:
    size = int(rng.integers(1, max_size + 1))
    table = rng.uniform(0.02, 0.98, size=size - 1)
    return DimensionSpec(size=size, decrease_prob=tuple(table))


def kernel_layer_dimensions() -> list[DimensionSpec]:
    """The urns of 1-300 balls and 20 random chains of up to 300 states (seed 38)."""
    rng = np.random.default_rng(38)
    urns = [ehrenfest_dimension(n) for n in range(1, 301)]
    return urns + [random_dimension_spec(rng, max_size=299) for _ in range(20)]


def random_multi_chain_spec(
    rng: np.random.Generator, max_dims: int = 4, max_size: int = 5
) -> MultiChainSpec:
    n_dims = int(rng.integers(1, max_dims + 1))
    dims = tuple(random_dimension_spec(rng, max_size=max_size) for _ in range(n_dims))
    raw = rng.uniform(0.1, 1.0, size=n_dims)
    q = raw / raw.sum()
    return MultiChainSpec(dims=dims, select_prob=tuple(q))
