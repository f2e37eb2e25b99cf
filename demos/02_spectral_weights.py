"""From a birth-death kernel to weights and orthogonal polynomials.

Any chain that only steps to neighbours can be conjugated into a symmetric
tridiagonal matrix; its entries need only the kernel's up and down step
probabilities.  The eigenvectors carry a discrete weight function (squared
first components) under which the rescaled eigenvector columns behave like
orthogonal polynomials.  This script walks an asymmetric example through the
whole pipeline and evaluates the orthogonality defect, including what happens
when a first eigenvector component is deliberately corrupted.
"""

import dataclasses

import numpy as np

from bdqw import (
    DimensionSpec,
    build_conditional_matrix,
    eigendecompose,
    orthogonality_defect,
    stationary_distribution,
    symmetrize,
)

dim = DimensionSpec(size=4, decrease_prob=(0.2, 0.5, 0.8))
kernel = build_conditional_matrix(dim)
print("kernel rows sum to one:", np.allclose(kernel.sum(axis=1), 1.0))
print("stationary distribution (for context; J does not need it):")
print(np.round(stationary_distribution(kernel), 6))

tri = symmetrize(kernel)
print("\nsymmetrized off-diagonal sqrt(up * down):", np.round(tri.offdiag, 6))

data = eigendecompose(tri)
print("eigenvalues:", np.round(data.eigenvalues, 6))
weights = data.eigenvectors[0] ** 2  # squared first components
poly_table = data.eigenvectors / data.eigenvectors[0]  # columns rescaled to a first entry of one
print("weights:    ", np.round(weights, 6), " (sum", round(float(weights.sum()), 12), ")")
print("polynomial table (rows are positions, columns eigenvalues):")
print(np.round(poly_table, 4))

print("\northogonality defect of the weighted polynomials:", orthogonality_defect([data]))

vectors = data.eigenvectors.copy()
vectors[0, 0] += 0.01
corrupted = dataclasses.replace(data, eigenvectors=vectors)
print("defect after adding 0.01 to one first component:", round(orthogonality_defect([corrupted]), 6))
