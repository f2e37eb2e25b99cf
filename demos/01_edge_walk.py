"""A quantum walker on a single edge.

The simplest chain has two positions, 0 and 1, and always hops across.  Its
symmetrized generator has eigenvalues -1 and +1, so the evolution operator is
a plain rotation: the probability of having crossed after time t is sin^2 t.
This script builds that walk from scratch and checks the closed form.
"""

import math

import numpy as np

from bdqw import dimension_spectrum, ehrenfest_dimension, transition_prob_1d

edge = ehrenfest_dimension(1)
spectrum = dimension_spectrum(edge)

print("eigenvalues:", spectrum.eigenvalues)
print("weights:    ", spectrum.eigenvectors[0] ** 2)  # squared first components

print("\npropagator at t = 0.7:")
v = spectrum.eigenvectors  # exp(i t J) = V diag(e^{i t lambda}) V^T
print(np.round((v * np.exp(0.7j * spectrum.eigenvalues)) @ v.T, 6))

print("\n    t    P(0 -> 1)    sin^2 t")
for t in np.linspace(0.0, math.pi, 9):
    crossed = transition_prob_1d(spectrum, t, 0, 1)
    print(f"{t:7.4f}  {crossed:10.6f}  {math.sin(t) ** 2:10.6f}")

t = 1.234
assert abs(transition_prob_1d(spectrum, t, 0, 1) - math.sin(t) ** 2) < 1e-12
print("\nclosed form confirmed to 1e-12")
