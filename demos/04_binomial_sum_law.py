"""Summing d independent edge walkers gives a binomial law.

With d single-ball urn dimensions selected uniformly, each marginal at time t
is Bernoulli(sin^2(t/d)) thanks to the time rescaling, and the total number
of walkers sitting at position 1 is Binomial(d, sin^2(t/d)).  The script
cross-checks the closed form against the exact convolution of the factorized
marginals.
"""

import math

import numpy as np

from bdqw import (
    chain_spectra,
    convolve_sum,
    ehrenfest_dimension,
    ehrenfest_sum_law,
    position_distribution,
    uniform_multi_chain,
)

t = 1.0
print("success probability sin^2(t/d) and law agreement:")
print("  d    sin^2(t/d)    max |convolution - binomial|")
for d in (1, 2, 4, 8, 12):
    spec = uniform_multi_chain(ehrenfest_dimension(1), d)
    spectra = chain_spectra(spec)
    summed = convolve_sum(position_distribution(spec, spectra, t, (0,) * d))
    gap = np.max(np.abs(summed.mass - ehrenfest_sum_law(d, t)))
    print(f"{d:3d}    {math.sin(t / d) ** 2:.6f}      {gap:.3e}")

d = 8
mass = ehrenfest_sum_law(d, t)
print(f"\nsum law for d = {d}, t = {t}:")
for k, p in enumerate(mass):
    print(f"  {k:2d}  {p:.6f}  {'#' * int(round(60 * p))}")
