"""The factorization that makes huge product spaces tractable.

A d-dimensional walk picks dimension l with probability q_l, so its generator
is a q-weighted Kronecker sum.  The payoff: the transition probability over
the whole product space equals a product of one-dimensional transition
probabilities, each evaluated at the rescaled elapsed time q_l * t.  This
script checks that equivalence against the dense tensor-space oracle, shows
the rescaling is essential, and times both routes as the dimension grows.
"""

import time

import numpy as np

from bdqw import (
    DimensionSpec,
    MultiChainSpec,
    chain_spectra,
    dense_transition_matrix,
    ehrenfest_dimension,
    factorized_transition_matrix,
    transition_matrix_1d,
    transition_prob_factorized,
    uniform_multi_chain,
)

spec = MultiChainSpec(
    dims=(ehrenfest_dimension(1), DimensionSpec(size=2, decrease_prob=(0.3,))),
    select_prob=(0.3, 0.7),
)
spectra = chain_spectra(spec)
t = 1.0

fact = factorized_transition_matrix(spec, spectra, t)
dense = dense_transition_matrix(spec, spectra, t)
print("max |factorized - dense| over all basis pairs:", np.max(np.abs(fact - dense)))

# drop the q_l rescaling and the agreement collapses
broken = np.kron(transition_matrix_1d(spectra[0], t), transition_matrix_1d(spectra[1], t))
print("same comparison without time rescaling:      ", np.max(np.abs(broken - dense)))

print("\n  d    states      dense        factorized")
for d in (2, 6, 10, 20):
    big = uniform_multi_chain(ehrenfest_dimension(1), d)
    big_spectra = chain_spectra(big)
    j, k = (0,) * d, (1,) * d

    start = time.perf_counter()
    prob = transition_prob_factorized(big, big_spectra, t, j, k)
    fast = time.perf_counter() - start

    if big.product_size <= 4096:
        start = time.perf_counter()
        dense_prob = dense_transition_matrix(big, big_spectra, t)[0, 0]  # full all-pairs table
        slow = f"{time.perf_counter() - start:9.4f}s"
    else:
        slow = "  infeasible"
    print(f"{d:3d}  {big.product_size:8d}  {slow}   {fast * 1e3:9.3f}ms  (P = {prob:.3e})")
