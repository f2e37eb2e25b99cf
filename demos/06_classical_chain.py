"""The classical side: one dimension's kernel, stationarity and time averages.

Before anything quantum happens, each dimension is a classical birth-death
chain.  The reflecting chain is periodic, so the distribution itself
oscillates, but its even/odd subsequences settle and the time average
converges to the detailed-balance stationary law.
"""

import numpy as np

from bdqw import build_conditional_matrix, ehrenfest_dimension, stationary_distribution

dim = ehrenfest_dimension(4)
m = build_conditional_matrix(dim)
print("4-ball urn kernel; row sums:", m.sum(axis=1))
pi = stationary_distribution(m)
print("\n4-ball urn stationary law:", pi, "(binomial / 16)")

init = np.zeros(5)
init[0] = 1.0
print("\nstep  distribution (started from position 0)")
dist = init
running = np.zeros(5)
for step in range(1, 9):
    dist = dist @ m
    running += dist
    print(f"{step:4d}  {np.round(dist, 4)}")

average = running / 8
print("\ntime average after 8 steps:", np.round(average, 4))
print("stationary target:         ", np.round(pi, 4))
