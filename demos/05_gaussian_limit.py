"""The standardized sum of walkers approaches the normal law.

Take d independent copies of the one-dimensional walk at a fixed elapsed time
T, sum their positions, and standardize by the per-factor moments.  The
Kolmogorov distance to the standard normal CDF shrinks as d grows; the sums
are computed by exact convolution, so the numbers below are deterministic.
convolve_sweep yields the sum laws one d at a time from one table of the
factor's 2^k-fold sums, so each squaring is done once for the whole sweep.
"""

from bdqw import clt_distance, convolve_sweep, dimension_spectrum, ehrenfest_dimension, moments, transition_row

T = 1.0
spectrum = dimension_spectrum(ehrenfest_dimension(1))
factor = transition_row(spectrum, T, 0)
mean, variance = moments(factor)
print(f"per-factor law at T = {T}: {factor}")
print(f"per-factor mean {mean:.6f}, variance {variance:.6f}\n")

print("   d    Kolmogorov distance to N(0, 1)")
previous = None
sweep = (1, 4, 16, 64, 256, 1024, 4096, 16384, 65536)
for d, summed in zip(sweep, convolve_sweep(factor, sweep)):
    distance = clt_distance(summed)
    arrow = "" if previous is None else ("  (decreasing)" if distance < previous else "  (!)")
    print(f"{d:5d}    {distance:.6f}{arrow}")
    previous = distance

print("\nthe distance scales roughly like 1/sqrt(d), the usual central-limit rate")
