"""Write double_well_mp.json: 80-digit reference spectra and walks of double wells.

Run from the repository root (mpmath 1.3 or later; a few minutes)::

    python tests/data/make_double_well_fixture.py

The double well of size N (tests/conftest.py) steps down with probability
0.9 below the middle and 0.1 above it, so its eigenvalues pair up within
about 3^-N.  Its J has off-diagonal sqrt(up(k) down(k+1)), formed here from
the binary doubles 0.9 and 0.1 exactly, and a zero diagonal.  For each size
the script solves J at 80 digits with mpmath's implicit QL (imtql2), which
shares no code with the package, and stores, each rounded to the nearest
double, the eigenvalues ascending and the probabilities |exp(itJ)[k, 0]|^2
from position 0 at each of TIMES.  The listed sizes include 43, 53, 60, 67,
68, 86, 95, 110 and 124, where LAPACK's full SVD of the half-size bidiagonal
(gesdd with vectors) returns a pair of singular values as one double.
"""

from __future__ import annotations

import json
import os

from mpmath import mp
from mpmath.matrices.eigen_symmetric import tridiag_eigen

SIZES = (2, 3, 12, 16, 20, 30, 40, 42, 43, 50, 53, 60, 67, 68, 80, 81, 86, 95, 100, 110, 124, 129, 130)
TIMES = (0.7, 30.0, 500.0)
DIGITS = 80


def off_diagonal(size: int) -> list:
    """sqrt(up(k) down(k+1)) for k = 0 .. size-1, from the double well's table taken exactly."""
    table = [mp.mpf(0.9) if k < size / 2 else mp.mpf(0.1) for k in range(1, size)]
    down = [mp.mpf(0)] + table + [mp.mpf(1)]
    up = [mp.mpf(1)] + [1 - p for p in table] + [mp.mpf(0)]
    return [mp.sqrt(up[k] * down[k + 1]) for k in range(size)]


def reference(size: int) -> dict:
    n = size + 1
    values, off, vectors = [mp.mpf(0)] * n, off_diagonal(size) + [mp.mpf(0)], mp.eye(n)
    tridiag_eigen(mp, values, off, vectors)  # ascending, columns orthonormal
    walks = []
    for t in TIMES:
        phases = [mp.expj(t * lam) * vectors[0, j] for j, lam in enumerate(values)]
        walks.append([float(abs(mp.fsum(vectors[k, j] * phases[j] for j in range(n))) ** 2) for k in range(n)])
    return {"eigenvalues": [float(v) for v in values], "probabilities": walks}


def main() -> None:
    mp.dps = DIGITS
    wells = {}
    for size in SIZES:
        wells[str(size)] = reference(size)
        print(f"size {size} done", flush=True)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "double_well_mp.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"digits": DIGITS, "times": list(TIMES), "wells": wells}, fh)
        fh.write("\n")


if __name__ == "__main__":
    main()
