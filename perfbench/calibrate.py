"""Fixed calibration work for one fresh process, independent of bdqw.

Usage: python3 perfbench/calibrate.py

The runner times this program next to every pass.  On a shared host the
speed of fresh processes drifts by tens of percent over minutes, and the
drift moves this program's wall time together with the CLI calls'.  The
work mirrors theirs: interpreter start-up and the numpy import, a scalar
Python loop like the QL sweeps, and fresh numpy allocations, convolutions
and a matrix product like the stats and dense-oracle layers.
"""

import math

import numpy as np


def main() -> None:
    table = [float(i % 7) + 0.5 for i in range(2000)]
    acc = 0.0
    for _ in range(30):
        for i in range(1, len(table) - 1):
            acc += math.hypot(table[i - 1], table[i + 1]) * 0.5 - table[i]
    mass = np.ones(1)
    factor = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
    for _ in range(1500):
        mass = np.convolve(mass, factor)
    square = np.random.default_rng(0).standard_normal((200, 200))
    for _ in range(10):
        square = square @ square.T / 200.0
    if not math.isfinite(acc + float(mass.sum()) + float(square[0, 0])):
        raise SystemExit("calibration produced a non-finite value")


if __name__ == "__main__":
    main()
