"""Seeded workload generator: the CLI calls that make up one benchmark pass.

Sizes are fixed per workload so that cost does not depend on the seed; the
seed draws only elapsed times and selection probabilities.  The CLI receives
nothing but the generated JSON configs and its command-line flags.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Ehrenfest urn sizes; every dimension is distinct, so a per-dimension
# spectrum memo cannot help and the eigensolver dominates.
URN_SIZES = (240, 160, 96)
URN_TIMES = 4
# Identical size-1 edges: ten thousand tiny identical eigensolves per call.
EDGE_DIMS = 10_000
EDGE_TIMES = 3
EDGE_SWEEP = [10, 1000, 4000]
# 8 x 16 x 16 = 2048 product states, half the default oracle cap, so one
# verify call stays a few seconds instead of the 15-32 s a 4096-state call
# takes.
ORACLE_SIZES = (7, 15, 15)
ORACLE_TIMES = 2
CLT_SIZE = 4
# np.convolve slows several-fold on subnormal tails, whose extent depends on
# p = sin^2(T/4); T in [2.9, 3.4] keeps p near 1/2, where the cost is flat.
CLT_SWEEP = [512, 1024, 2048, 4096, 8192]

WORKLOADS = ("urn-deep", "edge-swarm", "oracle-verify", "clt-sweep")


@dataclass(frozen=True)
class Call:
    """One CLI invocation: subcommand flags, its config, and the checker to apply.

    ``label`` names the call in reports; ``args`` are the CLI arguments
    except ``--config`` and ``--output``, which the runner appends.
    """

    label: str
    args: tuple[str, ...]
    config: dict
    check: str


def _select_prob(rng: random.Random, d: int) -> list[float]:
    """Positive selection probabilities summing to one, bounded away from 0."""
    weights = [rng.uniform(1.0, 3.0) for _ in range(d)]
    total = sum(weights)
    return [w / total for w in weights]


def _times(rng: random.Random, count: int, low: float, high: float) -> list[float]:
    return sorted(rng.uniform(low, high) for _ in range(count))


def generate(workload: str, seed: int) -> list[Call]:
    """The calls of one pass of ``workload``, drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "urn-deep":
        config = {
            "dims": [{"size": n} for n in URN_SIZES],
            "select_prob": _select_prob(rng, len(URN_SIZES)),
            "time": _times(rng, URN_TIMES, 0.5, 60.0),
        }
        return [
            Call("dump-spectrum", ("dump-spectrum",), config, "dump-spectrum"),
            Call("simulate", ("simulate",), config, "simulate"),
        ]
    if workload == "edge-swarm":
        # q_l is about 1e-4, so q_l * t of order one needs t of order 1e4.
        walk = {
            "dims": [{"size": 1}] * EDGE_DIMS,
            "select_prob": _select_prob(rng, EDGE_DIMS),
            "time": _times(rng, EDGE_TIMES, 2_000.0, 20_000.0),
        }
        sweep = {"dims": [{"size": 1}], "d_sweep": EDGE_SWEEP, "time": rng.uniform(0.5, 3.0)}
        return [
            Call("bench", ("bench",), sweep, "bench"),
            Call("simulate", ("simulate",), walk, "simulate"),
        ]
    if workload == "oracle-verify":
        config = {
            "dims": [{"size": n} for n in ORACLE_SIZES],
            "select_prob": _select_prob(rng, len(ORACLE_SIZES)),
            "time": _times(rng, ORACLE_TIMES, 0.5, 8.0),
        }
        return [
            Call("verify", ("verify",), config, "verify"),
            Call("simulate --dense", ("simulate", "--dense"), config, "simulate"),
        ]
    if workload == "clt-sweep":
        config = {"dims": [{"size": CLT_SIZE}], "d_sweep": CLT_SWEEP, "time": rng.uniform(2.9, 3.4)}
        return [Call("clt", ("clt",), config, "clt")]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
