"""Acceptance suite: one test per release criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from bdqw.chain import (
    MultiChainSpec,
    build_conditional_matrix,
    ehrenfest_dimension,
    stationary_distribution,
    uniform_multi_chain,
)
from bdqw.cli import main
from bdqw.ctqw import (
    ehrenfest_sum_law,
    position_distribution,
    transition_matrix_1d,
    transition_prob_1d,
    transition_prob_factorized,
)
from bdqw.spectral import dimension_spectrum, eigendecompose, orthogonality_defect, symmetrize
from bdqw.stats import clt_distance, convolve_sum

from conftest import (
    expm_transition_matrix,
    factorized_transition_matrix,
    random_dimension_spec,
    random_multi_chain_spec,
    weights,
)

A1_TIMES = (0.1, 0.7, 1.0, math.pi, 10.0)
A3_TIMES = (0.3, 1.0, math.pi / 2, 2.5)
A5_SWEEP = (4, 16, 64, 256, 1024)


def _report(criterion: str, passed: bool, detail: str) -> bool:
    print(f"{criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    return passed


def test_a1_factorized_equals_dense_on_random_chains():
    rng = np.random.default_rng(20240811)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        spec = random_multi_chain_spec(rng, max_dims=4, max_size=5)
        spectra = tuple(dimension_spectrum(dim) for dim in spec.dims)
        for t in A1_TIMES:
            fact = factorized_transition_matrix(spec, spectra, t)
            dense = expm_transition_matrix(spec, t)
            worst = max(worst, float(np.max(np.abs(fact - dense))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 60.0
    assert _report(
        "A1 factorized-vs-dense equivalence",
        ok,
        f"max abs err {worst:.3e} over 50 specs x {len(A1_TIMES)} times, {elapsed:.1f}s",
    )


def test_a2_time_rescaling_mutation_breaks_equivalence():
    spec = MultiChainSpec(
        dims=(ehrenfest_dimension(1), ehrenfest_dimension(2)),
        select_prob=(0.3, 0.7),
    )
    spectra = tuple(dimension_spectrum(dim) for dim in spec.dims)
    t = 1.0
    mutated = np.ones((1, 1))
    for s in spectra:
        mutated = np.kron(mutated, transition_matrix_1d(s, t))  # q * t replaced by t
    err = float(np.max(np.abs(mutated - expm_transition_matrix(spec, t))))
    ok = err > 1e-3
    assert _report(
        "A2 time-rescaling mutation detected",
        ok,
        f"mutated max err {err:.3e} > 1e-3 on non-uniform q fixture",
    )


def test_a3_sum_of_edge_walkers_is_binomial():
    worst = 0.0
    for d in range(1, 13):
        spec = uniform_multi_chain(ehrenfest_dimension(1), d)
        spectra = tuple(dimension_spectrum(dim) for dim in spec.dims)
        for t in A3_TIMES:
            summed = convolve_sum(position_distribution(spec, spectra, t, (0,) * d))
            worst = max(worst, float(np.max(np.abs(summed.mass - ehrenfest_sum_law(d, t)))))
    ok = worst <= 1e-12
    assert _report(
        "A3 binomial sum law",
        ok,
        f"max abs err {worst:.3e} over d=1..12 x {len(A3_TIMES)} times",
    )


def test_a4_edge_transition_law():
    rng = np.random.default_rng(4)
    edge = dimension_spectrum(ehrenfest_dimension(1))
    worst = 0.0
    for _ in range(100):
        t = float(rng.uniform(-10.0, 10.0))
        worst = max(worst, abs(transition_prob_1d(edge, t, 0, 1) - math.sin(t) ** 2))
        worst = max(worst, abs(transition_prob_1d(edge, t, 0, 0) - math.cos(t) ** 2))
    ok = worst <= 1e-12
    assert _report("A4 edge-chain sine/cosine law", ok, f"max abs err {worst:.3e} over 100 times")


def test_a5_gaussian_limit_of_standardized_sums():
    start = time.perf_counter()
    edge = dimension_spectrum(ehrenfest_dimension(1))
    factor = np.asarray(
        position_distribution(
            uniform_multi_chain(ehrenfest_dimension(1), 1), (edge,), 1.0, (0,)
        )[0]
    )
    distances = []
    for d in A5_SWEEP:
        summed = convolve_sum([factor] * d)
        distances.append(clt_distance(summed))
    at_400 = clt_distance(convolve_sum([factor] * 400))
    elapsed = time.perf_counter() - start
    decreasing = all(b < a for a, b in zip(distances, distances[1:]))
    ok = decreasing and at_400 < 0.05 and elapsed < 30.0
    detail = (
        "distances "
        + " > ".join(f"{v:.4f}" for v in distances)
        + f", d=400 gives {at_400:.4f} < 0.05, {elapsed:.1f}s"
    )
    assert _report("A5 gaussian limit", ok, detail)


def test_a6_spectral_suite_on_random_dimensions():
    rng = np.random.default_rng(66)
    specs = [random_dimension_spec(rng, max_size=12) for _ in range(100)]
    worst_recon = 0.0
    worst_bound = 0.0
    worst_weight = 0.0
    for spec in specs:
        tri = symmetrize(spec)
        data = eigendecompose(tri)
        recon = (data.eigenvectors * data.eigenvalues) @ data.eigenvectors.T
        worst_recon = max(worst_recon, float(np.max(np.abs(recon - tri.to_dense()))))
        worst_bound = max(worst_bound, float(np.max(np.abs(data.eigenvalues))) - 1.0)
        worst_weight = max(worst_weight, abs(float(weights(data).sum()) - 1.0))

    worst_defect = 0.0
    batch: list = []
    batch_size = 1
    for spec in specs:
        if batch and batch_size * spec.n_states > 256:
            worst_defect = max(
                worst_defect, orthogonality_defect([dimension_spectrum(s) for s in batch])
            )
            batch, batch_size = [], 1
        batch.append(spec)
        batch_size *= spec.n_states
    if batch:
        worst_defect = max(
            worst_defect, orthogonality_defect([dimension_spectrum(s) for s in batch])
        )

    ok = (
        worst_recon <= 1e-10
        and worst_bound <= 1e-10
        and worst_weight <= 1e-10
        and worst_defect <= 1e-10
    )
    assert _report(
        "A6 spectral suite",
        ok,
        f"reconstruction {worst_recon:.3e}, spectrum excess {max(worst_bound, 0.0):.3e}, "
        f"weight sum {worst_weight:.3e}, orthogonality {worst_defect:.3e} on 100 specs",
    )


def test_a7_stochastic_and_stationary_suite():
    rng = np.random.default_rng(77)
    worst_balance = 0.0
    worst_stationary = 0.0
    for _ in range(100):
        spec = random_dimension_spec(rng, max_size=12)
        m = build_conditional_matrix(spec)
        pi = stationary_distribution(spec)
        pairwise = np.abs(pi[:-1] * np.diag(m, 1) - pi[1:] * np.diag(m, -1))
        worst_balance = max(worst_balance, float(pairwise.max()))
        worst_stationary = max(worst_stationary, float(np.max(np.abs(pi @ m - pi))))
    pi4 = stationary_distribution(ehrenfest_dimension(4))
    urn_err = float(np.max(np.abs(pi4 - np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0)))
    ok = worst_balance <= 1e-12 and worst_stationary <= 1e-12 and urn_err <= 1e-12
    assert _report(
        "A7 stochastic/stationary suite",
        ok,
        f"detailed balance {worst_balance:.3e}, stationarity {worst_stationary:.3e}, "
        f"4-ball urn law {urn_err:.3e}",
    )


def test_a8_performance_evidence(tmp_path):
    config = tmp_path / "bench.json"
    config.write_text(
        json.dumps(
            {"dims": [{"size": 1}], "time": 1.0, "d_sweep": [10, 20], "output": {"format": "json"}}
        ),
        encoding="utf-8",
    )
    out = tmp_path / "bench.json.out"
    code = main(["bench", "--config", str(config), "--output", str(out)])
    report = json.loads(out.read_text())
    rows = {row["product_size"]: row for row in report["rows"]}

    dense_feasible = isinstance(rows[1024]["dense_ms"], float)
    dense_skipped = rows[2**20]["dense_ms"] == "skipped"
    factorized_completes = rows[2**20]["factorized_ms"] > 0.0

    # direct completion check on the 2^20-state walk, far beyond the dense cap
    spec = uniform_multi_chain(ehrenfest_dimension(1), 20)
    spectra = tuple(dimension_spectrum(dim) for dim in spec.dims)
    prob = transition_prob_factorized(spec, spectra, 1.0, (0,) * 20, (1,) * 20)
    prob_ok = 0.0 <= prob <= 1.0

    ratio = rows[1024]["ratio"] if dense_feasible else None
    ok = code == 0 and dense_feasible and dense_skipped and factorized_completes and prob_ok
    detail = (
        f"d=10 dense {rows[1024]['dense_ms']:.2f}ms vs factorized "
        f"{rows[1024]['factorized_ms']:.2f}ms (ratio {ratio:.1f}, >=10x flag "
        f"{report['speedup_at_least_10x']}, informational), d=20 factorized "
        f"{rows[2**20]['factorized_ms']:.2f}ms with dense skipped"
    )
    assert _report("A8 performance evidence", ok, detail)
