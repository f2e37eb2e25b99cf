"""Output checks against closed forms, independent of the bdqw package.

For the n-ball Ehrenfest urn the symmetrized generator is the Krawtchouk
chain (Christandl et al., PRL 92, 187902, 2004), so:

* from position 0, dimension l's marginal at time t is
  Binomial(N_l, sin^2(q_l t / N_l));
* its spectrum is {-1, -1 + 2/N, ..., 1};
* the sum of d copies of the N=4 walk at time T is Binomial(4d, sin^2(T/4)),
  whose Kolmogorov distance to the normal law is computed here with scipy.

Each checker parses a call's output and raises CheckFailed on the first
violation.  ``perturbations`` yields corrupted copies of parsed outputs that
every checker must reject, which proves the checks can fail.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math

import numpy as np
from scipy import stats

TOL = 1e-10
# Perturbations are four orders of magnitude above TOL and far below the
# size of any real value they touch.
BUMP = 1e-6
# The CLI's default product-space cap, restated so the checks import no bdqw.
ORACLE_CAP = 4096


class CheckFailed(Exception):
    """An output disagrees with its closed form."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _worst(name: str, got: np.ndarray, want: np.ndarray) -> None:
    _require(got.shape == want.shape, f"{name}: shape {got.shape}, expected {want.shape}")
    err = float(np.max(np.abs(got - want)))
    _require(err <= TOL, f"{name}: max abs error {err:.3e} > {TOL:g}")


def _sizes(config: dict) -> list[int]:
    return [dim["size"] for dim in config["dims"]]


# --- simulate -------------------------------------------------------------


def parse_simulate(text: str) -> dict:
    """CSV rows (time, dimension, position, probability) -> per-time tables."""
    rows = csv.reader(io.StringIO(text))
    _require(next(rows, None) == ["time", "dimension", "position", "probability"], "bad header")
    out: dict[float, dict] = {}
    for t, dim, pos, prob in rows:
        entry = out.setdefault(float(t), {"marginals": {}, "joint": []})
        block = entry["joint"] if dim == "joint" else entry["marginals"].setdefault(int(dim), [])
        _require(int(pos) == len(block), f"t={t} dimension {dim}: position {pos} out of order")
        block.append(float(prob))
    return {
        t: {
            "marginals": {l: np.array(v) for l, v in e["marginals"].items()},
            "joint": np.array(e["joint"]),
        }
        for t, e in out.items()
    }


def check_simulate(config: dict, parsed: dict) -> None:
    sizes = np.array(_sizes(config))
    q = np.array(config["select_prob"])
    times = config["time"]
    _require(sorted(parsed) == sorted(times), f"times {sorted(parsed)} != {sorted(times)}")
    for t in times:
        marginals = parsed[t]["marginals"]
        _require(sorted(marginals) == list(range(1, sizes.size + 1)), f"t={t}: dimension set")
        for n in np.unique(sizes):
            dims = np.flatnonzero(sizes == n)
            p = np.sin(q[dims] * t / n) ** 2
            want = stats.binom.pmf(np.arange(n + 1)[None, :], n, p[:, None])
            got = np.array([marginals[l + 1] for l in dims])
            _worst(f"t={t} N={n} marginals", got, want)
        joint = parsed[t]["joint"]
        if joint.size:
            product = np.ones(1)
            for l in range(1, sizes.size + 1):
                product = np.outer(product, marginals[l]).ravel()
            _worst(f"t={t} joint law", joint, product)


def _perturb_simulate(parsed: dict):
    t = next(iter(parsed))
    bumped = copy.deepcopy(parsed)
    bumped[t]["marginals"][1][0] += BUMP
    yield "marginal entry +1e-6", bumped
    if parsed[t]["joint"].size:
        bumped = copy.deepcopy(parsed)
        bumped[t]["joint"][-1] += BUMP
        yield "joint entry +1e-6", bumped


# --- dump-spectrum ----------------------------------------------------------


def parse_dump_spectrum(text: str) -> dict:
    payload = json.loads(text)
    return {
        "sizes": [entry["size"] for entry in payload["dimensions"]],
        "eigenvalues": [np.array(entry["eigenvalues"]) for entry in payload["dimensions"]],
    }


def check_dump_spectrum(config: dict, parsed: dict) -> None:
    sizes = _sizes(config)
    _require(parsed["sizes"] == sizes, f"sizes {parsed['sizes']} != {sizes}")
    for l, (n, got) in enumerate(zip(sizes, parsed["eigenvalues"]), start=1):
        _worst(f"dim={l} eigenvalues", got, -1.0 + 2.0 * np.arange(n + 1) / n)


def _perturb_dump_spectrum(parsed: dict):
    bumped = copy.deepcopy(parsed)
    bumped["eigenvalues"][0][1] += BUMP
    yield "eigenvalue shifted by 1e-6", bumped


# --- clt --------------------------------------------------------------------


def parse_clt(text: str) -> dict:
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows and rows[0] == ["d", "kolmogorov_distance"], "bad header")
    _require(len(rows) >= 2 and rows[-1][0] == "monotone_decrease", "missing summary row")
    return {int(d): float(dist) for d, dist in rows[1:-1]}


def binomial_kolmogorov(n: int, p: float) -> float:
    """sup_x |F(x) - Phi(x)| for the standardized Binomial(n, p), over both
    one-sided limits at every atom."""
    k = np.arange(n + 1)
    cdf = stats.binom.cdf(k, n, p)
    phi = stats.norm.cdf((k - n * p) / math.sqrt(n * p * (1.0 - p)))
    below = np.concatenate(([0.0], cdf[:-1]))
    return float(max(np.abs(cdf - phi).max(), np.abs(below - phi).max()))


def check_clt(config: dict, parsed: dict) -> None:
    sweep = config["d_sweep"]
    _require(list(parsed) == sweep, f"d values {list(parsed)} != {sweep}")
    n = config["dims"][0]["size"]
    p = math.sin(config["time"] / n) ** 2
    for d in sweep:
        err = abs(parsed[d] - binomial_kolmogorov(n * d, p))
        _require(err <= TOL, f"d={d} distance error {err:.3e} > {TOL:g}")


def _perturb_clt(parsed: dict):
    bumped = dict(parsed)
    d = next(iter(bumped))
    bumped[d] += BUMP
    yield "distance shifted by 1e-6", bumped


# --- verify -----------------------------------------------------------------

_DEFECTS = (
    "theorem1_max_abs_err",
    "orthogonality_defect",
    "unitarity_defect",
    "detailed_balance_defect",
)


def parse_verify(text: str) -> dict:
    return json.loads(text)


def check_verify(config: dict, parsed: dict) -> None:
    _require(parsed.get("pass") is True, "verify did not report pass: true")
    _require(parsed.get("times") == config["time"], "verify times differ from the config")
    for key in _DEFECTS:
        value = parsed.get(key)
        _require(isinstance(value, float) and 0.0 <= value <= TOL, f"{key} = {value!r}")


def _perturb_verify(parsed: dict):
    yield "pass: false", {**parsed, "pass": False}
    yield "theorem1 error 1e-6", {**parsed, "theorem1_max_abs_err": BUMP}


# --- bench ------------------------------------------------------------------


def parse_bench(text: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows and rows[0] == ["product_size", "dense_ms", "factorized_ms", "ratio"], "header")
    return rows[1:]


def check_bench(config: dict, parsed: list[list[str]]) -> None:
    """Timings cannot be checked against a closed form; the table's shape can.

    Size-1 edges have two states each, so the product space of d edges has
    2**d states; the dense column runs exactly where that fits the cap.
    """
    sweep = config["d_sweep"]
    _require(len(parsed) == len(sweep) + 2, f"{len(parsed)} rows for {len(sweep)} sizes")
    for d, (size, dense, fact, _) in zip(sweep, parsed):
        _require(int(size) == 2**d, f"d={d}: product size {size}")
        _require(math.isfinite(float(fact)) and float(fact) > 0.0, f"d={d}: factorized {fact}")
        if 2**d <= ORACLE_CAP:
            _require(dense != "skipped" and float(dense) > 0.0, f"d={d}: dense {dense}")
        else:
            _require(dense == "skipped", f"d={d}: dense ran beyond the cap")
    flags = [row[0] for row in parsed[len(sweep):]]
    _require(flags == ["speedup_at_least_10x", "factorized_flat"], f"flag rows {flags}")


def _perturb_bench(parsed: list[list[str]]):
    bumped = [list(row) for row in parsed]
    bumped[0][1] = "skipped"
    yield "dense column skipped under the cap", bumped


CHECKERS = {
    "simulate": (parse_simulate, check_simulate, _perturb_simulate),
    "dump-spectrum": (parse_dump_spectrum, check_dump_spectrum, _perturb_dump_spectrum),
    "clt": (parse_clt, check_clt, _perturb_clt),
    "verify": (parse_verify, check_verify, _perturb_verify),
    "bench": (parse_bench, check_bench, _perturb_bench),
}


def check(kind: str, config: dict, text: str) -> dict | list:
    """Parse and check one output; returns the parsed form for self-tests."""
    parse, verify, _ = CHECKERS[kind]
    try:
        parsed = parse(text)
        verify(config, parsed)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise CheckFailed(f"malformed {kind} output ({exc!r})") from exc
    return parsed


def self_test(kind: str, config: dict, parsed) -> list[str]:
    """Names of perturbations the checker wrongly accepts (empty when sound)."""
    _, verify, perturbations = CHECKERS[kind]
    accepted = []
    for name, bumped in perturbations(parsed):
        try:
            verify(config, bumped)
        except CheckFailed:
            continue
        accepted.append(f"{kind}: {name}")
    return accepted
