"""Command-line front end: JSON experiment configs in, CSV/JSON results out.

Subcommands
-----------
simulate       factorized marginals (and optionally the dense joint law) per time value
verify         factorized-vs-dense equivalence, orthogonality, unitarity, stationarity defects
clt            Kolmogorov distance of the standardized d-fold sum to the normal law, over a d sweep
bench          wall-clock comparison of the dense oracle against the factorized path
dump-spectrum  per-dimension eigensystem as JSON
dump-config    normalized, fully explicit config JSON (round-trips to the same chain)

Exit codes: 0 success, 1 verification failure, 2 config/validation error,
3 product-space size over the oracle cap.  The cap resolves as
--oracle-cap flag > BDQW_ORACLE_CAP env var > config field > 4096.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from .chain import (
    DEFAULT_ORACLE_CAP,
    DimensionSpec,
    MultiChainSpec,
    build_conditional_matrix,
    check_oracle_cap,
    ehrenfest_dimension,
    stationary_distribution,
    uniform_multi_chain,
)
from .ctqw import (
    dense_propagator,
    factorized_transition_matrix,
    position_distribution,
    propagator,
    transition_prob_dense,
    transition_prob_factorized,
    transition_row,
)
from .errors import SizeLimitError
from .spectral import chain_spectra, dimension_spectrum, orthogonality_defect
from .stats import clt_distance, convolve_sum, moments

ENV_ORACLE_CAP = "BDQW_ORACLE_CAP"
VERIFY_TOLERANCE = 1e-10
BENCH_REPETITIONS = 5
BENCH_SPEEDUP_FLAG = 10.0
BENCH_FLAT_FLAG = 10.0

# Documented reading of the Gaussian-limit statistic: the d summands are
# independent copies of the single-dimension walk, each evaluated at the
# same elapsed time T (no per-dimension time rescaling in the sweep).
CLT_READING = (
    "clt statistic: sum of d independent copies of the 1-D walk at elapsed time T, "
    "standardized by per-factor moments; no per-dimension time rescaling"
)


class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending field."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description; see README for the JSON schema."""

    spec: MultiChainSpec
    times: tuple[float, ...]
    initial: tuple[int, ...]
    oracle_cap: int | None
    output_path: str | None
    output_format: str
    d_sweep: tuple[int, ...] | None


def _parse_dimension(entry: object, idx: int) -> DimensionSpec:
    field = f"dims[{idx}]"
    if not isinstance(entry, dict):
        raise ConfigError(f"{field}: expected an object with 'size' and 'p_table'")
    size = entry.get("size")
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise ConfigError(f"{field}.size: expected a positive integer, got {size!r}")
    table = entry.get("p_table", "ehrenfest")
    if table == "ehrenfest":
        return ehrenfest_dimension(size)
    if not isinstance(table, list):
        raise ConfigError(f"{field}.p_table: expected 'ehrenfest' or a list of probabilities")
    try:
        return DimensionSpec(size=size, decrease_prob=tuple(float(p) for p in table))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{field}.p_table: {exc}") from exc


def parse_config(data: object) -> ExperimentConfig:
    """Build an ExperimentConfig from decoded JSON, naming bad fields."""
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be a JSON object")

    dims_raw = data.get("dims")
    if not isinstance(dims_raw, list) or not dims_raw:
        raise ConfigError("dims: expected a non-empty list of dimension objects")
    dims = tuple(_parse_dimension(entry, idx) for idx, entry in enumerate(dims_raw))

    select = data.get("select_prob", "uniform")
    if select == "uniform":
        select_prob = (1.0 / len(dims),) * len(dims)
    elif isinstance(select, list):
        try:
            select_prob = tuple(float(q) for q in select)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"select_prob: {exc}") from exc
    else:
        raise ConfigError("select_prob: expected 'uniform' or a list of reals")
    try:
        spec = MultiChainSpec(dims=dims, select_prob=select_prob)
    except ValueError as exc:  # every message reachable here names select_prob
        raise ConfigError(str(exc)) from exc

    times_raw = data.get("time", 1.0)
    if not isinstance(times_raw, list):
        times_raw = [times_raw]
    times: list[float] = []
    for value in times_raw:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"time: expected a real number, got {value!r}")
        value = float(value)
        if not math.isfinite(value):
            raise ConfigError(f"time: value {value} is not finite")
        times.append(value)
    if not times:
        raise ConfigError("time: expected at least one value")

    initial_raw = data.get("initial", [0] * spec.n_dims)
    if not isinstance(initial_raw, list) or len(initial_raw) != spec.n_dims:
        raise ConfigError(f"initial: expected a list of {spec.n_dims} positions")
    initial: list[int] = []
    for pos, dim in zip(initial_raw, spec.dims):
        if not isinstance(pos, int) or isinstance(pos, bool) or not 0 <= pos <= dim.size:
            raise ConfigError(f"initial: position {pos!r} out of range 0..{dim.size}")
        initial.append(pos)

    cap = data.get("oracle_cap")
    if cap is not None and (not isinstance(cap, int) or isinstance(cap, bool) or cap < 1):
        raise ConfigError(f"oracle_cap: expected a positive integer, got {cap!r}")

    output_path: str | None = None
    output_format = "csv"
    output = data.get("output")
    if output is not None:
        if not isinstance(output, dict):
            raise ConfigError("output: expected an object with 'path' and 'format'")
        output_path = output.get("path")
        if output_path is not None and not isinstance(output_path, str):
            raise ConfigError("output.path: expected a string")
        output_format = output.get("format", "csv")
        if output_format not in ("csv", "json"):
            raise ConfigError(f"output.format: expected 'csv' or 'json', got {output_format!r}")

    d_sweep: tuple[int, ...] | None = None
    sweep_raw = data.get("d_sweep")
    if sweep_raw is not None:
        if not isinstance(sweep_raw, list) or not sweep_raw:
            raise ConfigError("d_sweep: expected a non-empty list of positive integers")
        for d in sweep_raw:
            if not isinstance(d, int) or isinstance(d, bool) or d < 1:
                raise ConfigError(f"d_sweep: expected positive integers, got {d!r}")
        d_sweep = tuple(sweep_raw)

    return ExperimentConfig(
        spec=spec,
        times=tuple(times),
        initial=tuple(initial),
        oracle_cap=cap,
        output_path=output_path,
        output_format=output_format,
        d_sweep=d_sweep,
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return parse_config(data)


def _fmt(value: float) -> str:
    """CSV numeric format: 17 significant digits, round-trip exact for doubles."""
    return format(float(value), ".17g")


def _write_text(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _resolve_cap(args: argparse.Namespace, config: ExperimentConfig) -> int:
    if getattr(args, "oracle_cap", None) is not None:
        return args.oracle_cap
    env = os.environ.get(ENV_ORACLE_CAP)
    if env is not None:
        try:
            cap = int(env)
        except ValueError as exc:
            raise ConfigError(f"{ENV_ORACLE_CAP}: expected an integer, got {env!r}") from exc
        if cap < 1:
            raise ConfigError(f"{ENV_ORACLE_CAP}: expected a positive integer, got {env!r}")
        return cap
    if config.oracle_cap is not None:
        return config.oracle_cap
    return DEFAULT_ORACLE_CAP


def _resolve_times(args: argparse.Namespace, config: ExperimentConfig) -> tuple[float, ...]:
    raw = getattr(args, "time", None)
    if raw is None:
        return config.times
    times: list[float] = []
    for chunk in raw.split(","):
        try:
            value = float(chunk)
        except ValueError as exc:
            raise ConfigError(f"--time: {chunk!r} is not a real number") from exc
        if not math.isfinite(value):
            raise ConfigError(f"--time: value {value} is not finite")
        times.append(value)
    return tuple(times)


def _resolve_output(args: argparse.Namespace, config: ExperimentConfig) -> tuple[str | None, str]:
    path = getattr(args, "output", None) or config.output_path
    fmt = getattr(args, "format", None) or config.output_format
    return path, fmt


def run_simulate(config: ExperimentConfig, args: argparse.Namespace) -> int:
    cap = _resolve_cap(args, config)
    times = _resolve_times(args, config)
    path, fmt = _resolve_output(args, config)
    spec = config.spec
    spectra = chain_spectra(spec)

    results = []
    for t in times:
        joint = position_distribution(
            spec, spectra, t, config.initial, include_dense=args.dense, oracle_cap=cap
        )
        results.append((t, joint))

    if fmt == "json":
        payload = {
            "initial": list(config.initial),
            "results": [
                {
                    "time": t,
                    "marginals": [f.tolist() for f in joint.factors],
                    **({"dense": joint.dense.tolist()} if joint.dense is not None else {}),
                }
                for t, joint in results
            ],
        }
        _write_text(json.dumps(payload, indent=2) + "\n", path)
        return 0

    rows: list[list[str]] = []
    for t, joint in results:
        for l, factor in enumerate(joint.factors, start=1):
            for pos, prob in enumerate(factor):
                rows.append([_fmt(t), str(l), str(pos), _fmt(prob)])
        if joint.dense is not None:
            for pos, prob in enumerate(joint.dense):
                rows.append([_fmt(t), "joint", str(pos), _fmt(prob)])
    _write_text(_csv_text(["time", "dimension", "position", "probability"], rows), path)
    return 0


def run_verify(config: ExperimentConfig, args: argparse.Namespace) -> int:
    cap = _resolve_cap(args, config)
    times = _resolve_times(args, config)
    path, _ = _resolve_output(args, config)
    spec = config.spec
    # before the factorized all-pairs matrix, which has no cap of its own
    check_oracle_cap(spec.product_size, cap)
    spectra = chain_spectra(spec)

    factorization_err = 0.0
    unitarity = 0.0
    for t in times:
        fact = factorized_transition_matrix(spec, spectra, t)
        full = dense_propagator(spec, t, oracle_cap=cap).matrix
        dense = full.real**2 + full.imag**2
        factorization_err = max(factorization_err, float(np.max(np.abs(fact - dense))))
        unitarity = max(
            unitarity,
            float(np.max(np.abs(full.conj().T @ full - np.eye(full.shape[0])))),
        )
        for q, s in zip(spec.select_prob, spectra):
            u = propagator(s, q * t).matrix
            unitarity = max(
                unitarity, float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
            )

    ortho = orthogonality_defect(spectra, oracle_cap=cap)

    balance = 0.0
    for dim in spec.dims:
        m = build_conditional_matrix(dim)
        pi = stationary_distribution(m)
        pairwise = np.abs(pi[:-1] * np.diag(m, 1) - pi[1:] * np.diag(m, -1))
        balance = max(balance, float(pairwise.max()))
        balance = max(balance, float(np.max(np.abs(pi @ m - pi))))

    report = {
        "theorem1_max_abs_err": factorization_err,
        "orthogonality_defect": ortho,
        "unitarity_defect": unitarity,
        "detailed_balance_defect": balance,
        "tolerance": VERIFY_TOLERANCE,
        "times": list(times),
    }
    passed = all(
        report[key] <= VERIFY_TOLERANCE
        for key in (
            "theorem1_max_abs_err",
            "orthogonality_defect",
            "unitarity_defect",
            "detailed_balance_defect",
        )
    )
    report["pass"] = passed
    _write_text(json.dumps(report, indent=2) + "\n", path)
    return 0 if passed else 1


def run_clt(config: ExperimentConfig, args: argparse.Namespace) -> int:
    times = _resolve_times(args, config)
    path, fmt = _resolve_output(args, config)
    if config.spec.n_dims != 1:
        raise ConfigError("dims: clt requires a single dimension specification")
    if config.d_sweep is None:
        raise ConfigError("d_sweep: required for the clt subcommand")
    if len(times) != 1:
        raise ConfigError("time: clt requires exactly one time value T")
    t = times[0]

    spectrum = dimension_spectrum(config.spec.dims[0])
    factor = transition_row(spectrum, t, config.initial[0])
    _, factor_var = moments(factor)
    if factor_var <= 1e-15:
        raise ConfigError(f"time: per-factor variance is zero at T={t} (degenerate statistic)")

    print(CLT_READING, file=sys.stderr)
    distances = []
    for d in config.d_sweep:
        sum_dist = convolve_sum([factor] * d)
        distances.append(clt_distance(sum_dist, d))
    monotone = all(b < a for a, b in zip(distances, distances[1:]))

    if fmt == "json":
        payload = {
            "reading": CLT_READING,
            "time": t,
            "rows": [
                {"d": d, "kolmogorov_distance": dist}
                for d, dist in zip(config.d_sweep, distances)
            ],
            "monotone_decrease": monotone,
        }
        _write_text(json.dumps(payload, indent=2) + "\n", path)
        return 0

    rows = [[str(d), _fmt(dist)] for d, dist in zip(config.d_sweep, distances)]
    rows.append(["monotone_decrease", "true" if monotone else "false"])
    _write_text(_csv_text(["d", "kolmogorov_distance"], rows), path)
    return 0


def _median_ms(fn, repetitions: int = BENCH_REPETITIONS) -> float:
    samples = []
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def run_bench(config: ExperimentConfig, args: argparse.Namespace) -> int:
    cap = _resolve_cap(args, config)
    times = _resolve_times(args, config)
    path, fmt = _resolve_output(args, config)
    if config.spec.n_dims != 1:
        raise ConfigError("dims: bench requires a single dimension specification")
    if config.d_sweep is None:
        raise ConfigError("d_sweep: required for the bench subcommand")
    t = times[0]
    base = config.spec.dims[0]

    results = []
    for d in config.d_sweep:
        spec = uniform_multi_chain(base, d)
        j = (config.initial[0],) * d
        k = (0,) * d

        def factorized_once(spec=spec, j=j, k=k):
            return transition_prob_factorized(spec, chain_spectra(spec), t, j, k)

        factorized_ms = _median_ms(factorized_once)
        if spec.product_size <= cap:
            dense_ms = _median_ms(lambda spec=spec, j=j, k=k: transition_prob_dense(spec, t, j, k, cap))
        else:
            dense_ms = None
        results.append((spec.product_size, dense_ms, factorized_ms))

    ratios = [dense / fact for _, dense, fact in results if dense is not None and fact > 0]
    speedup_flag = bool(ratios) and max(ratios) >= BENCH_SPEEDUP_FLAG
    fact_times = [fact for _, _, fact in results]
    flat_flag = max(fact_times) <= BENCH_FLAT_FLAG * max(min(fact_times), 1e-9)

    if fmt == "json":
        payload = {
            "time": t,
            "rows": [
                {
                    "product_size": size,
                    "dense_ms": dense if dense is not None else "skipped",
                    "factorized_ms": fact,
                    "ratio": (dense / fact) if dense is not None and fact > 0 else None,
                }
                for size, dense, fact in results
            ],
            "speedup_at_least_10x": speedup_flag,
            "factorized_flat": flat_flag,
        }
        _write_text(json.dumps(payload, indent=2) + "\n", path)
        return 0

    rows = []
    for size, dense, fact in results:
        ratio = _fmt(dense / fact) if dense is not None and fact > 0 else ""
        rows.append([str(size), _fmt(dense) if dense is not None else "skipped", _fmt(fact), ratio])
    rows.append(["speedup_at_least_10x", "true" if speedup_flag else "false", "", ""])
    rows.append(["factorized_flat", "true" if flat_flag else "false", "", ""])
    _write_text(_csv_text(["product_size", "dense_ms", "factorized_ms", "ratio"], rows), path)
    return 0


def run_dump_spectrum(config: ExperimentConfig, args: argparse.Namespace) -> int:
    path, _ = _resolve_output(args, config)
    payload = {
        "dimensions": [
            {"index": idx + 1, "size": dim.size, **dimension_spectrum(dim).to_json_dict()}
            for idx, dim in enumerate(config.spec.dims)
        ]
    }
    _write_text(json.dumps(payload, indent=2) + "\n", path)
    return 0


def run_dump_config(config: ExperimentConfig, args: argparse.Namespace) -> int:
    cap = _resolve_cap(args, config)
    times = _resolve_times(args, config)
    path, fmt = _resolve_output(args, config)
    payload = {
        "dims": [
            {"size": dim.size, "p_table": list(dim.decrease_prob)} for dim in config.spec.dims
        ],
        "select_prob": list(config.spec.select_prob),
        "time": list(times),
        "initial": list(config.initial),
        "oracle_cap": cap,
        "output": {"path": path if path is not None else "-", "format": fmt},
    }
    if config.d_sweep is not None:
        payload["d_sweep"] = list(config.d_sweep)
    _write_text(json.dumps(payload, indent=2) + "\n", path)
    return 0


_COMMANDS = {
    "simulate": run_simulate,
    "verify": run_verify,
    "clt": run_clt,
    "bench": run_bench,
    "dump-spectrum": run_dump_spectrum,
    "dump-config": run_dump_config,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdqw",
        description="Continuous-time quantum walks on multi-dimensional birth-death chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "emit factorized marginals (and optionally the dense joint law)"),
        ("verify", "run the factorized-vs-dense and spectral verification suite"),
        ("clt", "Kolmogorov distance of the standardized sum to the normal law"),
        ("bench", "time the dense oracle against the factorized path"),
        ("dump-spectrum", "emit per-dimension eigensystems as JSON"),
        ("dump-config", "emit the normalized, fully explicit config JSON"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON experiment config")
        cmd.add_argument("--output", help="output path (default: config value or stdout)")
        cmd.add_argument("--format", choices=("csv", "json"), help="output format")
        cmd.add_argument("--oracle-cap", type=int, help="product-space size cap for dense paths")
        cmd.add_argument("--time", help="comma-separated list of time values")
        if name == "simulate":
            cmd.add_argument(
                "--dense", action="store_true", help="also emit the dense joint law"
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        return _COMMANDS[args.command](config, args)
    except json.JSONDecodeError as exc:
        print(
            f"error: config is not valid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())
