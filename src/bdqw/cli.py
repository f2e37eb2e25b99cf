"""Command-line front end: JSON experiment configs in, CSV/JSON results out.

Subcommands
-----------
simulate       factorized marginals (and optionally the dense joint law) per time value
verify         factorized-vs-dense equivalence, orthogonality, unitarity, stationarity defects
clt            Kolmogorov distance of the standardized d-fold sum to the normal law, over a d sweep
bench          wall-clock comparison of the dense oracle against the factorized path
dump-spectrum  per-dimension eigensystem as JSON
dump-config    the resolved, fully explicit config JSON (round-trips to the same chain)

One pipeline serves every subcommand: ``main`` loads the config, ``resolve``
applies the flags and environment once, a ``run_*`` function maps the
resolved config to ``(exit_code, text)``, and ``main`` writes the text.

Exit codes: 0 success, 1 verification failure, 2 config/validation error
(a numerical failure included), 3 over the oracle cap or out of memory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, replace

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
    dense_position_distribution,
    dense_propagator,
    factorized_transition_matrix,
    position_distribution,
    propagator,
    transition_prob_dense,
    transition_prob_factorized,
    transition_row,
)
from .errors import NumericalError, SizeLimitError
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
    oracle_cap: int | None  # an integer once resolved
    output_path: str | None
    output_format: str
    d_sweep: tuple[int, ...] | None


def _is_number(value: object, kind: type | tuple[type, ...] = int) -> bool:
    """Whether a decoded JSON value is a number of ``kind``; bool is not."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_times(values: list, field: str) -> tuple[float, ...]:
    """The one check of config ``time`` and ``--time``: a non-empty list of finite reals."""
    if not values:
        raise ConfigError(f"{field}: expected at least one value")
    for value in values:
        if not _is_number(value, (int, float)):
            raise ConfigError(f"{field}: expected a real number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # NaN, +-inf, or an int beyond a double
            raise ConfigError(f"{field}: value {value} is not a finite double")
    return tuple(float(value) for value in values)


def _check_cap(value: object, source: str) -> int:
    """The one check of every oracle-cap source: a positive integer."""
    if not _is_number(value) or value < 1:
        raise ConfigError(f"{source}: expected a positive integer, got {value!r}")
    return value


def _check_keys(entry: dict, known: tuple[str, ...], prefix: str = "") -> None:
    """Reject a key the schema does not define, naming its path; a typo is never dropped."""
    for key in entry:
        if key not in known:
            raise ConfigError(f"{prefix}{key}: unknown key, expected one of {', '.join(known)}")


def _parse_dimension(entry: object, idx: int) -> DimensionSpec:
    field = f"dims[{idx}]"
    if not isinstance(entry, dict):
        raise ConfigError(f"{field}: expected an object with 'size' and 'p_table'")
    _check_keys(entry, ("size", "p_table"), f"{field}.")
    size = entry.get("size")
    if not _is_number(size) or size < 1:
        raise ConfigError(f"{field}.size: expected a positive integer, got {size!r}")
    table = entry.get("p_table", "ehrenfest")
    if table == "ehrenfest":
        return ehrenfest_dimension(size)
    if not isinstance(table, list):
        raise ConfigError(f"{field}.p_table: expected 'ehrenfest' or a list of probabilities")
    try:
        return DimensionSpec(size=size, decrease_prob=tuple(float(p) for p in table))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{field}.p_table: {exc}") from exc


def parse_config(data: object) -> ExperimentConfig:
    """Build an ExperimentConfig from decoded JSON, naming bad fields."""
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be a JSON object")
    _check_keys(data, ("dims", "select_prob", "time", "initial", "oracle_cap", "output", "d_sweep"))

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
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"select_prob: {exc}") from exc
    else:
        raise ConfigError("select_prob: expected 'uniform' or a list of reals")
    try:
        spec = MultiChainSpec(dims=dims, select_prob=select_prob)
    except ValueError as exc:  # every message reachable here names select_prob
        raise ConfigError(str(exc)) from exc

    times_raw = data.get("time", 1.0)
    times = _check_times(times_raw if isinstance(times_raw, list) else [times_raw], "time")

    initial_raw = data.get("initial", [0] * spec.n_dims)
    if not isinstance(initial_raw, list) or len(initial_raw) != spec.n_dims:
        raise ConfigError(f"initial: expected a list of {spec.n_dims} positions")
    initial: list[int] = []
    for pos, dim in zip(initial_raw, spec.dims):
        if not _is_number(pos) or not 0 <= pos <= dim.size:
            raise ConfigError(f"initial: position {pos!r} out of range 0..{dim.size}")
        initial.append(pos)

    cap = data.get("oracle_cap")
    if cap is not None:
        _check_cap(cap, "oracle_cap")

    output_path: str | None = None
    output_format = "csv"
    output = data.get("output")
    if output is not None:
        if not isinstance(output, dict):
            raise ConfigError("output: expected an object with 'path' and 'format'")
        _check_keys(output, ("path", "format"), "output.")
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
            if not _is_number(d) or d < 1:
                raise ConfigError(f"d_sweep: expected positive integers, got {d!r}")
        d_sweep = tuple(sweep_raw)

    return ExperimentConfig(
        spec=spec,
        times=times,
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


def resolve(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    """Apply the flags and the environment to a parsed config, for every subcommand.

    The oracle cap resolves as --oracle-cap > BDQW_ORACLE_CAP > config field >
    DEFAULT_ORACLE_CAP, always to an integer; --time, --output and --format
    override their config fields.
    """
    env = os.environ.get(ENV_ORACLE_CAP)
    if args.oracle_cap is not None:
        cap = _check_cap(args.oracle_cap, "--oracle-cap")
    elif env is not None:
        try:
            env_cap: object = int(env)
        except ValueError:
            env_cap = env  # rejected below, quoted as given
        cap = _check_cap(env_cap, ENV_ORACLE_CAP)
    else:
        cap = config.oracle_cap or DEFAULT_ORACLE_CAP

    times = config.times
    if args.time is not None:
        try:
            flag_times = [float(chunk) for chunk in args.time.split(",")]
        except ValueError:
            raise ConfigError(f"--time: {args.time!r} is not a list of real numbers") from None
        times = _check_times(flag_times, "--time")

    return replace(
        config,
        times=times,
        oracle_cap=cap,
        output_path=args.output or config.output_path,
        output_format=args.format or config.output_format,
    )


def _fmt(value: float) -> str:
    """CSV numeric format: 17 significant digits, round-trip exact for doubles."""
    return format(float(value), ".17g")


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def run_simulate(config: ExperimentConfig, dense: bool) -> tuple[int, str]:
    spec, j, cap = config.spec, config.initial, config.oracle_cap
    spectra = chain_spectra(spec)
    results = []  # (time, marginals, dense joint law or None)
    for t in config.times:
        joint = dense_position_distribution(spec, spectra, t, j, cap) if dense else None
        results.append((t, position_distribution(spec, spectra, t, j), joint))

    if config.output_format == "json":
        payload = {
            "initial": list(config.initial),
            "results": [
                {
                    "time": t,
                    "marginals": [f.tolist() for f in marginals],
                    **({"dense": joint.tolist()} if joint is not None else {}),
                }
                for t, marginals, joint in results
            ],
        }
        return 0, json.dumps(payload, indent=2) + "\n"

    rows: list[list[str]] = []
    for t, marginals, joint in results:
        for l, factor in enumerate(marginals, start=1):
            for pos, prob in enumerate(factor):
                rows.append([_fmt(t), str(l), str(pos), _fmt(prob)])
        if joint is not None:
            for pos, prob in enumerate(joint):
                rows.append([_fmt(t), "joint", str(pos), _fmt(prob)])
    return 0, _csv_text(["time", "dimension", "position", "probability"], rows)


def run_verify(config: ExperimentConfig) -> tuple[int, str]:
    spec, cap = config.spec, config.oracle_cap
    # before the factorized all-pairs matrix, which has no cap of its own
    check_oracle_cap(spec.product_size, cap)
    spectra = chain_spectra(spec)

    factorization_err = 0.0
    unitarity = 0.0
    for t in config.times:
        fact = factorized_transition_matrix(spec, spectra, t)
        full = dense_propagator(spec, spectra, t, oracle_cap=cap)
        dense = full.real**2 + full.imag**2
        factorization_err = max(factorization_err, float(np.max(np.abs(fact - dense))))
        unitarity = max(
            unitarity,
            float(np.max(np.abs(full.conj().T @ full - np.eye(full.shape[0])))),
        )
        for q, s in zip(spec.select_prob, spectra):
            u = propagator(s, q * t)
            unitarity = max(
                unitarity, float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
            )

    ortho = orthogonality_defect(spectra)

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
        "times": list(config.times),
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
    return (0 if passed else 1), json.dumps(report, indent=2) + "\n"


def _sweep_base(config: ExperimentConfig, command: str) -> tuple[DimensionSpec, float]:
    """The precondition of clt and bench: one dimension, a d_sweep and one time T."""
    if config.spec.n_dims != 1:
        raise ConfigError(f"dims: {command} requires a single dimension specification")
    if config.d_sweep is None:
        raise ConfigError(f"d_sweep: required for the {command} subcommand")
    if len(config.times) != 1:
        raise ConfigError(f"time: {command} requires exactly one time value T")
    return config.spec.dims[0], config.times[0]


def run_clt(config: ExperimentConfig) -> tuple[int, str]:
    base, t = _sweep_base(config, "clt")
    factor = transition_row(dimension_spectrum(base), t, config.initial[0])
    _, factor_var = moments(factor)
    if factor_var <= 1e-15:
        raise ConfigError(f"time: per-factor variance is zero at T={t} (degenerate statistic)")

    print(CLT_READING, file=sys.stderr)
    distances = []
    for d in config.d_sweep:
        sum_dist = convolve_sum([factor] * d)
        distances.append(clt_distance(sum_dist))
    monotone = all(b < a for a, b in zip(distances, distances[1:]))

    if config.output_format == "json":
        payload = {
            "reading": CLT_READING,
            "time": t,
            "rows": [
                {"d": d, "kolmogorov_distance": dist}
                for d, dist in zip(config.d_sweep, distances)
            ],
            "monotone_decrease": monotone,
        }
        return 0, json.dumps(payload, indent=2) + "\n"

    rows = [[str(d), _fmt(dist)] for d, dist in zip(config.d_sweep, distances)]
    rows.append(["monotone_decrease", "true" if monotone else "false"])
    return 0, _csv_text(["d", "kolmogorov_distance"], rows)


def _median_ms(fn) -> float:
    samples = []
    for _ in range(BENCH_REPETITIONS):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def run_bench(config: ExperimentConfig) -> tuple[int, str]:
    base, t = _sweep_base(config, "bench")
    cap = config.oracle_cap
    for d in config.d_sweep:
        try:  # CSV and JSON alike write product sizes through int-to-str
            str(base.n_states**d)
        except ValueError as exc:
            raise ConfigError(
                f"d_sweep: the product size at d={d} has too many digits to write"
            ) from exc

    results = []
    for d in config.d_sweep:
        spec = uniform_multi_chain(base, d)
        spectra = chain_spectra(spec)  # both routes are timed given the spectra
        j = (config.initial[0],) * d
        k = (0,) * d
        # each lambda is timed and dropped within its own iteration
        fact = _median_ms(lambda: transition_prob_factorized(spec, spectra, t, j, k))
        dense = None
        if spec.product_size <= cap:
            dense = _median_ms(lambda: transition_prob_dense(spec, spectra, t, j, k, cap))
        ratio = dense / fact if dense is not None and fact > 0 else None
        results.append((spec.product_size, dense, fact, ratio))

    ratios = [ratio for *_, ratio in results if ratio is not None]
    speedup_flag = bool(ratios) and max(ratios) >= BENCH_SPEEDUP_FLAG
    fact_times = [fact for _, _, fact, _ in results]
    flat_flag = max(fact_times) <= BENCH_FLAT_FLAG * max(min(fact_times), 1e-9)

    if config.output_format == "json":
        payload = {
            "time": t,
            "rows": [
                {
                    "product_size": size,
                    "dense_ms": dense if dense is not None else "skipped",
                    "factorized_ms": fact,
                    "ratio": ratio,
                }
                for size, dense, fact, ratio in results
            ],
            "speedup_at_least_10x": speedup_flag,
            "factorized_flat": flat_flag,
        }
        return 0, json.dumps(payload, indent=2) + "\n"

    rows = []
    for size, dense, fact, ratio in results:
        dense_text = _fmt(dense) if dense is not None else "skipped"
        rows.append([str(size), dense_text, _fmt(fact), _fmt(ratio) if ratio is not None else ""])
    rows.append(["speedup_at_least_10x", "true" if speedup_flag else "false", "", ""])
    rows.append(["factorized_flat", "true" if flat_flag else "false", "", ""])
    return 0, _csv_text(["product_size", "dense_ms", "factorized_ms", "ratio"], rows)


def run_dump_spectrum(config: ExperimentConfig) -> tuple[int, str]:
    payload = {
        "dimensions": [
            {"index": idx + 1, "size": dim.size, **dimension_spectrum(dim).to_json_dict()}
            for idx, dim in enumerate(config.spec.dims)
        ]
    }
    return 0, json.dumps(payload, indent=2) + "\n"


def run_dump_config(config: ExperimentConfig) -> tuple[int, str]:
    """The resolved config; it re-parses to the same chain, times and cap."""
    payload = {
        "dims": [
            {"size": dim.size, "p_table": list(dim.decrease_prob)} for dim in config.spec.dims
        ],
        "select_prob": list(config.spec.select_prob),
        "time": list(config.times),
        "initial": list(config.initial),
        "oracle_cap": config.oracle_cap,
        "output": {"path": config.output_path or "-", "format": config.output_format},
    }
    if config.d_sweep is not None:
        payload["d_sweep"] = list(config.d_sweep)
    return 0, json.dumps(payload, indent=2) + "\n"


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
        ("dump-config", "emit the resolved, fully explicit config JSON"),
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
        config = resolve(load_config(args.config), args)
        run = _COMMANDS[args.command]
        code, text = run(config, args.dense) if args.command == "simulate" else run(config)
        path = config.output_path
        if path is None or path == "-":
            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        return code
    except (SizeLimitError, MemoryError) as exc:
        code, message = 3, str(exc) or "out of memory"
    except json.JSONDecodeError as exc:
        code, message = 2, (
            f"config is not valid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    except (OSError, ValueError, NumericalError) as exc:
        code, message = 2, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


def entrypoint() -> None:
    raise SystemExit(main())
