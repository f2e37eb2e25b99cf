"""Command-line front end: JSON experiment configs in, CSV/JSON results out.

Subcommands
-----------
simulate       factorized marginals (and optionally the dense joint law) per time value
verify         factorized-vs-dense, orthogonality, eigen-residual, unitarity, balance defects
clt            Kolmogorov distance of the standardized d-fold sum to the normal law, over a d sweep
bench          wall-clock comparison of the dense oracle against the factorized path
dump-spectrum  per-dimension eigenvalues, eigenvectors and log-weights as JSON
dump-config    the resolved, fully explicit config JSON (round-trips to the same chain)

One pipeline serves every subcommand: ``main`` loads the config, ``resolve``
applies the flags and environment once, a ``run_*`` function maps the
resolved config to ``(exit_code, text)``, and ``main`` writes the text.

Exit codes: 0 success, 1 verification failure, 2 config/validation error
(a numerical failure included), 3 over the oracle cap or out of memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from functools import reduce
from itertools import chain

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
    dense_propagator_parts,
    position_distribution,
    propagator_parts,
    transition_matrix_1d,
    transition_prob_dense,
    transition_prob_factorized,
    transition_row,
)
from .errors import NumericalError, SizeLimitError
from .spectral import chain_spectra, dimension_spectrum, orthogonality_defect, symmetrize
from .stats import clt_distance, convolve_sum, moments

ENV_ORACLE_CAP = "BDQW_ORACLE_CAP"
VERIFY_TOLERANCE = 1e-10
BENCH_REPETITIONS = 5
BENCH_SPEEDUP_FLAG = 10.0
BENCH_FLAT_FLAG = 10.0
# Rows of the unitarity Gram formed at once: 2 MiB blocks at 2048 states.
_DEFECT_BLOCK_ROWS = 128

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


def _is_int(value: object) -> bool:
    """Whether a decoded JSON value is an integer; bool is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_reals(values: list, field: str) -> tuple[float, ...]:
    """The one check of every list of reals (``time``, ``--time``, ``select_prob``, ``p_table``).

    Each value must be a finite double: not a string, not a bool.  An error
    names the field and the index of the first bad value.  One pass and no
    function call per value: a chain of 10 000 edges has 10 000 ``select_prob``.
    """
    largest = sys.float_info.max
    reals = []
    for idx, value in enumerate(values):
        if type(value) not in (float, int):  # exact types, so a bool is not a real
            raise ConfigError(f"{field}[{idx}]: expected a real number, got {value!r}")
        if not abs(value) <= largest:  # NaN, +-inf, or an int beyond a double
            raise ConfigError(f"{field}[{idx}]: value {value} is not a finite double")
        reals.append(float(value))
    return tuple(reals)


def _check_cap(value: object, source: str) -> int:
    """The one check of every oracle-cap source: a positive integer."""
    if not _is_int(value) or value < 1:
        raise ConfigError(f"{source}: expected a positive integer, got {value!r}")
    return value


def _check_keys(entry: dict, known: tuple[str, ...], prefix: str = "") -> None:
    """Reject a key the schema does not define, naming its path; a typo is never dropped."""
    for key in entry:
        if key not in known:
            raise ConfigError(f"{prefix}{key}: unknown key, expected one of {', '.join(known)}")


def _parse_dimensions(entries: list) -> tuple[DimensionSpec, ...]:
    """One DimensionSpec per distinct ``dims`` entry, each entry checked for unknown keys.

    Equal entries (by the repr of their size and table, so 1, 1.0 and true
    stay apart) share the spec parsed for the first of them; an invalid
    entry is never shared, so its error names its own dims[idx].
    """
    parsed: dict[tuple[str, str], DimensionSpec] = {}
    dims = []
    for idx, entry in enumerate(entries):
        field = f"dims[{idx}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{field}: expected an object with 'size' and 'p_table'")
        _check_keys(entry, ("size", "p_table"), f"{field}.")
        size, table = entry.get("size"), entry.get("p_table", "ehrenfest")
        key = (repr(size), repr(table))
        if key not in parsed:
            parsed[key] = _parse_dimension(size, table, field)
        dims.append(parsed[key])
    return tuple(dims)


def _parse_dimension(size: object, table: object, field: str) -> DimensionSpec:
    if not _is_int(size) or size < 1:
        raise ConfigError(f"{field}.size: expected a positive integer, got {size!r}")
    if table == "ehrenfest":
        return ehrenfest_dimension(size)
    if not isinstance(table, list):
        raise ConfigError(f"{field}.p_table: expected 'ehrenfest' or a list of probabilities")
    probs = _check_reals(table, f"{field}.p_table")
    try:
        return DimensionSpec(size=size, decrease_prob=probs)
    except ValueError as exc:
        raise ConfigError(f"{field}.p_table: {exc}") from exc


def parse_config(data: object) -> ExperimentConfig:
    """Build an ExperimentConfig from decoded JSON, naming bad fields."""
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be a JSON object")
    _check_keys(data, ("dims", "select_prob", "time", "initial", "oracle_cap", "output", "d_sweep"))

    dims_raw = data.get("dims")
    if not isinstance(dims_raw, list) or not dims_raw:
        raise ConfigError("dims: expected a non-empty list of dimension objects")
    dims = _parse_dimensions(dims_raw)

    select = data.get("select_prob", "uniform")
    if select == "uniform":
        select_prob = (1.0 / len(dims),) * len(dims)
    elif isinstance(select, list):
        select_prob = _check_reals(select, "select_prob")
    else:
        raise ConfigError("select_prob: expected 'uniform' or a list of reals")
    try:
        spec = MultiChainSpec(dims=dims, select_prob=select_prob)
    except ValueError as exc:  # every message reachable here names select_prob
        raise ConfigError(str(exc)) from exc

    times_raw = data.get("time", 1.0)
    times = _check_reals(times_raw if isinstance(times_raw, list) else [times_raw], "time")
    if not times:
        raise ConfigError("time: expected at least one value")

    initial_raw = data.get("initial", [0] * spec.n_dims)
    if not isinstance(initial_raw, list) or len(initial_raw) != spec.n_dims:
        raise ConfigError(f"initial: expected a list of {spec.n_dims} positions")
    initial: list[int] = []
    for pos, dim in zip(initial_raw, spec.dims):
        if not _is_int(pos) or not 0 <= pos <= dim.size:
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
            if not _is_int(d) or d < 1:
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
    DEFAULT_ORACLE_CAP, always to an integer; --time, --output and, where the
    subcommand takes it, --format override their config fields.
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
        times = _check_reals(flag_times, "--time")

    return replace(
        config,
        times=times,
        oracle_cap=cap,
        output_path=args.output or config.output_path,
        output_format=getattr(args, "format", None) or config.output_format,
    )


def _fmt(value: float) -> str:
    """CSV numeric format: 17 significant digits, round-trip exact for doubles."""
    return format(float(value), ".17g")


def _csv_text(header: list[str], rows: Iterable[list[str]]) -> str:
    """The one CSV writer: comma-joined fields, one line per row.

    No field holds a comma, a quote or a line break, and no row is a single
    empty field, so csv.writer would quote nothing and gives the same text.
    """
    return "\n".join(map(",".join, chain([header], rows))) + "\n"


def _table(
    config: ExperimentConfig, head: dict, header: list[str], rows: list[tuple], flags: dict
) -> str:
    """The one writer of the clt and bench reports, in the configured format.

    JSON is ``{**head, "rows": [...], **flags}``, each row an object keyed by
    ``header``.  CSV writes floats with _fmt, None as an empty field and any
    other value with str, then one ``name,true|false`` row per flag, padded
    to the header's width.
    """
    if config.output_format == "json":
        payload = {**head, "rows": [dict(zip(header, row)) for row in rows], **flags}
        return json.dumps(payload, indent=2) + "\n"
    lines = [
        ["" if v is None else _fmt(v) if isinstance(v, float) else str(v) for v in row]
        for row in rows
    ]
    pad = [""] * (len(header) - 2)
    lines.extend([name, "true" if flag else "false", *pad] for name, flag in flags.items())
    return _csv_text(header, lines)


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

    def rows() -> Iterator[list[str]]:  # generated: each row's list goes once it is joined
        for t, marginals, joint in results:
            time_text = _fmt(t)
            laws = [(str(l), law) for l, law in enumerate(marginals, start=1)]
            if joint is not None:
                laws.append(("joint", joint))
            for dim, law in laws:
                for pos, prob in enumerate(law.tolist()):
                    yield [time_text, dim, str(pos), _fmt(prob)]

    return 0, _csv_text(["time", "dimension", "position", "probability"], rows())


def _unitarity_defect(parts: np.ndarray) -> float:
    """Largest |(U^dagger U - I)[a, b]| for U = parts[0] + i parts[1], in real arithmetic.

    With R, I the real and imaginary parts, Re(U^dagger U) = S^T S for the
    stacked (2n x n) slab S = [R; I] and Im(U^dagger U) = R^T I - (R^T I)^T.
    The Gram is Hermitian, so its upper triangle holds every |entry|: three
    gemms per block of _DEFECT_BLOCK_ROWS rows, from the block's diagonal
    on, give the bits of the n x n products in O(n * block) memory.
    """
    n = parts.shape[-1]
    stacked = parts.reshape(2 * n, n)
    re, im = parts
    maxima = []
    for i in range(0, n, _DEFECT_BLOCK_ROWS):
        rows = slice(i, i + _DEFECT_BLOCK_ROWS)
        gram = stacked[:, rows].T @ stacked[:, i:]
        gram.flat[:: n - i + 1] -= 1.0  # the diagonal: column i + r of row r
        cross = re[:, rows].T @ im[:, i:]
        cross -= im[:, rows].T @ re[:, i:]
        maxima.append(np.max(np.hypot(gram, cross, out=cross)))
    return float(np.max(maxima))  # np.max, not max(): a NaN block fails the check


def _dense_defects(
    spec: MultiChainSpec, spectra: tuple, t: float, cap: int
) -> tuple[float, float]:
    """Theorem-1 error and unitarity defect of the dense oracle's U at one time.

    U's real and imaginary parts are one contiguous (2, n, n) slab, the only
    n x n array.  After the unitarity check |U|^2 overwrites it, and the
    factorized law is subtracted in place, each row of the leading factors'
    Kronecker product times the last factor's matrix: np.kron's products, so
    the error matches the tests' Kronecker-product reference bit for bit.
    """
    parts = dense_propagator_parts(spec, spectra, t, oracle_cap=cap)
    unitarity = _unitarity_defect(parts)
    dense = np.square(parts, out=parts)[0]
    dense += parts[1]
    *leading, last = [transition_matrix_1d(s, q * t) for q, s in zip(spec.select_prob, spectra)]
    lead = reduce(np.kron, leading, np.ones((1, 1)))
    blocks = dense.reshape(len(lead), len(last), len(lead), len(last))  # [a, k, b, j]
    for block, row in zip(blocks, lead):
        block -= row[:, None] * last[:, None, :]
    return float(np.max(np.abs(dense, out=dense))), unitarity


def run_verify(config: ExperimentConfig) -> tuple[int, str]:
    spec, cap = config.spec, config.oracle_cap
    # before any spectrum is solved
    check_oracle_cap(spec.product_size, cap)
    spectra = chain_spectra(spec)

    # per-check defects, folded by np.max so that a NaN fails the check
    theorem1, unitarity = [], []
    for t in config.times:
        theorem1_err, dense_unitarity = _dense_defects(spec, spectra, t, cap)
        theorem1.append(theorem1_err)
        unitarity.append(dense_unitarity)
        for q, s in zip(spec.select_prob, spectra):
            unitarity.append(_unitarity_defect(propagator_parts(s, q * t)))

    balance, residual = [], []
    for dim, s in dict(zip(spec.dims, spectra)).items():  # each distinct dimension once
        m = build_conditional_matrix(dim)
        pi = stationary_distribution(m)
        balance.append(np.max(np.abs(pi[:-1] * np.diag(m, 1) - pi[1:] * np.diag(m, -1))))
        balance.append(np.max(np.abs(pi @ m - pi)))
        # the only check that ties the spectra to the kernel: J V = V Lambda
        v = s.eigenvectors
        residual.append(np.max(np.abs(symmetrize(m) @ v - v * s.eigenvalues)))

    defects = {
        "theorem1_max_abs_err": float(np.max(theorem1)),
        "orthogonality_defect": orthogonality_defect(spectra),
        "eigen_residual": float(np.max(residual)),
        "unitarity_defect": float(np.max(unitarity)),
        "detailed_balance_defect": float(np.max(balance)),
    }
    passed = all(value <= VERIFY_TOLERANCE for value in defects.values())  # NaN fails
    report = {**defects, "tolerance": VERIFY_TOLERANCE, "times": list(config.times), "pass": passed}
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
    factor = transition_row(chain_spectra(config.spec)[0], t, config.initial[0])
    _, factor_var = moments(factor)
    if factor_var <= 1e-15:
        raise ConfigError(f"time: per-factor variance is zero at T={t} (degenerate statistic)")

    print(CLT_READING, file=sys.stderr)
    distances = []
    for d in config.d_sweep:
        sum_dist = convolve_sum([factor] * d)
        distances.append(clt_distance(sum_dist))
    monotone = all(b < a for a, b in zip(distances, distances[1:]))
    return 0, _table(
        config,
        {"reading": CLT_READING, "time": t},
        ["d", "kolmogorov_distance"],
        list(zip(config.d_sweep, distances)),
        {"monotone_decrease": monotone},
    )


def _median_ms(fn) -> float:
    samples = []
    for _ in range(BENCH_REPETITIONS):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return sorted(samples)[BENCH_REPETITIONS // 2]  # the median of an odd count


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

    rows = []  # product size, dense ms or "skipped", factorized ms, ratio or None
    for d in config.d_sweep:
        spec = uniform_multi_chain(base, d)
        spectra = chain_spectra(spec)  # both routes are timed given the spectra
        j = (config.initial[0],) * d
        k = (0,) * d
        # each lambda is timed and dropped within its own iteration
        fact = _median_ms(lambda: transition_prob_factorized(spec, spectra, t, j, k))
        if spec.product_size <= cap:
            dense = _median_ms(lambda: transition_prob_dense(spec, spectra, t, j, k, cap))
            rows.append((spec.product_size, dense, fact, dense / fact if fact > 0 else None))
        else:
            rows.append((spec.product_size, "skipped", fact, None))

    ratios = [ratio for *_, ratio in rows if ratio is not None]
    fact_times = [fact for _, _, fact, _ in rows]
    flags = {
        "speedup_at_least_10x": bool(ratios) and max(ratios) >= BENCH_SPEEDUP_FLAG,
        "factorized_flat": max(fact_times) <= BENCH_FLAT_FLAG * max(min(fact_times), 1e-9),
    }
    header = ["product_size", "dense_ms", "factorized_ms", "ratio"]
    return 0, _table(config, {"time": t}, header, rows, flags)


def _json_array(values: np.ndarray, depth: int) -> str:
    """``json.dumps(values.tolist(), indent=2)`` for a non-empty float array ``depth`` levels deep.

    JSON writes each float with float.__repr__, and a list's repr joins those
    same strings with ", ", which no float's repr holds: splitting the repr
    there and joining with the indent gives json's text for finite values.
    """
    pad = "\n" + "  " * (depth + 1)
    if values.ndim == 1:
        items = repr(values.tolist())[1:-1].replace(", ", "," + pad)
    else:
        items = ("," + pad).join(_json_array(row, depth + 1) for row in values)
    return "[" + pad + items + "\n" + "  " * depth + "]"


def _spectrum_entry(dim: DimensionSpec, field: str) -> str:
    """A dimension's spectral keys as JSON text at an entry's depth, from ``"eigenvalues"`` on.

    log_weights, 2 log V[0], is finite where V[0]^2 underflows.  A NumericalError,
    a non-finite value included (JSON has no NaN or infinity), names ``field``.
    """
    try:
        spectrum = dimension_spectrum(dim)
        keys = {
            "eigenvalues": spectrum.eigenvalues,
            "eigenvectors": spectrum.eigenvectors,
            "log_weights": 2.0 * np.log(spectrum.eigenvectors[0]),
        }
        for key, values in keys.items():
            if not np.isfinite(values).all():
                raise NumericalError(f"{key} holds a non-finite value, which JSON cannot write")
    except NumericalError as exc:
        raise NumericalError(f"{field} (size {dim.size}): {exc}") from exc
    return ",".join(f'\n      "{key}": {_json_array(values, 3)}' for key, values in keys.items())


def run_dump_spectrum(config: ExperimentConfig) -> tuple[int, str]:
    """``json.dumps({"dimensions": [entry, ...]}, indent=2) + "\\n"``, written directly.

    Each entry is ``index`` (1-based), ``size``, ``eigenvalues``,
    ``eigenvectors`` (one row per position) and ``log_weights``.  Each
    distinct dimension is solved once and written as soon as it is solved,
    so no spectrum outlives its own text; the float lists are written by
    _json_array, byte for byte as json.dumps writes them, without the encoder.
    """
    tables: dict[DimensionSpec, str] = {}  # an entry's spectral keys, indented to its depth
    parts = ['{\n  "dimensions": [']
    for idx, dim in enumerate(config.spec.dims):
        if dim not in tables:
            tables[dim] = _spectrum_entry(dim, f"dims[{idx}]")
        separator = "," if idx else ""
        parts.append(f'{separator}\n    {{\n      "index": {idx + 1},\n      "size": {dim.size},')
        parts.append(tables[dim])
        parts.append("\n    }")
    parts.append("\n  ]\n}\n")
    return 0, "".join(parts)


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


# name: (run function, help text); simulate's run also takes --dense
_COMMANDS = {
    "simulate": (run_simulate, "emit factorized marginals (and optionally the dense joint law)"),
    "verify": (run_verify, "run the factorized-vs-dense and spectral verification suite"),
    "clt": (run_clt, "Kolmogorov distance of the standardized sum to the normal law"),
    "bench": (run_bench, "time the dense oracle against the factorized path"),
    "dump-spectrum": (run_dump_spectrum, "emit per-dimension eigensystems as JSON"),
    "dump-config": (run_dump_config, "emit the resolved, fully explicit config JSON"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdqw",
        description="Continuous-time quantum walks on multi-dimensional birth-death chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON experiment config")
        cmd.add_argument("--output", help="output path (default: config value or stdout)")
        cmd.add_argument("--oracle-cap", type=int, help="product-space size cap for dense paths")
        cmd.add_argument("--time", help="comma-separated list of time values")
        if name in ("simulate", "clt", "bench"):  # the rest write JSON only
            cmd.add_argument("--format", choices=("csv", "json"), help="output format")
        if run is run_simulate:
            cmd.add_argument(
                "--dense", action="store_true", help="also emit the dense joint law"
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve(load_config(args.config), args)
        run, _ = _COMMANDS[args.command]
        code, text = run(config, args.dense) if "dense" in args else run(config)
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
