"""Command-line front end: JSON experiment configs in, CSV/JSON results out.

Subcommands
-----------
simulate       factorized marginals (and optionally the oracle's joint law) per time value
verify         Theorem 1 and norms on Chebyshev probes of H, orthogonality, eigen-residual, balance
clt            Kolmogorov distance of the standardized d-fold sum to the normal law, over a d sweep
bench          wall-clock comparison of the oracle's column against the factorized path
dump-spectrum  per-dimension eigenvalues, eigenvectors and log-weights as JSON
dump-config    the fully explicit config JSON (round-trips to the same config)

One pipeline serves every subcommand: ``main`` loads the config and checks
the two flags, ``--oracle-cap`` and ``--output``, a ``run_*`` function maps
the config (and the cap, where it runs the oracle) to ``(exit_code, chunks)``,
and ``main`` writes the chunks of text as they come to ``--output``.
Each ``run_*`` does every check and evaluation before it returns, so the
chunks only format what was computed.

Exit codes: 0 success, 1 verification failure, 2 config/validation error
(a numerical failure included), 3 over the oracle cap (a product size or, for
verify and simulate --dense, a time |t| above it) or out of memory.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import random
import shutil
import sys
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat

import numpy as np

from .chain import (
    DimensionSpec,
    MultiChainSpec,
    ehrenfest_dimension,
    stationary_distribution,
    step_probabilities,
    uniform_multi_chain,
)
from .ctqw import (
    _PHASE_BUDGET,
    DEFAULT_ORACLE_CAP,
    _chebyshev_propagate,
    _check_oracle_work,
    _factorized_propagate,
    _marginal_laws,
    dense_position_distribution,
    transition_prob_factorized,
    transition_row,
)
from .errors import NumericalError, SizeLimitError
from .spectral import SpectralData, _row_blocks, chain_spectra, orthogonality_defect, symmetrize
from .stats import clt_distance, convolve_sweep, moments

VERIFY_TOLERANCE = 1e-10
BENCH_REPETITIONS = 5
BENCH_SPEEDUP_FLAG = 10.0
BENCH_FLAT_FLAG = 10.0
# Seed of verify's two real probe vectors, whose entries are uniform in [-1, 1).
_PROBE_SEED = 1977

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
    """Parsed experiment description, every default filled in; see README for the JSON schema."""

    spec: MultiChainSpec
    times: tuple[float, ...]
    initial: tuple[int, ...]
    output_format: str
    d_sweep: tuple[int, ...] | None


def _is_int(value: object) -> bool:
    """Whether a decoded JSON value is an integer; bool is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_reals(values: list, field: str) -> tuple[float, ...]:
    """The one check of every list of reals (``time``, ``select_prob``, ``p_table``).

    Each value must be a finite double: not a string, not a bool.  An error
    names the field and the index of the first bad value.  A list of finite
    floats is checked in C: a chain of 10 000 edges has 10 000 ``select_prob``.
    """
    if not (set(map(type, values)) <= {float} and all(map(math.isfinite, values))):
        for idx, value in enumerate(values):
            if type(value) not in (float, int):  # exact types, so a bool is not a real
                raise ConfigError(f"{field}[{idx}]: expected a real number, got {value!r}")
            if not abs(value) <= sys.float_info.max:  # NaN, +-inf, or an int beyond a double
                raise ConfigError(f"{field}[{idx}]: value {value} is not a finite double")
    return tuple(map(float, values))


def _check_times(values: object, spec: MultiChainSpec) -> tuple[float, ...]:
    """The one check of ``time``: a real, or a non-empty list of reals, within the phase budget.

    The budget is ctqw's: a factor's rescaled time q_l t must have
    |q_l t| eps <= _PHASE_BUDGET, so the largest q_l sets it, and a time
    that passes here passes every kernel's check.  No spectrum is needed
    to tell.
    """
    times = _check_reals(values if isinstance(values, list) else [values], "time")
    if not times:
        raise ConfigError("time: expected at least one value")
    top, eps = max(spec.select_prob), sys.float_info.epsilon
    for idx, t in enumerate(times):
        if abs(t) * top * eps > _PHASE_BUDGET:  # rounded as each kernel's time q_l t is
            limit = _PHASE_BUDGET / (eps * top)
            budget = f"|t| <= {limit:.6g}, where |t| max q_l eps is {_PHASE_BUDGET}"
            raise ConfigError(f"time[{idx}]: {t} is beyond the phase budget {budget}")
    return times


def _check_path(path: str) -> str:
    """The one check of ``--output``: a non-empty file name, "-" for stdout."""
    if not path:
        raise ConfigError("--output: expected a file name or '-' for stdout, got ''")
    return path


def _check_positive(value: object, field: str) -> int:
    """The one check of a positive integer: a dimension's size and ``--oracle-cap``."""
    if not _is_int(value) or value < 1:
        raise ConfigError(f"{field}: expected a positive integer, got {value!r}")
    return value


def _check_object(value: object, known: tuple[str, ...], field: str | None = None) -> dict:
    """The one check of a config object: a dict whose keys are all in ``known``.

    ``field`` names a nested object (``dims[i]``, ``output``); None is the
    top level.  A key the schema does not define is rejected by its path, so
    a typo is never dropped.
    """
    if not isinstance(value, dict):
        if field is None:
            raise ConfigError("config: top level must be a JSON object")
        raise ConfigError(f"{field}: expected an object with {' and '.join(map(repr, known))}")
    for key in value:
        if key not in known:
            path = key if field is None else f"{field}.{key}"
            raise ConfigError(f"{path}: unknown key, expected one of {', '.join(known)}")
    return value


def _parse_dimensions(entries: object) -> tuple[DimensionSpec, ...]:
    """One DimensionSpec per distinct ``dims`` entry, each entry checked for unknown keys.

    A run of equal entries, found in C, is checked at its first and shares one
    spec, as do equal runs (by the repr of size and table).  As 1 == 1.0 ==
    true, runs are taken only if every size is an int (no int is a valid
    step probability); an error names its own dims[idx].
    """
    if not isinstance(entries, list) or not entries:
        raise ConfigError("dims: expected a non-empty list of dimension objects")
    ends = range(1, len(entries) + 1)
    if set(map(type, entries)) == {dict}:
        if set(map(type, map(dict.get, entries, repeat("size")))) == {int}:
            ends = [*compress(count(1), map(operator.ne, entries[1:], entries)), len(entries)]
    parsed: dict[tuple[str, str], DimensionSpec] = {}
    dims: list[DimensionSpec] = []
    for idx, end in zip(chain([0], ends), ends):
        entry = _check_object(entries[idx], ("size", "p_table"), f"dims[{idx}]")
        size, table = entry.get("size"), entry.get("p_table", "ehrenfest")
        key = (repr(size), repr(table))
        if key not in parsed:
            field = f"dims[{idx}]"
            size = _check_positive(size, f"{field}.size")
            if table == "ehrenfest":
                parsed[key] = ehrenfest_dimension(size)
            elif not isinstance(table, list):
                raise ConfigError(
                    f"{field}.p_table: expected 'ehrenfest' or a list of probabilities"
                )
            else:
                probs = _check_reals(table, f"{field}.p_table")
                try:
                    parsed[key] = DimensionSpec(size=size, decrease_prob=probs)
                except ValueError as exc:
                    raise ConfigError(f"{field}.p_table: {exc}") from exc
        dims += [parsed[key]] * (end - idx)
    return tuple(dims)


def parse_config(data: object) -> ExperimentConfig:
    """Build an ExperimentConfig from decoded JSON, naming bad fields.

    Every default is filled in here.  A null ``output`` or ``d_sweep`` reads
    as the key's absence.
    """
    keys = ("dims", "select_prob", "time", "initial", "output", "d_sweep")
    _check_object(data, keys)
    dims = _parse_dimensions(data.get("dims"))

    select = data.get("select_prob", "uniform")
    if select == "uniform":
        select = [1.0 / len(dims)] * len(dims)
    if not isinstance(select, list):
        raise ConfigError("select_prob: expected 'uniform' or a list of reals")
    select_prob = _check_reals(select, "select_prob")
    try:
        spec = MultiChainSpec(dims=dims, select_prob=select_prob)
    except ValueError as exc:  # every message reachable here names select_prob
        raise ConfigError(str(exc)) from exc

    times = _check_times(data.get("time", 1.0), spec)

    initial = data.get("initial", [0] * spec.n_dims)
    if not isinstance(initial, list) or len(initial) != spec.n_dims:
        raise ConfigError(f"initial: expected a list of {spec.n_dims} positions")
    sizes = map(operator.attrgetter("size"), dims)
    ints = set(map(type, initial)) == {int}
    if not (ints and min(initial) >= 0 and all(map(operator.le, initial, sizes))):
        for idx, (pos, dim) in enumerate(zip(initial, dims)):  # the first bad position
            if not _is_int(pos):
                raise ConfigError(f"initial[{idx}]: expected an integer position, got {pos!r}")
            if not 0 <= pos <= dim.size:
                raise ConfigError(f"initial: position {pos} out of range 0..{dim.size}")

    output = data.get("output")
    output = _check_object({} if output is None else output, ("format",), "output")
    output_format = output.get("format", "csv")
    if output_format not in ("csv", "json"):
        raise ConfigError(f"output.format: expected 'csv' or 'json', got {output_format!r}")

    sweep = data.get("d_sweep")
    if sweep is not None:
        if not isinstance(sweep, list) or not sweep:
            raise ConfigError("d_sweep: expected a non-empty list of positive integers")
        for d in sweep:
            if not _is_int(d) or d < 1:
                raise ConfigError(f"d_sweep: expected positive integers, got {d!r}")
        sweep = tuple(sweep)

    return ExperimentConfig(spec, times, tuple(initial), output_format, sweep)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A decoded JSON object; a key given twice is rejected by name, never overwritten."""
    data = dict(pairs)
    if len(data) < len(pairs):
        seen: set[str] = set()
        key = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise ConfigError(f"config: duplicate key {key!r}")
    return data


def _decode(text: str) -> object:
    """The decoded JSON ``text``, a key given twice rejected by name (_unique_keys).

    A pair has one colon outside strings: if the top level, ``output`` and the
    dims entries hold a key per colon, none repeats and the plain decode stands.
    """
    try:
        data = json.loads(text)
        objects = chain((data, data.get("output")), data.get("dims", ()))
        if text.count(":") == sum(map(len, filter(dict.__instancecheck__, objects))):
            return data
    except Exception:  # decoded again below, raising what the text raises first
        pass
    return json.loads(text, object_pairs_hook=_unique_keys)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_config(_decode(fh.read()))
        except RecursionError:  # not exit 1, which is a failed verification
            raise ConfigError("config: nested too deeply to parse") from None


# CSV numeric format: 17 significant digits, round-trip exact for doubles.
_FLOAT = ".17g"
# Rows of simulate's CSV formatted as one chunk.
_CSV_BLOCK_ROWS = 4096


def _fmt(value: float) -> str:
    return format(float(value), _FLOAT)


def _csv_text(header: list[str], rows: Iterable[list[str]]) -> str:
    """The CSV text of a table: comma-joined fields, one line per row.

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


def run_simulate(config: ExperimentConfig, cap: int, dense: bool) -> tuple[int, Iterable[str]]:
    """Marginals (and with ``dense`` the oracle's joint law) at every configured time.

    With ``dense``, the product size and every |t| are checked against the
    oracle cap ``cap`` before any spectrum is solved.  Every time is
    evaluated before anything is formatted, so any failure comes first.  A
    time's marginals are one array, each dimension's law its next n_l
    values.  The CSV is then a generator: the header, then the
    ``time,dimension,position,probability`` rows in blocks of
    _CSV_BLOCK_ROWS, each one %-format of a template of its rows' labels,
    built once per call, with the time's text and the probabilities in
    _fmt's format; so the report is never held as text.  JSON is one chunk.
    """
    spec, j = config.spec, config.initial
    if dense:
        _check_oracle_work(spec.product_size, config.times, cap, "time")
    spectra = chain_spectra(spec)
    joints = [dense_position_distribution(spec, t, j, cap) if dense else None for t in config.times]
    results = list(zip(config.times, _marginal_laws(spec, spectra, config.times, j), joints))

    def split(marginals: np.ndarray) -> Iterator[list[float]]:
        """Each dimension's law, in order: the next n_l values of a time's marginals."""
        values = iter(marginals.tolist())
        return (list(islice(values, n)) for n in spec.shape)

    if config.output_format == "json":
        payload = {
            "initial": list(config.initial),
            "results": [
                {
                    "time": t,
                    "marginals": list(split(marginals)),
                    **({"dense": joint.tolist()} if joint is not None else {}),
                }
                for t, marginals, joint in results
            ],
        }
        return 0, [json.dumps(payload, indent=2) + "\n"]

    def blocks() -> Iterator[str]:
        yield "time,dimension,position,probability\n"
        # dimension l's rows: str(l) joined onto ["", ",0,%.17g\n", ...], in C
        tails = {n: ["", *(f",{k},%{_FLOAT}\n" for k in range(n))] for n in set(spec.shape)}
        labels = map(str, range(1, spec.n_dims + 1))
        rows = "".join(map(str.join, labels, map(tails.get, spec.shape))).split("\n")[:-1]
        if dense:
            rows += [f"joint,{k},%{_FLOAT}" for k in range(spec.product_size)]
        step = _CSV_BLOCK_ROWS
        templates = ["\n".join(rows[i : i + step]) for i in range(0, len(rows), step)]
        del rows  # the templates hold the same text in a fifth of the memory
        for t, marginals, joint in results:
            values = marginals if joint is None else np.concatenate((marginals, joint))
            head = _fmt(t) + ","  # the time's text, put into each block's template
            for i, template in enumerate(templates):
                numbers = values[i * step : (i + 1) * step].tolist()
                yield (head + template.replace("\n", "\n" + head) + "\n") % tuple(numbers)

    return 0, blocks()


def _probes(shape: tuple[int, ...]) -> np.ndarray:
    """verify's two real probe vectors, stacked: shape ``(2,) + shape``, entries in [-1, 1).

    Each entry is 53 bits of ``random.Random(_PROBE_SEED).randbytes``, read
    as a little-endian uint64, times 2^-52, minus 1: exact in a double.  The
    standard library's generator spares the import of numpy.random, and one
    bytes object makes no Python object per entry.
    """
    count = 2 * math.prod(shape)
    words = np.frombuffer(random.Random(_PROBE_SEED).randbytes(8 * count), dtype="<u8")
    bits = words >> np.uint64(11)
    del words  # and with it the bytes, so at most 16 bytes per entry are held
    probes = bits * 2.0**-52
    probes -= 1.0
    return probes.reshape((2,) + shape)


def _balance_defects(dim: DimensionSpec) -> tuple[np.ndarray, np.ndarray]:
    """The pairwise and global balance defects of pi, in O(n) from the step arrays.

    pi_k up_k - pi_{k+1} down_k for each step, and pi P - pi, where
    (pi P)_k = pi_{k-1} up_{k-1} + pi_{k+1} down_k.
    """
    (up, down), pi = step_probabilities(dim), stationary_distribution(dim)
    flow = np.append(0.0, pi[:-1] * up) + np.append(pi[1:] * down, 0.0)
    return pi[:-1] * up - pi[1:] * down, flow - pi


def run_verify(config: ExperimentConfig, cap: int) -> tuple[int, list[str]]:
    """The five defects at every configured time, and whether each is within VERIFY_TOLERANCE.

    Theorem 1 is checked as the operator identity e^{itH} = (x)_l e^{i q_l t J_l}
    on two fixed real probe vectors (Freivalds, 1977), which fix a
    complex-linear operator as complex ones would: the left side by
    Chebyshev propagation of H, which reads the kernels J_l and no
    eigenpair, as its even and odd sums, even + i odd; the right side one
    dimension's propagator at a time.  ``unitarity_defect`` is the
    norm check of the right side on the same probes, max |(|y| / |x|)^2 - 1|
    with y = (x)_l U_l x.  The product size and every |t| are checked
    against the oracle cap ``cap`` before any spectrum is solved.
    """
    spec = config.spec
    _check_oracle_work(spec.product_size, config.times, cap, "time")
    spectra = chain_spectra(spec)

    # per-check defects, folded by np.max so that a NaN fails the check
    balance, residual = [], []
    for l in spec.distinct[0]:  # once per distinct dimension
        balance.extend(np.max(np.abs(defect)) for defect in _balance_defects(spec.dims[l]))
        # J V = V Lambda ties the spectra to the kernel, as the probe check below
        # does; read a column block at a time, so no n x n temporary is made
        tri, v, lam = symmetrize(spec.dims[l]), spectra[l].eigenvectors, spectra[l].eigenvalues
        for cols in _row_blocks(v.shape[1]):
            residual.append(np.max(np.abs(tri @ v[:, cols] - v[:, cols] * lam[cols])))

    probes = _probes(spec.shape)
    norms = np.linalg.norm(probes.reshape(2, -1), axis=1)
    theorem1, unitarity = [], []
    for t in config.times:
        even, odd = _chebyshev_propagate(spec, probes.reshape(2, -1), t)
        left = (even + 1j * odd).reshape(probes.shape)
        right = _factorized_propagate(spec, spectra, probes, t)
        theorem1.append(np.max(np.abs(left - right)))
        ratios = np.linalg.norm(right.reshape(2, -1), axis=1) / norms  # a unitary keeps each norm
        unitarity.append(np.max(np.abs(ratios * ratios - 1.0)))

    defects = {
        "theorem1_max_abs_err": float(np.max(theorem1)),
        "orthogonality_defect": orthogonality_defect(spectra),
        "eigen_residual": float(np.max(residual)),
        "unitarity_defect": float(np.max(unitarity)),
        "detailed_balance_defect": float(np.max(balance)),
    }
    passed = all(value <= VERIFY_TOLERANCE for value in defects.values())  # NaN fails
    report = {**defects, "tolerance": VERIFY_TOLERANCE, "times": list(config.times), "pass": passed}
    return (0 if passed else 1), [json.dumps(report, indent=2) + "\n"]


def _sweep_base(config: ExperimentConfig, command: str) -> tuple[DimensionSpec, float]:
    """The precondition of clt and bench: one dimension, a d_sweep and one time T."""
    if config.spec.n_dims != 1:
        raise ConfigError(f"dims: {command} requires a single dimension specification")
    if config.d_sweep is None:
        raise ConfigError(f"d_sweep: required for the {command} subcommand")
    if len(config.times) != 1:
        raise ConfigError(f"time: {command} requires exactly one time value T")
    return config.spec.dims[0], config.times[0]


def run_clt(config: ExperimentConfig) -> tuple[int, list[str]]:
    """Kolmogorov distance of each d's standardized sum law to the normal law.

    Before anything is computed, every d is checked to give a law whose
    d * size + 1 doubles fit in the bytes an array can address.  The laws
    come one at a time from one squaring table (convolve_sweep), and each is
    dropped once its distance is taken: map holds no law across the next
    convolution.
    """
    base, t = _sweep_base(config, "clt")
    for d in config.d_sweep:
        if 8 * (d * base.size + 1) > sys.maxsize:
            raise ConfigError(f"d_sweep: the sum law at d={d} is larger than an array can be")
    factor = transition_row(chain_spectra(config.spec)[0], t, config.initial[0])
    _, factor_var = moments(factor)
    if factor_var <= 1e-15:
        raise ConfigError(f"time: per-factor variance is zero at T={t} (degenerate statistic)")

    print(CLT_READING, file=sys.stderr)
    distances = list(map(clt_distance, convolve_sweep(factor, config.d_sweep)))
    monotone = all(b < a for a, b in zip(distances, distances[1:]))
    return 0, [
        _table(
            config,
            {"reading": CLT_READING, "time": t},
            ["d", "kolmogorov_distance"],
            list(zip(config.d_sweep, distances)),
            {"monotone_decrease": monotone},
        )
    ]


def _median_ms(fn) -> float:
    samples = []
    for _ in range(BENCH_REPETITIONS):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return sorted(samples)[BENCH_REPETITIONS // 2]  # the median of an odd count


def _too_many_digits(n: int, d: int) -> bool:
    """Whether n**d, a product size, has more digits than int-to-str writes (CSV and JSON alike).

    Decided from d log10(n), without building the integer: n**d has
    floor(d log10(n)) + 1 digits.  Only within a digit of the limit, where
    rounding could decide, is the integer built, and there it is cheap.
    The limit is sys.get_int_max_str_digits(); 0, or its absence before
    Python 3.10.7, means none.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = d * math.log10(n) + 1
    if not limit or abs(digits - limit) > 1:  # rounding cannot decide
        return limit > 0 and digits > limit
    try:
        str(n**d)
    except ValueError:
        return True
    return False


def run_bench(config: ExperimentConfig, cap: int) -> tuple[int, list[str]]:
    base, t = _sweep_base(config, "bench")
    for d in config.d_sweep:
        if _too_many_digits(base.n_states, d):
            raise ConfigError(f"d_sweep: the product size at d={d} has too many digits to write")

    rows = []  # product size, dense ms or "skipped", factorized ms, ratio or None
    for d in config.d_sweep:
        spec = uniform_multi_chain(base, d)
        spectra = chain_spectra(spec)  # both routes are timed given the spectra
        j = (config.initial[0],) * d
        k = (0,) * d
        # each lambda is timed and dropped within its own iteration
        fact = _median_ms(lambda: transition_prob_factorized(spec, spectra, t, j, k))
        # the column checks the size and |T| against the cap before any work;
        # k = (0, ..., 0) is its element 0
        try:
            dense = _median_ms(lambda: dense_position_distribution(spec, t, j, cap)[0])
        except SizeLimitError:
            rows.append((spec.product_size, "skipped", fact, None))
            continue
        rows.append((spec.product_size, dense, fact, dense / fact if fact > 0 else None))

    ratios = [ratio for *_, ratio in rows if ratio is not None]
    fact_times = [fact for _, _, fact, _ in rows]
    flags = {
        "speedup_at_least_10x": bool(ratios) and max(ratios) >= BENCH_SPEEDUP_FLAG,
        "factorized_flat": max(fact_times) <= BENCH_FLAT_FLAG * max(min(fact_times), 1e-9),
    }
    header = ["product_size", "dense_ms", "factorized_ms", "ratio"]
    return 0, [_table(config, {"time": t}, header, rows, flags)]


def _mirrored_repr(row: np.ndarray, flip: bool) -> str:
    """``repr(row.tolist())[1:-1]`` for a row whose second half mirrors its first.

    ``row[n - 1 - j]`` is ``row[j]``, negated if ``flip``, for j < n // 2, so
    only the first half and the middle entry of an odd n are formatted: the
    second half's strings are the first half's reversed, each minus sign
    toggled if ``flip``, which float.__repr__ writes for -x as "-" + repr(x),
    a zero included.
    """
    half = row.size // 2
    middle = [repr(float(row[half]))] if row.size % 2 else []
    if not half:
        return middle[0]
    first = repr(row[:half].tolist())[1:-1]
    second = ", ".join(first.split(", ")[::-1])
    if flip:  # ", -" and ", " swap, with a NUL, which no float's repr holds, between
        second = (", " + second).replace(", -", "\0").replace(", ", ", -").replace("\0", ", ")[2:]
    return ", ".join([first, *middle, second])


def _json_array(values: np.ndarray, depth: int, sign: float | np.ndarray) -> Iterator[str]:
    """``json.dumps(values.tolist(), indent=2)`` for a mirrored float array ``depth`` levels deep.

    Along its last axis the array's second half mirrors its first, times
    ``sign``: a float for a 1-D array, a column of one sign per row for a
    2-D one (see _spectrum_keys).  Yields the text in chunks: a 1-D array is
    one chunk, a 2-D array one chunk per row and one per separator.  JSON
    writes each float with float.__repr__, and a list's repr joins those same
    strings with ", ", which no float's repr holds: splitting the repr there
    and joining with the indent gives json's text for finite values.
    """
    pad, end = "\n" + "  " * (depth + 1), "\n" + "  " * depth + "]"
    if values.ndim == 1:
        yield "[" + pad + _mirrored_repr(values, sign < 0).replace(", ", "," + pad) + end
        return
    separator = "["
    for row, row_sign in zip(values, sign[:, 0]):
        yield separator + pad
        yield from _json_array(row, depth + 1, row_sign)
        separator = ","
    yield end


def _spectrum_keys(
    spectrum: SpectralData, name: str
) -> dict[str, tuple[np.ndarray, float | np.ndarray]]:
    """A dimension's spectral keys in the order they are written, each with its mirror sign.

    The spectrum is chiral (see bdqw.spectral): eigenvalues[n - 1 - j] ==
    -eigenvalues[j], column n - 1 - j of the eigenvectors is S = diag((-1)^k)
    times column j, and so log_weights, 2 log V[0], is mirrored with sign 1.
    Each key is checked finite (JSON has no NaN or infinity) and mirrored bit
    for bit, and the first components must be normal doubles: from about
    N = 2045 the urn's smallest, 2^(-N/2), is subnormal, and its log-weight
    keeps fewer than 53 bits.  A failed check raises NumericalError prefixed
    with ``name``.
    """
    vectors = spectrum.eigenvectors
    half = vectors.shape[0] // 2
    keys = {
        "eigenvalues": (spectrum.eigenvalues, -1.0),
        "eigenvectors": (vectors, np.where(np.arange(vectors.shape[0]) % 2, -1.0, 1.0)[:, None]),
        "log_weights": (2.0 * np.log(vectors[0]), 1.0),
    }
    for key, (values, sign) in keys.items():
        if not np.isfinite(values).all():
            raise NumericalError(f"{name}: {key} holds a non-finite value, which JSON cannot write")
        mirror = sign * values[..., ::-1][..., :half]  # -x flips only the sign bit, of a zero too
        if not np.array_equal(mirror.view(np.int64), values[..., :half].view(np.int64)):
            raise NumericalError(f"{name}: {key} is not mirrored, which the spectrum's symmetry requires")
    if not float(vectors[0].min()) >= np.finfo(float).tiny:
        raise NumericalError(
            f"{name}: log_weights would come from the subnormal first component "
            f"{float(vectors[0].min())!r}, which keeps fewer than 53 bits"
        )
    return keys


def run_dump_spectrum(config: ExperimentConfig) -> tuple[int, Iterable[str]]:
    """``json.dumps({"dimensions": [entry, ...]}, indent=2) + "\\n"``, streamed.

    Each entry is ``index`` (1-based), ``size``, ``eigenvalues``,
    ``eigenvectors`` (one row per position) and ``log_weights``.  Every
    distinct dimension is solved and checked first, so a failure writes
    nothing; the chunks then give the text as it is formatted, one
    eigenvector row at a time, so the peak is the solved arrays and a row of
    text.  A repeated dimension is solved once, and each of its entries is
    written from the same arrays.  The float lists are written by
    _json_array, byte for byte as json.dumps writes them, without the
    encoder, and each mirrored pair's floats are formatted once.
    """
    dims, (first, index) = config.spec.dims, config.spec.distinct
    spectra = chain_spectra(config.spec)
    keys = [_spectrum_keys(spectra[l], f"dims[{l}] (size {dims[l].size})") for l in first]

    def chunks() -> Iterator[str]:
        yield '{\n  "dimensions": ['
        for idx, (dim, i) in enumerate(zip(dims, index)):
            separator = "," if idx else ""
            yield f'{separator}\n    {{\n      "index": {idx + 1},\n      "size": {dim.size}'
            for key, (values, sign) in keys[i].items():
                yield f',\n      "{key}": '
                yield from _json_array(values, 3, sign)
            yield "\n    }"
        yield "\n  ]\n}\n"

    return 0, chunks()


def run_dump_config(config: ExperimentConfig) -> tuple[int, list[str]]:
    """The config, every field explicit; parse_config reads it back to an equal config."""
    payload = {
        "dims": [{"size": d.size, "p_table": list(d.decrease_prob)} for d in config.spec.dims],
        "select_prob": list(config.spec.select_prob),
        "time": list(config.times),
        "initial": list(config.initial),
        "output": {"format": config.output_format},
        **({} if config.d_sweep is None else {"d_sweep": list(config.d_sweep)}),
    }
    return 0, [json.dumps(payload, indent=2) + "\n"]


# name: (run function, help text); the runs of the oracle (simulate, verify and
# bench) also take the cap, and simulate's --dense
_COMMANDS = {
    "simulate": (run_simulate, "emit factorized marginals (and optionally the oracle's joint law)"),
    "verify": (run_verify, "check Theorem 1 on Chebyshev probes of H, and the spectral defects"),
    "clt": (run_clt, "Kolmogorov distance of the standardized sum to the normal law"),
    "bench": (run_bench, "time the oracle's column against the factorized path"),
    "dump-spectrum": (run_dump_spectrum, "emit per-dimension eigensystems as JSON"),
    "dump-config": (run_dump_config, "emit the fully explicit config JSON"),
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
        cmd.add_argument("--output", default="-", help="output path (default: - for stdout)")
        cmd.add_argument(
            "--oracle-cap",
            type=int,
            default=DEFAULT_ORACLE_CAP,
            help="cap on the oracle's product-space size and on |t| (default: %(default)s)",
        )
        if run is run_simulate:
            cmd.add_argument(
                "--dense", action="store_true", help="also emit the oracle's joint law"
            )
    return parser


def _write_file(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks to ``path`` whole or not at all.

    A regular file, or a new one, is written beside itself under a temporary
    name and renamed onto ``path`` (keeping an existing file's mode) once
    every chunk is written; if formatting fails part way (out of memory), the
    temporary file is removed and ``path`` is left as it was.  A device or a
    pipe is written directly through ``path`` as given, since ``/dev/stdout``
    on a pipe resolves to ``/proc/<pid>/fd/pipe:[...]``, beside which no file
    can be made.  A path that names an open descriptor (``/dev/stdout``,
    ``/dev/stderr``, ``/dev/fd/N``, ``/proc/self/fd/N``) is written through
    that descriptor, at its offset: the file a shell redirected it to may
    hold what the shell wrote before, as after ``>> log`` or in
    ``{ echo header; bdqw ...; } > f``, which opening or replacing the file
    would lose.  A symbolic link to a regular file is followed, and the
    temporary file renamed onto its target.  A path that cannot be opened or
    written (a descriptor open only for reading, a full disk) is named as
    given in the error, not as its descriptor or temporary file.
    """
    aliases = {"/dev/stdout": "/dev/fd/1", "/dev/stderr": "/dev/fd/2"}
    head, _, tail = aliases.get(path, path).rpartition("/")
    fd = int(tail) if head in ("/dev/fd", "/proc/self/fd") and tail.isdecimal() else None
    direct = fd is not None or os.path.exists(path) and not os.path.isfile(path)
    target = os.path.realpath(path)
    partial = f"{target}.{os.getpid()}.tmp"
    file, mode = (path if fd is None else fd, "w") if direct else (partial, "x")
    try:  # a failure names the path as given, not its descriptor or temporary file
        fh = open(file, mode, encoding="utf-8", newline="", closefd=fd is None)
        if direct:
            with fh:
                fh.writelines(chunks)
            return
        try:
            with fh:
                fh.writelines(chunks)
            if os.path.exists(target):
                shutil.copymode(target, partial)
            os.replace(partial, target)
        except BaseException:
            os.unlink(partial)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code.

    The run function checks and evaluates everything before the output is
    opened, so a run that fails on its input, its numerics or the cap (exit 2
    or 3) writes nothing; the report is then written chunk by chunk, as it is
    formatted, to ``--output`` (renamed into place once whole, see
    _write_file) or to stdout, where a failure while formatting (out of
    memory) leaves what was written before it.
    """
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        cap, path = _check_positive(args.oracle_cap, "--oracle-cap"), _check_path(args.output)
        run, _ = _COMMANDS[args.command]
        if run in (run_clt, run_dump_spectrum, run_dump_config):  # none runs the oracle
            code, chunks = run(config)
        else:
            code, chunks = run(config, cap, args.dense) if "dense" in args else run(config, cap)
        if path == "-":
            sys.stdout.writelines(chunks)
        else:
            _write_file(path, chunks)
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
    """Run ``main`` on the command line as a Unix filter.

    A reader that closes the pipe early (``bdqw simulate ... | head -1``)
    ends the process by SIGPIPE, as it ends any Unix filter, instead of an
    OSError reported as exit 2.  ``signal`` is imported here, so that
    importing the module for ``main`` does not pay for it (about 1 ms).
    """
    import signal

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())
