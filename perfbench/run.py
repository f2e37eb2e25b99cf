"""End-to-end benchmark of the bdqw command line, with an optional traced run.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: every CLI call runs in a fresh Python process
(``child.py``), started only after the previous one has exited, because CLI
users pay imports and spectra on every invocation and no process-lifetime
cache may carry over between calls.  One pass runs the workload's calls in
order; passes repeat while the next one is expected to end within S seconds.
Every output is checked against a closed form (``checks.py``) and, on the
first pass, every checker must also reject perturbed copies of it.

Before and after each call the runner also times ``calibrate.py``, fixed
work in a fresh process, and rescales the call's times by them (see
CALIBRATION_S): on a shared host the speed of fresh processes drifts by tens
of percent within seconds to minutes, which would otherwise swamp a change's
effect.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: end-to-end medians over passes with --trace 0;
with --trace 1, per-layer medians over traced passes, which alternate with
untraced ones so the tracing overhead is measured in the same run.  The line
before it records the seed, the calls, the machine, every raw sample and the
unscaled medians and, when traced, each module's share of self time.

Run from anywhere inside a checkout; it reads the package from ``src`` and
writes only a scratch directory under the checkout root, removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CALL_TIMEOUT_S = 150.0
# Wall time of calibrate.py on a 2-vCPU Intel Xeon at 2 GHz.  Each call's
# times are rescaled by CALIBRATION_S over the calibrations around it, so
# they read as seconds at that machine's speed whatever the host's drift.
CALIBRATION_S = 0.25

# Per-layer metric -> the end-to-end metric and workload it should move
# (the subcommand whose time carries it in parentheses).
PREDICTIONS = {
    "spectral.eigendecompose.self_ms": "pass_s on urn-deep (simulate, dump-spectrum); flat on clt-sweep",
    "spectral.validate.self_ms": "pass_s on urn-deep (simulate, dump-spectrum); flat on clt-sweep",
    "spectral.dimension_spectrum.calls": "pass_s on edge-swarm (simulate, bench); none on urn-deep",
    "spectral.distinct_dims": "input property; with .calls it bounds a memo's gain on edge-swarm",
    "spectral.useful_ratio": "pass_s on edge-swarm (simulate, bench); 1 on urn-deep",
    "spectral.symmetrize.self_ms": "pass_s on oracle-verify (verify)",
    "spectral.orthogonality_defect.self_ms": "pass_s on oracle-verify (verify)",
    "ctqw.factor.self_ms": "pass_s on edge-swarm (simulate, bench)",
    "ctqw.factor_evals": "pass_s on edge-swarm (simulate, bench)",
    "ctqw.product.self_ms": "pass_s on edge-swarm (simulate, bench)",
    "ctqw.dense.self_ms": "pass_s, peak_rss_mib on oracle-verify (verify); none on urn-deep",
    "ctqw.dense.builds": "pass_s, peak_rss_mib on oracle-verify (verify); none on urn-deep",
    "ctqw.dense.bytes_computed": "pass_s, peak_rss_mib on oracle-verify (verify); none on urn-deep",
    "stats.convolve_sum.self_ms": "pass_s on clt-sweep (clt) only",
    "stats.convolve.madds_computed": "pass_s on clt-sweep (clt) only",
    "stats.clt_distance.self_ms": "pass_s on clt-sweep (clt) only",
    "stats.cdf_evals": "pass_s on clt-sweep (clt) only",
    "cli.self_ms": "pass_s on urn-deep (dump-spectrum) and edge-swarm (simulate)",
    "cli.output_bytes": "pass_s on urn-deep (dump-spectrum) and edge-swarm (simulate)",
    "chain.self_ms": "nothing; kept so that work moved into chain shows",
    "chain.calls": "nothing; kept so that work moved into chain shows",
    "trace.overhead_ratio": "none; traced over untraced pass_s in the same run",
}


def _declared_units() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric units as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def machine_facts() -> dict:
    """Facts that bound how results compare across machines (read only)."""
    import numpy as np
    import scipy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine_settings_changed": False,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu_model"] = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                facts[f"l{level}_cache"] = (index / "size").read_text().strip()
        except OSError:
            pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    facts["blas"] = {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "config": blas.get("openblas configuration"),
        "threads": _blas_threads(np),
    }
    return facts


def _blas_threads(np) -> int | None:
    """OpenBLAS's thread count as numpy's bundled library reports it."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


class Runner:
    """Runs passes of one workload and keeps every sample."""

    def __init__(self, calls: list[workloads.Call], work: Path) -> None:
        self.calls = calls
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        for i, call in enumerate(calls):
            (work / f"config{i}.json").write_text(json.dumps(call.config))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.setup_s: list[float] = []
        self.raw_setup_s: list[float] = []
        self.calibration_s: list[float] = []
        self.self_tested = False

    def _spawn(self, cmd: list[str]) -> tuple[subprocess.CompletedProcess, float]:
        """Run ``cmd`` in a fresh process; returns it and its wall seconds.

        stderr is piped so the wait ends when the child closes it on exit;
        without a pipe, waiting with a timeout polls at up to 50 ms and
        quantizes the wall time.
        """
        start = time.perf_counter()
        proc = subprocess.run(
            cmd,
            env=self.env,
            cwd=self.work,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=CALL_TIMEOUT_S,
        )
        return proc, time.perf_counter() - start

    def calibrate(self) -> float:
        """Wall seconds of the fixed calibration program in a fresh process."""
        proc, wall = self._spawn([sys.executable, str(HERE / "calibrate.py")])
        if proc.returncode != 0:
            raise RuntimeError(f"calibrate.py failed: {proc.stderr.decode(errors='replace')}")
        self.calibration_s.append(wall)
        return wall

    def _call(self, i: int, call: workloads.Call, trace: bool) -> dict | None:
        """One fresh-process CLI call; returns its record, or None if it failed."""
        output = self.work / f"output{i}"
        result = self.work / f"result{i}.json"
        for path in (output, result):
            path.unlink(missing_ok=True)
        cmd = [
            sys.executable,
            str(HERE / "child.py"),
            str(result),
            "1" if trace else "0",
            "--",
            *call.args,
            "--config",
            str(self.work / f"config{i}.json"),
            "--output",
            str(output),
        ]
        self.attempted += 1
        try:
            proc, wall = self._spawn(cmd)
        except subprocess.TimeoutExpired:
            return self._fail(f"{call.label}: timed out after {CALL_TIMEOUT_S} s")
        if proc.returncode != 0 or not result.exists():
            err = proc.stderr.decode(errors="replace").strip()[-500:]
            return self._fail(f"{call.label}: child exited {proc.returncode}: {err}")
        record = json.loads(result.read_text())
        if record["code"] != 0 or not output.is_file():
            return self._fail(f"{call.label}: bdqw exited {record['code']}")
        text = output.read_text()
        try:
            parsed = checks.check(call.check, call.config, text)
        except checks.CheckFailed as exc:
            return self._fail(f"{call.label}: {exc}")
        if not self.self_tested:
            for accepted in checks.self_test(call.check, call.config, parsed):
                self.errors.append(f"self-test: checker accepted {accepted}")
        record["wall_s"] = wall
        record["output_bytes"] = len(text.encode())
        return record

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        return None

    def run_pass(self, trace: bool) -> dict | None:
        """One pass over the calls; None when any call failed.

        Calibrations bracket every call, and the call's times are rescaled by
        CALIBRATION_S over the mean of the two around it.
        """
        records = []
        before = self.calibrate()
        for i, call in enumerate(self.calls):
            record = self._call(i, call, trace)
            after = self.calibrate()
            if record is not None:
                record["scale"] = CALIBRATION_S / (0.5 * (before + after))
                self.setup_s.append(record["setup_s"] * record["scale"])
                self.raw_setup_s.append(record["setup_s"])
            records.append(record)
            before = after
        self.self_tested = True
        if any(r is None for r in records):
            return None
        out = {
            "pass_s": sum(r["wall_s"] * r["scale"] for r in records),
            "raw_pass_s": sum(r["wall_s"] for r in records),
            "peak_rss_mib": max(r["peak_rss_mib"] for r in records),
            "call_s": [r["wall_s"] for r in records],
        }
        if trace:
            merged: dict[str, dict] = {}
            for r in records:
                for name, entry in r["spans"].items():
                    into = merged.setdefault(name, {})
                    for key, value in entry.items():
                        into[key] = into.get(key, 0) + value
            out["layers"] = spans.layer_metrics(merged)
            out["layers"]["cli.output_bytes"] = sum(r["output_bytes"] for r in records)
            out["shares"] = spans.layer_shares(merged)
        return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "bdqw" / "cli.py").is_file():
        print(f"error: no bdqw package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    end_to_end_units, per_layer_units = _declared_units()

    calls = workloads.generate(args.workload, args.seed)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    plain: list[dict] = []
    traced: list[dict] = []
    try:
        runner = Runner(calls, work)
        # Wall seconds per pass, checks included, by kind (False: untraced).
        took: dict[bool, list[float]] = {False: [], True: []}
        deadline = time.perf_counter() + args.seconds
        while True:
            want_trace = bool(args.trace) and len(traced) < len(plain)
            # After the first pass of each kind, start only passes expected to
            # end by the deadline, so a run lasts about --seconds.
            if took[want_trace] and time.perf_counter() + statistics.median(
                took[want_trace]
            ) > deadline:
                break
            start = time.perf_counter()
            result = runner.run_pass(want_trace)
            took[want_trace].append(time.perf_counter() - start)
            if result is None:
                break  # the inputs are fixed, so a failing pass would fail again
            (traced if want_trace else plain).append(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calls": [call.label for call in calls],
        "passes": len(plain),
        "traced_passes": len(traced),
        "machine": machine_facts(),
        "errors": runner.errors,
    }
    values: dict[str, float] = {}
    if plain and not args.trace:
        samples = {name: [p[name] for p in plain] for name in plain[0]}
        samples["setup_s"] = runner.setup_s
        samples["raw_setup_s"] = runner.raw_setup_s
        samples["calibration_s"] = runner.calibration_s
        info["samples"] = samples
        info["raw_medians"] = {
            name: statistics.median(samples[f"raw_{name}"]) for name in ("pass_s", "setup_s")
        }
        info["call_median_s"] = dict(
            zip(info["calls"], map(statistics.median, zip(*samples["call_s"])))
        )
        values = {name: statistics.median(samples[name]) for name in end_to_end_units}
    if plain and traced:
        values = {
            name: statistics.median_low([p["layers"][name] for p in traced])
            for name in traced[0]["layers"]
        }
        values["trace.overhead_ratio"] = statistics.median(
            [p["pass_s"] for p in traced]
        ) / statistics.median([p["pass_s"] for p in plain])
        if values.keys() != per_layer_units.keys():
            raise RuntimeError(f"per-layer metrics differ from BENCHMARK.json: {sorted(values)}")
        info["layer_share"] = {
            module: statistics.median([p["shares"].get(module, 0.0) for p in traced])
            for module in traced[0]["shares"]
        }
        info["predictions"] = PREDICTIONS
    units = per_layer_units if args.trace else end_to_end_units
    print(json.dumps(info))
    result = {
        "correct": runner.failed == 0 and not runner.errors and bool(values),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
