"""Run one bdqw CLI call in this fresh process and record what it cost.

Usage: python3 perfbench/child.py RESULT_JSON TRACE -- CLI_ARGS...

Times ``import bdqw.cli`` (set-up) and ``bdqw.cli.main(CLI_ARGS)`` apart,
and writes the exit code, both times, the peak resident set size and, with
TRACE=1, the span summary to RESULT_JSON.  The package must be importable
(the runner puts the checkout's ``src`` on PYTHONPATH).
"""

import sys
import time


def _peak_rss_mib() -> float:
    """Peak resident set size of this program since exec.

    ``ru_maxrss`` would also count the runner's memory, which the child
    inherits at fork; the kernel's VmHWM is reset by exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> None:
    result_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit(__doc__)
    start = time.perf_counter()
    import bdqw.cli

    setup_s = time.perf_counter() - start
    tracer = None
    if trace == "1":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    start = time.perf_counter()
    code = bdqw.cli.main(argv)
    main_s = time.perf_counter() - start

    import json

    result = {
        "code": code,
        "setup_s": setup_s,
        "main_s": main_s,
        "peak_rss_mib": _peak_rss_mib(),
        "spans": tracer.summary() if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
