"""In-memory span tracer, installed from outside by rebinding bdqw's functions.

``install`` wraps every public function of ``bdqw.chain``, ``spectral``,
``ctqw`` and ``stats``, plus ``bdqw.cli.main`` and ``SpectralData.validate``,
and rebinds each wrapped name in every bdqw module namespace that holds it, so
calls between modules (which look names up in the caller's globals) are
traced too.  Each span records name, start, end and parent; all spans stay in
memory until ``summary`` folds them into per-name self times and counts.
The library itself is not edited.
"""

from __future__ import annotations

import functools
import inspect
import time

# Private names traced anyway: the dense product eigensystem is the oracle's
# main cost, and its builds are counted here.
PRIVATE_TRACED = {"ctqw": ("_product_eigensystem",)}
# A scalar leaf called once per atom: spans there would mostly time the
# tracer.  Its evaluations are counted from clt_distance's argument instead.
UNTRACED = {"stats": ("gaussian_cdf",)}


def _convolve_madds(factors, *args, **kwargs) -> int:
    """Multiply-adds of convolve_sum's sequential np.convolve calls."""
    total, length = 0, 1
    for f in factors:
        total += length * len(f)
        length += len(f) - 1
    return total


# Per span name: how a span's arguments become a number ("sum" adds them up,
# "distinct" counts different values within one process).
TAGS = {
    "spectral.dimension_spectrum": ("distinct", lambda spec, *a, **k: spec),
    "ctqw._product_eigensystem": ("sum", lambda spec, *a, **k: 8 * spec.product_size**2),
    "stats.convolve_sum": ("sum", _convolve_madds),
    "stats.clt_distance": ("sum", lambda sum_dist, *a, **k: len(sum_dist.mass)),
}


class Tracer:
    """Collects spans as [name, start, end, parent index, tag]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open = [-1]

    def wrap(self, name: str, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter
        tag = TAGS[name][1] if name in TAGS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1], tag(*args, **kwargs) if tag else None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()

        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self seconds, and the folded tag if any.

        Self time is a span's duration minus its direct children's; calls are
        sequential, so children never overlap.
        """
        self_s = [end - start for _, start, end, _, _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_s[parent] -= end - start
        out: dict[str, dict] = {}
        tags: dict[str, list] = {}
        for (name, _, _, _, tag), own in zip(self.spans, self_s):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
            if name in TAGS:
                tags.setdefault(name, []).append(tag)
        for name, values in tags.items():
            out[name]["tag"] = sum(values) if TAGS[name][0] == "sum" else len(set(values))
        return out


def install(tracer: Tracer) -> None:
    """Rebind bdqw's public functions to traced wrappers (call after import)."""
    import bdqw
    import bdqw.cli
    from bdqw import chain, ctqw, spectral, stats
    from bdqw.spectral import SpectralData

    layers = {"chain": chain, "spectral": spectral, "ctqw": ctqw, "stats": stats}
    wrappers = {id(bdqw.cli.main): tracer.wrap("cli.main", bdqw.cli.main)}
    for short, module in layers.items():
        for name, obj in vars(module).items():
            traced = not name.startswith("_") or name in PRIVATE_TRACED.get(short, ())
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and traced
                and name not in UNTRACED.get(short, ())
            ):
                wrappers[id(obj)] = tracer.wrap(f"{short}.{name}", obj)
    for module in (bdqw, bdqw.cli, *layers.values()):
        for name, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, name, wrappers[id(obj)])
    SpectralData.validate = tracer.wrap("spectral.validate", SpectralData.validate)


# Span names per reported layer group of ctqw.
CTQW_FACTOR = {
    "ctqw.transition_prob_1d",
    "ctqw.transition_prob_weight_form",
    "ctqw.transition_row",
    "ctqw.transition_matrix_1d",
    "ctqw.propagator",
    "ctqw.basis_state",
    "ctqw.evolve",
    "ctqw.ehrenfest_sum_law",
}
CTQW_PRODUCT = {
    "ctqw.transition_prob_factorized",
    "ctqw.factorized_transition_matrix",
    "ctqw.position_distribution",
}
CTQW_DENSE = {
    "ctqw._product_eigensystem",
    "ctqw.dense_propagator",
    "ctqw.transition_prob_dense",
    "ctqw.dense_transition_matrix",
}


def layer_metrics(summary: dict[str, dict]) -> dict[str, float]:
    """Per-layer metrics of one pass from its merged span summary."""

    def field(names, key="self_s"):
        return sum(summary[n].get(key, 0) for n in names if n in summary)

    def prefixed(prefix):
        return [n for n in summary if n.startswith(prefix)]

    def ms(*names):
        return 1e3 * field(names)

    spectra = field(["spectral.dimension_spectrum"], "calls")
    distinct = field(["spectral.dimension_spectrum"], "tag")
    return {
        "spectral.eigendecompose.self_ms": ms("spectral.eigendecompose"),
        "spectral.validate.self_ms": ms("spectral.validate"),
        "spectral.symmetrize.self_ms": ms("spectral.symmetrize"),
        "spectral.orthogonality_defect.self_ms": ms("spectral.orthogonality_defect"),
        "spectral.dimension_spectrum.calls": spectra,
        "spectral.distinct_dims": distinct,
        "spectral.useful_ratio": distinct / spectra if spectra else 1.0,
        "ctqw.factor.self_ms": ms(*CTQW_FACTOR),
        "ctqw.factor_evals": field(CTQW_FACTOR, "calls"),
        "ctqw.product.self_ms": ms(*CTQW_PRODUCT),
        "ctqw.dense.self_ms": ms(*CTQW_DENSE),
        "ctqw.dense.builds": field(["ctqw._product_eigensystem"], "calls"),
        "ctqw.dense.bytes_computed": field(["ctqw._product_eigensystem"], "tag"),
        "stats.convolve_sum.self_ms": ms("stats.convolve_sum"),
        "stats.convolve.madds_computed": field(["stats.convolve_sum"], "tag"),
        "stats.clt_distance.self_ms": ms("stats.clt_distance"),
        "stats.cdf_evals": field(["stats.clt_distance"], "tag"),
        "cli.self_ms": ms("cli.main"),
        "chain.self_ms": 1e3 * field(prefixed("chain.")),
        "chain.calls": field(prefixed("chain."), "calls"),
    }


def layer_shares(summary: dict[str, dict]) -> dict[str, float]:
    """Share of traced self time per module (chain, spectral, ctqw, stats, cli)."""
    totals: dict[str, float] = {}
    for name, entry in summary.items():
        module = name.split(".")[0]
        totals[module] = totals.get(module, 0.0) + entry["self_s"]
    whole = sum(totals.values()) or 1.0
    return {module: value / whole for module, value in sorted(totals.items())}
