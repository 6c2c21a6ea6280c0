"""Per-layer spans recorded from outside the package.

The tracer wraps the public functions of each layer at every name a caller
looks them up by: ``fluctuation.rho_unrestricted`` is patched as well as
``asymptotic.rho_unrestricted``, and the package namespace re-exports too.
``IntSeries.__mul__`` is patched on the class.  Spans (name, start, end,
parent) stay in memory; ``patched()`` restores every original on exit.

A span's self time is its duration minus the time its child spans cover,
so the self times of all spans add up to the time spent inside root spans.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# Layer -> public functions wrapped.  errors and limits do no measurable work.
TRACED = {
    "counting": ("build_table", "count", "conjugate_restricted_table",
                 "odd_parts_table", "distinct_restricted_table"),
    "series": ("bose_gf", "fermi_gf", "distinct_restricted_gf", "verify_identity"),
    "asymptotic": ("rho_unrestricted", "rho_restricted_bose", "rho_restricted_fermi",
                   "bose_density_s1", "bose_density_s2", "fermi_density_s1",
                   "erdos_lehner_factor"),
    "saddle": ("find_saddle",),
    "fluctuation": ("analyze", "residuals", "smooth_curve", "amplitude_ratio",
                    "beat_spectrum"),
    "cli": ("main",),
}
LAYERS = tuple(TRACED)


class Tracer:
    """Collects spans as [name, start, end, parent_index] lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, rename=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [rename(args) if rename else name, clock(), 0.0,
                    stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def clear(self) -> None:
        self.spans.clear()


def _restricted_name(args) -> str:
    spec = args[0] if args else None
    if getattr(spec, "max_parts", None) is not None:
        return "counting.build_table.restricted"
    return "counting.build_table"


@contextlib.contextmanager
def patched(tracer: Tracer, package):
    """Swap every traced function for its wrapper; restore on exit."""
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == package.__name__
                                     or k.startswith(package.__name__ + "."))]
    undo = []
    try:
        for layer, names in TRACED.items():
            home = getattr(package, layer)
            for name in names:
                orig = getattr(home, name)
                rename = _restricted_name if (layer, name) == ("counting", "build_table") else None
                wrapper = tracer.wrap(f"{layer}.{name}", orig, rename)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            undo.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        cls = package.series.IntSeries
        undo.append((cls, "__mul__", cls.__mul__))
        cls.__mul__ = tracer.wrap("series.mul", cls.__mul__)
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


def layer_metrics(spans, wall_s: float) -> dict[str, float]:
    """Per-layer calls, self seconds and share of the traced pass wall time."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    extra = {"series.mul.calls": 0, "counting.restricted.self_s": 0.0,
             "saddle.inclusive_s": 0.0}
    for (name, start, end, parent), inner in zip(spans, child):
        layer = name.split(".", 1)[0]
        own = (end - start) - inner
        calls[layer] += 1
        self_s[layer] += own
        if name == "series.mul":
            extra["series.mul.calls"] += 1
        elif name == "counting.build_table.restricted":
            extra["counting.restricted.self_s"] += own
        elif name == "saddle.find_saddle":
            extra["saddle.inclusive_s"] += end - start
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = self_s[layer] / wall_s
    out["series.mul.calls"] = extra["series.mul.calls"]
    out["counting.restricted.self_s"] = extra["counting.restricted.self_s"]
    out["saddle.ms_per_call"] = (
        1e3 * extra["saddle.inclusive_s"] / calls["saddle"] if calls["saddle"] else 0.0)
    out["asymptotic.us_per_call"] = (
        1e6 * self_s["asymptotic"] / calls["asymptotic"] if calls["asymptotic"] else 0.0)
    out["trace.unattributed_s"] = wall_s - sum(self_s.values())
    return out
