"""Spans around calls into superdenom's public functions, installed from outside.

The package imports its primitives by name (``identities`` holds its own
reference to ``series.apply_pochhammer``, ``cli._DUMPERS`` holds direct
references to ``build_*`` functions), so patching a defining module alone would miss most
calls.  ``install`` therefore replaces every reference to a traced function
that any loaded ``superdenom`` module holds, as a module attribute or as a
value of a module-level dict.

Spans stay in memory; ``Tracer.summary`` folds them into per-function call
counts, inclusive time (``total_s``) and self time (``self_s``: the span's
duration minus the time its direct child spans cover).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

from superdenom.series import GradedSeries, cone_coords

TRACED = {
    "series": ("apply_pochhammer", "mul", "expand_term", "linear_combine",
               "serialize"),
    "report": ("compare_series",),
    "roots": ("orbit_sum", "expand_orbit_term"),
    "identities": ("build_lhs", "build_rhs", "build_prefactor",
                   "build_orbit_sum", "divide_by_lhs", "build_finite_r",
                   "build_sl21_lhs", "build_sl21_rhs"),
    "squares": ("r8_oracle", "theta_power8", "gauss_series",
                "intermediate_identity"),
    "analytic": ("run_suite",),
    "cli": ("main",),
}

TOP = "cli.main"


def binomial_passes(s: GradedSeries, head, step) -> int:
    """Binomial factors ``apply_pochhammer(s, head, step, ...)`` applies: one
    per n >= 0 with deg(head) + n * deg(step) <= cutoff."""
    _, _, dh = cone_coords(s.lattice, head)
    _, _, dg = cone_coords(s.lattice, step)
    return 0 if dh > s.cutoff else (s.cutoff - dh) // dg + 1


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, index of the parent span or -1]
        self._stack = []
        self.counts = {"series.binomial_passes": 0,
                       "series.peak_terms_out": 0,
                       "series.serialize.bytes": 0}

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            self._count(name, args, out)
            return out

        return traced

    def _count(self, name, args, out):
        if isinstance(out, GradedSeries):
            if len(out) > self.counts["series.peak_terms_out"]:
                self.counts["series.peak_terms_out"] = len(out)
        if name == "series.apply_pochhammer":
            self.counts["series.binomial_passes"] += binomial_passes(*args[:3])
        elif name == "series.serialize":
            self.counts["series.serialize.bytes"] += len(out.encode())

    def summary(self, wall: float) -> dict:
        """Per-function ``calls``/``total_s``/``self_s``, the counts, and
        ``trace.top_share`` (top-level spans over ``wall``) and
        ``trace.layer_share`` (self time of spans below the CLI over ``wall``)."""
        out = {}
        for module, names in TRACED.items():
            for n in names:
                out[f"{module}.{n}.calls"] = 0
                out[f"{module}.{n}.total_s"] = 0.0
                out[f"{module}.{n}.self_s"] = 0.0
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        top = layered = 0.0
        for (name, start, end, parent), inner in zip(self.spans, covered):
            duration = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += duration
            out[f"{name}.self_s"] += max(0.0, duration - inner)
            if parent < 0:
                top += duration
            if name != TOP:
                layered += max(0.0, duration - inner)
        out.update(self.counts)
        out["trace.top_share"] = top / wall
        out["trace.layer_share"] = layered / wall
        return out


def install(tracer: Tracer) -> None:
    """Route every loaded reference to a traced function through ``tracer``."""
    wrappers = {}  # id of the original (kept alive by its wrapper) -> wrapper
    for module, names in TRACED.items():
        mod = importlib.import_module(f"superdenom.{module}")
        for n in names:
            fn = getattr(mod, n)
            wrappers[id(fn)] = tracer.wrap(f"{module}.{n}", fn)
    for modname, mod in list(sys.modules.items()):
        if modname != "superdenom" and not modname.startswith("superdenom."):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                setattr(mod, attr, wrappers[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in wrappers:
                        value[key] = wrappers[id(item)]
