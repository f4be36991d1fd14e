"""Per-layer spans recorded from outside the program.

``Tracer.install()`` replaces each entry point below, at every place its
name is bound in a loaded ``mlex`` module (``from x import f`` copies the
binding, so the defining module alone is not enough), with a wrapper
that records a span and, where listed, counts taken from the call's
arguments and result.  ``uninstall()`` restores the originals, so
untraced passes run unchanged code.
"""

from __future__ import annotations

import sys
import time


def _size(carrier):
    if hasattr(carrier, "module"):
        return carrier.module.size()
    return carrier.I.module.size() * carrier.Q.module.size()


def _witness_space(Q, I):
    return I.module.size() ** (Q.module.size() - 1)


# entry -> counters as name -> f(args, result) giving the increment
ENTRIES = {
    "workspace.load": {},
    "modcore.smith_normal_form": {"cells": lambda a, r: len(a[0]) * (len(a[0][0]) if a[0] else 0)},
    "modcore.solve_congruences": {},
    "algebra.find_isomorphism": {"found": lambda a, r: r is not None},
    "algebra.ideal_generated": {},
    "algebra.quotient": {},
    "algebra.subalgebra": {},
    "termlang.holds": {
        "assignments": lambda a, r: _size(a[0]) ** len(a[1].variables),
        "true": lambda a, r: bool(r),
    },
    "termlang.in_variety": {},
    "cocycle.SemidirectProduct.legality": {"legal": lambda a, r: bool(r[0])},
    "cocycle.is_compatible": {"compatible": lambda a, r: bool(r)},
    "cocycle.equivalent": {
        "witness_space": lambda a, r: _witness_space(a[0].Q, a[0].I),
        "found": lambda a, r: r is not None,
    },
    "cocycle.coboundary": {},
    "cocycle.extract_cocycle": {},
    "cocycle.realizes_raw": {},
    "cocycle.decompose": {},
    "cocycle.SemidirectProduct.to_algebra": {},
    "cohomology.enumerate_cocycles": {"cocycles": lambda a, r: len(r)},
    "cohomology.enumerate_h2": {"classes": lambda a, r: len(r)},
    "cohomology.derivations": {"witness_space": lambda a, r: _witness_space(a[0], a[1])},
    "cohomology.principal_derivations": {"complete": lambda a, r: bool(r.complete)},
    "cohomology.h1": {},
    "cohomology.h2_affine": {},
    "derlie.verify_wells": {},
    "derlie.ideal_preserving": {},
    "derlie.compatible_pairs": {},
    "derlie.group_trivialize": {},
    "derlie.wells_map": {},
    "hs.verify_hs": {},
    "hs.square_condition": {},
    "expander.soundness_check": {},
    "expander.general_identity": {},
    "expander.action_identity": {},
    "expander.strict_identity": {},
}

# ratio name -> (counter, base counter); the base "calls" is the call count
RATIOS = {
    "algebra.find_isomorphism.found_ratio": ("algebra.find_isomorphism.found", "calls"),
    "termlang.holds.true_ratio": ("termlang.holds.true", "calls"),
    "cocycle.SemidirectProduct.legality.legal_ratio": ("cocycle.SemidirectProduct.legality.legal", "calls"),
    "cocycle.is_compatible.compatible_ratio": ("cocycle.is_compatible.compatible", "calls"),
    "cocycle.equivalent.found_ratio": ("cocycle.equivalent.found", "calls"),
    "cohomology.principal_derivations.complete_ratio": ("cohomology.principal_derivations.complete", "calls"),
}

CLI = "cli"


def metric_names():
    """Every per-layer metric with its unit, in report order."""
    out = [("cli.self_ms", "ms")]
    for entry, counters in ENTRIES.items():
        out.append((f"{entry}.self_ms", "ms"))
        out.append((f"{entry}.calls", "count"))
        for name in counters:
            if f"{entry}.{name}_ratio" not in RATIOS:
                out.append((f"{entry}.{name}", "count"))
    out.extend((name, "ratio") for name in RATIOS)
    out.append(("trace.overhead_frac", "ratio"))
    return out


class Tracer:
    def __init__(self):
        self.spans = []  # (job id, span id, parent id, name, start, end)
        self.counts = {}
        self._stack = []
        self._job = None
        self._patched = []

    # -- spans ---------------------------------------------------------------

    def job(self, job_id, func, *args):
        """Run func(*args) under a root span named 'cli' for one job."""
        self._job = job_id
        try:
            return self._span(CLI, func, args, {})
        finally:
            self._job = None

    def _span(self, name, func, args, kwargs):
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (self._job, span_id, parent, name, start, end)

    def self_ms(self):
        """Span time minus the time its child spans cover, summed by name."""
        child = [0.0] * len(self.spans)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for _, span_id, _, name, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start - child[span_id]) * 1e3
        return out

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, entry, func):
        counters = ENTRIES[entry]
        counts = self.counts

        def traced(*args, **kwargs):
            result = self._span(entry, func, args, kwargs)
            counts[f"{entry}.calls"] = counts.get(f"{entry}.calls", 0) + 1
            for name, inc in counters.items():
                key = f"{entry}.{name}"
                counts[key] = counts.get(key, 0) + int(inc(args, result))
            return result

        traced.__wrapped__ = func
        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "mlex" or n.startswith("mlex.")) and m is not None]
        for entry in ENTRIES:
            modname, *path = entry.split(".")
            owner = sys.modules[f"mlex.{modname}"]
            if len(path) == 2:
                cls = getattr(owner, path[0])
                func = cls.__dict__[path[1]]
                self._patch(cls, path[1], func, self._wrapper(entry, func))
                continue
            func = getattr(owner, path[0])
            wrapper = self._wrapper(entry, func)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        self._patch(mod, attr, func, wrapper)

    def _patch(self, obj, attr, original, wrapper):
        setattr(obj, attr, wrapper)
        self._patched.append((obj, attr, original))

    def uninstall(self):
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched = []
