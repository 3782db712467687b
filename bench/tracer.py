"""Spans around the public functions the CLI calls, recorded from outside.

`install()` replaces each function, under the name through which the CLI
reaches it, with a wrapper that records a span (name, start, end, parent).
The name is `<layer>.<function>`, where the layer is the `edgelca` module
that defines the function.
Spans stay in memory until the caller writes them out. A name that no
longer exists is listed as absent and skipped, so a later change that
removes it does not crash the benchmark.

With `counting` on, the wrappers also record the work each call did
(profiles, diagnostics, output bytes, overrides applied, warnings) and the
tracemalloc peak of `load_profiles` and `batch_evaluate`. That costs time,
so it is done in a separate pass whose timings are discarded.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from collections import Counter

#: (module, attribute): the names through which `edgelca.cli` reaches each layer.
WRAPPED = (
    ("edgelca.cli", "load_profiles"),
    ("edgelca.cli", "validate_profiles"),
    ("edgelca.cli", "batch_evaluate"),
    ("edgelca.cli", "render_reports"),
    ("edgelca.cli", "load_factor_table"),
    ("edgelca.cli", "load_unit_registry"),
    ("edgelca.cli", "load_trends"),
    ("edgelca.cli", "load_scenarios"),
    ("edgelca.cli", "scan_extrema"),
    ("edgelca.cli", "level_series_csv"),
    ("edgelca.cli", "cumulative_to_annual"),
    ("edgelca.cli", "project"),
    ("edgelca.cli", "projection_csv"),
    ("edgelca.cli", "paris_pathway"),
    ("edgelca.cli", "pathway_csv"),
    ("edgelca.defaults", "default_factor_table"),
    ("edgelca.defaults", "default_unit_registry"),
    ("edgelca.defaults", "default_trends"),
    ("edgelca.defaults", "default_scenarios"),
    ("edgelca.defaults", "parse_factor_table"),
    ("edgelca.defaults", "parse_unit_registry"),
    ("edgelca.defaults", "parse_trends"),
    ("edgelca.defaults", "parse_scenarios"),
)

#: Calls whose tracemalloc peak is recorded in the counting pass.
PEAK_TRACED = ("profiles_io.load_profiles", "estimator.batch_evaluate")


def _units(name, args, kwargs, result):
    """Work done by one call, as {counter: amount}; {} when the shape is unknown."""
    if name in ("profiles_io.load_profiles", "profiles_io.validate_profiles"):
        doc = result[0] if isinstance(result, tuple) else result
        out = {"profiles": len(getattr(doc, "profiles", ()))}
        if isinstance(result, tuple):
            out["diagnostics"] = len(result[1])
            text = args[0] if args else kwargs.get("text", "")
            out["sections"] = sum(1 for line in text.splitlines() if line.lstrip().startswith("["))
        else:
            out["sections"] = out["profiles"]
        return out
    if name.startswith("profiles_io.render_reports"):
        return {"reports": len(args[0]), "output_bytes": len(result.encode("utf-8"))}
    if name == "estimator.batch_evaluate" and isinstance(result, (list, tuple)):
        return {
            "profiles": len(result),
            "overrides_applied": sum(len(r.applied_overrides) for r in result),
            "warnings": sum(len(r.warnings) for r in result),
        }
    return {}


class Tracer:
    def __init__(self, counting: bool = False):
        self.counting = counting
        self.spans = []  # [name, start, end, parent index]
        self.units = Counter()  # (span name, counter) -> amount
        self.peaks = {}  # span name -> largest tracemalloc peak, bytes
        self.absent = []
        self._stack = []
        self._patched = []

    def span(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        peak = self.counting and name in PEAK_TRACED and not tracemalloc.is_tracing()
        if peak:
            tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            if peak:
                self.peaks[name] = max(self.peaks.get(name, 0), tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        if self.counting:
            for counter, amount in _units(name, args, kwargs, result).items():
                self.units[(name, counter)] += amount
        return result

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        def wrapper(*args, **kwargs):
            label = name
            if fn.__name__ == "render_reports":
                label = f"{name}[{args[1] if len(args) > 1 else kwargs.get('format', 'table')}]"
            return self.span(label, fn, *args, **kwargs)

        return wrapper

    def install(self):
        for module_name, attr in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn))
        return self

    def uninstall(self):
        for module, attr, fn in self._patched:
            setattr(module, attr, fn)
        self._patched = []

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "units": [[name, counter, amount] for (name, counter), amount in self.units.items()],
            "peaks": self.peaks,
            "absent": self.absent,
        }


def self_times(spans) -> dict:
    """Span name -> total self time in seconds: duration minus its children's."""
    out = Counter()
    for name, start, end, parent in spans:
        out[name] += end - start
        if parent >= 0:
            out[spans[parent][0]] -= end - start
    return out
