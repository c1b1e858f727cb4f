"""Span tracer that wraps partialfid's public functions from outside the package.

`Tracer` replaces each public function of the six modules at every name it
is bound to -- its home module, the package namespace, and any module that
imported it by name (`bethe`, `lmg` and `analysis` import
`crossing_fidelity` and `crossing_susceptibility`; `CurvePoint` calls the
`fidelity` global).  Each call records one span `(name, start, end, parent)`
in memory; leaving the `with` block restores every original binding.  No
file of the package is changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

PACKAGE = "partialfid"
LAYERS = ("cli", "analysis", "bethe", "lmg", "fidelity", "ed")


def _solve_bethe_counts(result):
    # one pass of the solver loop evaluates all n_down^2 rapidity pairs
    return {"iterations": result.iterations, "residual": result.residual,
            "pair_evals": (result.iterations + 1) * result.n_down ** 2}


def _sector_hamiltonian_counts(result):
    return {"matrix_bytes": result.nbytes}


# Counts taken from a call's return value, next to its span.
COUNTERS = {
    "bethe.solve_bethe": _solve_bethe_counts,
    "ed.sector_hamiltonian": _sector_hamiltonian_counts,
}


class Tracer:
    """Context manager recording one span per call of a public function."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = []  # (span index, name, counts dict)
        self._stack = []
        self._patches = []  # (namespace, attribute, original function)

    def __enter__(self):
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, value in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrappers[value] = self._wrap(f"{layer}.{name}", value)
        namespaces = [importlib.import_module(PACKAGE), *modules.values()]
        for namespace in namespaces:
            for attribute, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((namespace, attribute, value))
                    setattr(namespace, attribute, wrappers[value])
        return self

    def __exit__(self, *exc_info):
        for namespace, attribute, original in reversed(self._patches):
            setattr(namespace, attribute, original)
        return False

    def restored(self):
        """True when every binding the tracer replaced holds its original again."""
        return all(getattr(namespace, attribute) is original
                   for namespace, attribute, original in self._patches)

    def bindings(self):
        """Number of (namespace, name) bindings the tracer replaced."""
        return len(self._patches)

    def _wrap(self, name, function):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                counts.append((index, name, counter(result)))
            return result

        return traced

    def write(self, path):
        """Write the spans as JSON Lines, times in seconds from the first span.

        A span with counts (a sector solve, an ED build) carries them too.
        """
        origin = self.spans[0][1] if self.spans else 0.0
        counts = {index: values for index, _, values in self.counts}
        with open(path, "w") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent,
                    **counts.get(index, {}),
                }) + "\n")


def summarize(spans):
    """Per-name calls, total and self seconds, and per-layer self seconds.

    A span's self time is its duration minus the durations of its direct
    children; calls on one thread nest, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    by_layer = defaultdict(float)
    root_s = 0.0
    for (name, start, end, parent), children in zip(spans, child_time):
        entry = by_name[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - children
        by_layer[name.split(".", 1)[0]] += end - start - children
        if parent < 0:
            root_s += end - start
    return dict(by_name), dict(by_layer), root_s
