"""Spans and counters around homtwist's public functions, installed from outside.

``Tracer.installed()`` replaces each traced function by a wrapper for the
duration of a ``with`` block and restores every original afterwards.  A
function is replaced under every name a ``homtwist`` module binds it to,
because callers look names up in their own module: ``homtwist.cli`` imports
``search_rb``, ``centroid_basis`` and ``catalog_get`` by name, so patching only
``homtwist.search.search_rb`` would miss the CLI's calls.

A span records its name, start, end, parent span and op id, plus one value
measured from the call where a layer metric needs it.  Spans stay in memory
until the run ends.  Hot scalar methods get counters, not spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time


def _rows_cells(args, result):
    rows = args[0]
    return len(rows) * len(rows[0]) if rows else 0


def _map_cells(args, result):
    return args[0].dim ** 2


def _search_size(args, result):
    algebra, cfg = args[0], args[1]
    return len(cfg.entry_set) ** (algebra.dim ** 2), len(result)


def _report_outcome(args, result):
    return (not result.passed), len(result.witnesses)


# (module, attribute path, span name, measure)
_SPANS = [
    ("homtwist.cli", "main", "cli", None),
    ("homtwist.cli", "from_document", "cli.from_document", None),
    ("homtwist.cli", "to_document", "cli.to_document", None),
    ("homtwist.catalog", "catalog_get", "catalog.get", None),
    ("homtwist.search", "search_rb", "search.rb", _search_size),
    ("homtwist.search", "centroid_basis", "search.centroid", None),
    ("homtwist.scalar", "parse_scalar", "scalar.parse", None),
    ("homtwist.core", "BilinearOp.apply", "core.apply", None),
    ("homtwist.core", "LinearMap.apply", "core.apply", None),
    ("homtwist.core", "LinearMap.compose", "core.compose", None),
    ("homtwist.core", "BilinearOp.compose_output", "core.compose", None),
    ("homtwist.core", "BilinearOp.precompose", "core.compose", None),
    ("homtwist.core", "rref", "core.linalg", _rows_cells),
    ("homtwist.core", "nullspace", "core.linalg", _rows_cells),
    ("homtwist.core", "LinearMap.inverse", "core.linalg", _map_cells),
]

# (module, attribute path, counter)
_COUNTERS = [
    ("homtwist.scalar", "Scalar.__init__", "scalar.objects"),
    ("homtwist.scalar", "Scalar.__mul__", "scalar.mul_calls"),
    ("homtwist.scalar", "Scalar.__rmul__", "scalar.mul_calls"),
    ("homtwist.scalar", "Scalar.__add__", "scalar.add_calls"),
    ("homtwist.scalar", "Scalar.__radd__", "scalar.add_calls"),
]


def _targets():
    """Every traced (module, attribute path, span name, measure)."""
    axioms = sys.modules["homtwist.axioms"]
    constructions = sys.modules["homtwist.constructions"]
    targets = list(_SPANS)
    targets += [("homtwist.axioms", name, "axioms", _report_outcome)
                for name in axioms.__all__ if name.startswith("check_")]
    targets += [("homtwist.constructions", name, "constructions", None)
                for name in constructions.__all__
                if not isinstance(getattr(constructions, name), type)]
    return targets


def _homtwist_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "homtwist" or name.startswith("homtwist."))]


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts = {key: 0 for _, _, key in _COUNTERS}
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name, fn, measure):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, None)
            if measure is not None:
                spans[index] = (name, start, end, parent, self.op, measure(args, result))
            return result

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing -------------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install(self, module_name, path, make):
        module = sys.modules[module_name]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            self._patch(cls, attr, make(cls.__dict__[attr]))
            return
        original = getattr(module, path)
        wrapper = make(original)
        for mod in _homtwist_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function; restore the originals on exit."""
        try:
            for module, path, name, measure in _targets():
                self._install(module, path,
                              lambda fn, name=name, measure=measure: self._span(name, fn, measure))
            for module, path, key in _COUNTERS:
                self._install(module, path, lambda fn, key=key: self._counter(key, fn))
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        inclusive: dict[str, float] = {}
        self_time: dict[str, float] = {}
        outer_calls: dict[str, int] = {}
        outer_s: dict[str, float] = {}
        extra: dict[str, list] = {}
        precondition_s = 0.0
        for index, (name, start, end, parent, _, value) in enumerate(spans):
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + duration
            self_time[name] = self_time.get(name, 0.0) + duration - child[index]
            parent_name = spans[parent][0] if parent >= 0 else None
            if parent_name != name:
                # outermost span of its layer: nested calls (nullspace -> rref,
                # check_class -> check_hom_*) count once
                outer_calls[name] = outer_calls.get(name, 0) + 1
                outer_s[name] = outer_s.get(name, 0.0) + duration
                if value is not None:
                    extra.setdefault(name, []).append(value)
            if name == "axioms" and parent_name == "constructions":
                precondition_s += duration

        def total(name, getter=lambda v: v):
            return sum(getter(v) for v in extra.get(name, ()))

        checks = outer_calls.get("axioms", 0)
        candidates = total("search.rb", lambda v: v[0])
        hits = total("search.rb", lambda v: v[1])
        rb_s = inclusive.get("search.rb", 0.0)
        count, seconds, ratio = "count", "s", "ratio"
        return {
            "scalar.objects": (self.counts["scalar.objects"], count),
            "scalar.mul_calls": (self.counts["scalar.mul_calls"], count),
            "scalar.add_calls": (self.counts["scalar.add_calls"], count),
            "scalar.parse_calls": (calls.get("scalar.parse", 0), count),
            "scalar.parse_s": (inclusive.get("scalar.parse", 0.0), seconds),
            "core.apply_calls": (calls.get("core.apply", 0), count),
            "core.apply_s": (self_time.get("core.apply", 0.0), seconds),
            "core.compose_calls": (calls.get("core.compose", 0), count),
            "core.compose_s": (self_time.get("core.compose", 0.0), seconds),
            "core.linalg_calls": (outer_calls.get("core.linalg", 0), count),
            "core.linalg_cells": (total("core.linalg"), count),
            "core.linalg_s": (outer_s.get("core.linalg", 0.0), seconds),
            "axioms.checks": (checks, count),
            "axioms.check_s": (self_time.get("axioms", 0.0), seconds),
            "axioms.failed_ratio": (total("axioms", lambda v: v[0]) / checks if checks else 0.0,
                                    ratio),
            "axioms.witnesses": (total("axioms", lambda v: v[1]), count),
            "constructions.calls": (outer_calls.get("constructions", 0), count),
            "constructions.self_s": (self_time.get("constructions", 0.0), seconds),
            "constructions.precondition_s": (precondition_s, seconds),
            "search.rb_calls": (calls.get("search.rb", 0), count),
            "search.rb_s": (rb_s, seconds),
            "search.candidates": (candidates, count),
            "search.hits": (hits, count),
            "search.hit_ratio": (hits / candidates if candidates else 0.0, ratio),
            "search.candidates_per_s": (candidates / rb_s if rb_s else 0.0, "1/s"),
            "search.centroid_calls": (calls.get("search.centroid", 0), count),
            "search.centroid_s": (inclusive.get("search.centroid", 0.0), seconds),
            "catalog.get_calls": (calls.get("catalog.get", 0), count),
            "catalog.get_s": (inclusive.get("catalog.get", 0.0), seconds),
            "cli.self_s": (self_time.get("cli", 0.0), seconds),
            "cli.from_document_s": (inclusive.get("cli.from_document", 0.0), seconds),
            "cli.to_document_s": (inclusive.get("cli.to_document", 0.0), seconds),
        }

    def write_spans(self, path) -> None:
        """Write every span as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "op", "value"],
                       "spans": self.spans}, fh)
