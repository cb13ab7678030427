"""Layer spans recorded from outside the ellrank package.

A Tracer wraps the public functions of the layers named in LAYERS.  Each
wrapper records one span (name, start, end, parent, counters) per call.
Callers inside ellrank look a function up in different places: the CLI
binds ``count_projective`` and ``singular_points`` into its own namespace,
counting reaches ``gridcount.value_histogram`` through the module, and
hodge calls ``jacobian_ring_dim`` through its own globals.  So a wrapper is
installed on every ellrank module attribute that holds the original
function, and ``uninstall`` puts every original back.

Spans stay in memory; ``spans()`` hands them out as plain dicts when the
traced call has finished.  Counters are cheap (sizes of arguments and
results) except the Jacobian ring's rows and columns, which take a
monomial enumeration each; those are handed over as callables and worked
out by ``spans()``, so their cost falls in no span.  The package itself is
not modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

from ellrank.hodge import monomials_of_weighted_degree


def _value_histogram(bound, result) -> dict:
    return {"points": bound["field"].p ** bound["poly"].nvars}


def _common_zeros(bound, result) -> dict:
    polys = [f for f in bound["polys"] if f.terms]
    n = polys[0].nvars if polys else 0
    return {"points": bound["field"].p ** n, "survivors": len(result)}


def _orbit_min_keys(bound, result) -> dict:
    return {"rows": int(bound["points"].shape[0])}


def _singular_points(bound, result) -> dict:
    return {"points": bound["field"].p ** bound["poly"].nvars,
            "kept": len(result.points) + len(result.excluded_ambient)}


def _jacobian_ring_dim(bound, result) -> dict:
    spec, k = bound["spec"], bound["k"]

    def rows() -> int:
        partials = [spec.poly.partial_derivative(v) for v in spec.poly.variables]
        return sum(len(monomials_of_weighted_degree(spec.weights, k - g.weighted_degree()))
                   for g in partials if g.terms)

    return {"k": k, "rows": rows,
            "columns": lambda: len(monomials_of_weighted_degree(spec.weights, k))}


def _resolve(bound, result) -> dict:
    inp = bound["inp"]
    return {"candidates": (inp.h4_sigma + 4 - inp.chi) // 2 + 1}


def _count_projective(bound, result) -> dict:
    return {"method": result.method}


# (module, function, counters(bound arguments, result) or None)
LAYERS = (
    ("ellrank.counting", "count_projective", _count_projective),
    ("ellrank.counting", "count_cone_naive", None),
    ("ellrank.counting", "weierstrass_fiber_table", None),
    ("ellrank.gridcount", "value_histogram", _value_histogram),
    ("ellrank.gridcount", "common_zeros", _common_zeros),
    ("ellrank.gridcount", "orbit_min_keys", _orbit_min_keys),
    ("ellrank.singular", "singular_points", _singular_points),
    ("ellrank.hodge", "builtin_cohomology_inputs", None),
    ("ellrank.hodge", "hodge_h3_smooth", None),
    ("ellrank.hodge", "jacobian_ring_dim", _jacobian_ring_dim),
    ("ellrank.hodge", "quasi_smooth_spot_check", None),
    ("ellrank.betti", "resolve", _resolve),
    ("ellrank.sections", "section_records", None),
)


class Tracer:
    """Install span wrappers on the ellrank layers; remove them again."""

    def __init__(self):
        self._spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func, counters):
        signature = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = {"id": len(self._spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self._spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counters is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(counters(bound.arguments, result))
            return result

        return wrapper

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        importlib.import_module("ellrank.cli")  # bind the CLI's names first
        for module_name, attr, counters in LAYERS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(f"{module_name.split('.')[-1]}.{attr}",
                                 original, counters)
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "ellrank" or name.startswith("ellrank.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)
        return self

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def spans(self) -> list[dict]:
        return [{key: value() if callable(value) else value for key, value in s.items()}
                for s in self._spans]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it covered by its direct children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
