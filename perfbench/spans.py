"""Spans around the calls one costas_cubes module makes into another.

A traced run replaces each listed function, in every module that binds
it, by a wrapper that records a span: name, start, end and parent span.
Spans stay in memory until the run writes them out.  The wrappers hash
and compare equal to the function they wrap, so dictionaries keyed on
functions (construct._VARIANT_OF) still find them.  A listed name that
the package no longer defines is reported as absent.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import TextIO

# (defining module, attribute) of every boundary that gets a span.
BOUNDARIES = [
    ("cli", "main"),
    ("files", "parse_array_file"),
    ("enumeration", "enumerate_costas_arrays"),
    ("enumeration", "enumerate_costas_cubes"),
    ("enumeration", "projection_class_count"),
    ("enumeration", "array_classes"),
    ("symmetry", "canonical_cube"),
    ("symmetry", "apply_cube"),
    ("symmetry", "canonical_array"),
    ("symmetry", "apply_planar"),
    ("symmetry", "projection_set"),
    ("core", "is_costas"),
    ("gf", "LogTable"),
    ("gf", "is_primitive"),
    ("gf", "primitive_elements"),
    ("construct", "sweep"),
    ("construct", "cube_g2x3"),
    ("construct", "cube_w2w2g2"),
    ("construct", "cube_g3_variant_i"),
    ("construct", "cube_g3_variant_ii"),
]

# The four cube constructors share one span name, so that their self
# time and call count read as one layer.
_SPAN_NAME = {
    ("construct", attr): "construct.build"
    for attr in ("cube_g2x3", "cube_w2w2g2", "cube_g3_variant_i", "cube_g3_variant_ii")
}

# Spans whose results are counted: total items returned, or distinct
# results returned.
_COUNT_ITEMS = {"enumeration.enumerate_costas_arrays"}
_COUNT_DISTINCT = {"symmetry.canonical_cube"}


class _Traced:
    """A callable standing in for fn that records one span per call."""

    __slots__ = ("__wrapped__", "_name", "_tracer")

    def __init__(self, fn, name: str, tracer: Tracer):
        self.__wrapped__ = fn
        self._name = name
        self._tracer = tracer

    def __call__(self, *args, **kwargs):
        tracer = self._tracer
        name = self._name
        if name == "construct.sweep":
            family = args[0] if args else kwargs["family"]
            name = "construct.sweep." + family.value.lower()
        index = tracer.open(name)
        try:
            result = self.__wrapped__(*args, **kwargs)
        finally:
            tracer.close(index)
        if name in _COUNT_ITEMS:
            tracer.items[name] += len(result)
        elif name in _COUNT_DISTINCT:
            tracer.distinct[name].add(getattr(result, "rows", result))
        return result

    def __eq__(self, other):
        return self.__wrapped__ == getattr(other, "__wrapped__", other)

    def __hash__(self):
        return hash(self.__wrapped__)


class Tracer:
    """In-memory spans of one traced run of a workload."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack = [-1]
        self.items: defaultdict[str, int] = defaultdict(int)
        self.distinct: defaultdict[str, set] = defaultdict(set)
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def install(self, package: str = "costas_cubes") -> None:
        modules = [module for name, module in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for module_name, attr in BOUNDARIES:
            name = f"{module_name}.{attr}"
            home = sys.modules.get(f"{package}.{module_name}")
            fn = getattr(home, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            wrapper = _Traced(fn, _SPAN_NAME.get((module_name, attr), name), self)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, key, fn))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched.clear()

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def totals(self) -> dict[str, list]:
        """name -> [calls, inclusive seconds, self seconds].

        Self time is a span's duration less the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        child = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[index] - self.starts[index]
        out: dict[str, list] = {}
        for index, name in enumerate(self.names):
            duration = self.ends[index] - self.starts[index]
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child[index]
        return out

    def write(self, out: TextIO, run_label: str) -> None:
        """Write the spans as tab-separated lines: run, id, parent, name, start, end."""
        for index, name in enumerate(self.names):
            out.write(f"{run_label}\t{index}\t{self.parents[index]}\t{name}\t"
                      f"{self.starts[index]:.9f}\t{self.ends[index]:.9f}\n")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, as name -> (value, unit)."""
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    canon_calls = calls("symmetry.canonical_cube")
    canon_distinct = len(tracer.distinct["symmetry.canonical_cube"])
    metrics = {
        "enumeration.enumerate_costas_arrays.self_s": (own("enumeration.enumerate_costas_arrays"), "s"),
        "enumeration.arrays_found": (tracer.items["enumeration.enumerate_costas_arrays"], "count"),
        "enumeration.enumerate_costas_cubes.self_s": (own("enumeration.enumerate_costas_cubes"), "s"),
        "enumeration.projection_class_count.self_s": (own("enumeration.projection_class_count"), "s"),
        "enumeration.array_classes.self_s": (own("enumeration.array_classes"), "s"),
        "symmetry.canonical_cube.calls": (canon_calls, "count"),
        "symmetry.canonical_cube.s": (inclusive("symmetry.canonical_cube"), "s"),
        "symmetry.canonical_cube.useful_ratio": (canon_distinct / canon_calls if canon_calls else 0.0, "ratio"),
        "symmetry.apply_cube.calls": (calls("symmetry.apply_cube"), "count"),
        "symmetry.canonical_array.calls": (calls("symmetry.canonical_array"), "count"),
        "symmetry.canonical_array.s": (inclusive("symmetry.canonical_array"), "s"),
        "symmetry.apply_planar.calls": (calls("symmetry.apply_planar"), "count"),
        "symmetry.apply_planar.s": (inclusive("symmetry.apply_planar"), "s"),
        "symmetry.projection_set.s": (inclusive("symmetry.projection_set"), "s"),
        "core.is_costas.calls": (calls("core.is_costas"), "count"),
        "core.is_costas.s": (inclusive("core.is_costas"), "s"),
        "files.parse_array_file.s": (inclusive("files.parse_array_file"), "s"),
        "cli.self_s": (own("cli.main"), "s"),
        "gf.LogTable.builds": (calls("gf.LogTable"), "count"),
        "gf.LogTable.s": (inclusive("gf.LogTable"), "s"),
        "gf.is_primitive.calls": (calls("gf.is_primitive"), "count"),
        "gf.is_primitive.s": (inclusive("gf.is_primitive"), "s"),
        "gf.primitive_elements.s": (inclusive("gf.primitive_elements"), "s"),
        "construct.constructions": (calls("construct.build"), "count"),
        "construct.build.self_s": (own("construct.build"), "s"),
    }
    for family in ("cube_g2x3", "cube_w2w2g2", "cube_g3_i", "cube_g3_ii"):
        name = f"construct.sweep.{family}"
        metrics[f"{name}.s"] = (inclusive(name), "s")
    metrics["trace.spans"] = (len(tracer.names), "count")
    return metrics
