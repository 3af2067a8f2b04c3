"""Spans around liecap's public calls, recorded from outside the library.

`Tracer(liecap).install()` replaces every binding of a traced function in the
liecap modules, and every traced method on its class, by a wrapper that
records a span: the binding's name, the span that was open when it was
called (its parent), and its start and end times.  Each binding keeps its own
name, so `schur.span` is `linalg.span` as schur reaches it, while
`linalg.span` is the same function reached through the linalg module (from
linalg itself and from liealg).  `FieldSpec.coerce` runs tens of millions of
times, so it is counted, not spanned.

Spans stay in memory until `write()` and `layer_metrics()` read them at the
end of the round.  A stage with no public entry point (the [R, F] bracket loop,
the exterior-center constraint matrix) shows up as its caller's self time, or
through the public calls it makes, as `layer_metrics` documents per metric.
"""

from __future__ import annotations

import gzip
import json
import time
from contextlib import contextmanager

# traced functions and methods, as <defining module>.<attribute>
FUNCTIONS = (
    "linalg.rref_rows", "linalg.span", "linalg.kernel",
    "linalg.subspace_intersect", "linalg.reduce_rows",
    "linalg.solve_right_inverse",
    "freelie.free_nilpotent", "freelie.extend_hom",
    "schur.free_presentation", "schur.exterior_center", "schur.is_capable",
    "catalog.random_gen_heisenberg",
    "classify.capability_structural",
)
METHODS = (
    "liealg.LieAlgebra.bracket", "liealg.LieAlgebra.quotient",
    "liealg.LieAlgebra.center", "liealg.LieAlgebra.derived_subalgebra",
    "liealg.LieAlgebra.lower_central_series",
    "liealg.LieAlgebra.upper_central_series",
    "liealg.Hom.kernel",
)
SERIES = frozenset((
    "liealg.LieAlgebra.center", "liealg.LieAlgebra.derived_subalgebra",
    "liealg.LieAlgebra.lower_central_series",
    "liealg.LieAlgebra.upper_central_series",
))
MODULES = ("field", "linalg", "liealg", "freelie", "schur", "catalog",
           "classify")

# per-layer metric -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "field.coerce_calls": "count",
    "linalg.rref_calls": "count",
    "linalg.rref_cells": "count",
    "linalg.rref_s": "s",
    "linalg.rref_gf_s": "s",
    "linalg.span_self_s": "s",
    "linalg.reduce_rows_s": "s",
    "freelie.free_nilpotent_s": "s",
    "freelie.extend_hom_s": "s",
    "freelie.cover_dim_max": "count",
    "liealg.bracket_calls": "count",
    "liealg.bracket_s": "s",
    "liealg.quotient_s": "s",
    "liealg.series_s": "s",
    "schur.kernel_R_s": "s",
    "schur.section_s": "s",
    "schur.RF_s": "s",
    "schur.RcapF2_s": "s",
    "schur.presentation_self_s": "s",
    "schur.exterior_center_s": "s",
    "schur.presentation_calls": "count",
    "schur.presentations_built": "count",
    "catalog.sampler_s": "s",
    "classify.structural_s": "s",
}

# span record fields
FN, NAME, PARENT, T0, T1, INFO = range(6)


class Tracer:
    def __init__(self, liecap_pkg):
        self.pkg = liecap_pkg
        self.spans: list = []
        self.stack: list = []
        self.coerce_calls = 0
        self.clock = time.perf_counter  # set before install()
        self._restore: list = []

    # --- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        mods = {m: getattr(self.pkg, m) for m in MODULES}
        bindings = [self.pkg] + list(mods.values())
        for fn in FUNCTIONS:
            home, attr = fn.split(".")
            orig = getattr(mods[home], attr, None)
            if orig is None:
                continue  # renamed or removed: its metrics read 0
            for mod in bindings:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        short = mod.__name__.rsplit(".", 1)[-1]
                        self._patch(mod, key, self._wrap(
                            orig, fn, f"{short}.{key}"))
        for fn in METHODS:
            home, cls_name, attr = fn.split(".")
            cls = getattr(mods[home], cls_name, None)
            if cls is not None and attr in vars(cls):
                self._patch(cls, attr, self._wrap(vars(cls)[attr], fn, fn))
        spec = mods["field"].FieldSpec
        self._patch(spec, "coerce", self._counter(vars(spec)["coerce"]))
        return self

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def _patch(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _counter(self, orig):
        def coerce(field, x):
            self.coerce_calls += 1
            return orig(field, x)
        return coerce

    def _wrap(self, orig, fn: str, name: str):
        spans, stack = self.spans, self.stack
        clock = self.clock
        is_rref = fn == "linalg.rref_rows"
        is_free = fn == "freelie.free_nilpotent"

        def wrapper(*args, **kwargs):
            rec = [fn, name, stack[-1] if stack else -1, 0.0, 0.0, None]
            if is_rref:
                rows = list(args[1])
                args = (args[0], rows)
                rec[INFO] = (len(rows), len(rows[0]) if rows else 0,
                             not args[0].is_rationals)
            stack.append(len(spans))
            spans.append(rec)
            rec[T0] = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[T1] = clock()
                stack.pop()
            if is_free:
                rec[INFO] = result.dim
            return result

        wrapper.__name__ = getattr(orig, "__name__", name)
        wrapper.__wrapped__ = orig
        return wrapper

    @contextmanager
    def op(self, op_id: str):
        """Root span of one benchmark operation; its descendants share it."""
        rec = ["op", "bench.op", -1, 0.0, 0.0, op_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[T0] = self.clock()
        try:
            yield
        finally:
            rec[T1] = self.clock()
            self.stack.pop()

    # --- read-out ---------------------------------------------------------

    def write(self, path) -> None:
        """All spans as gzip'd JSON lines: name, parent index, start and
        duration in seconds from the first span, and the span's info."""
        base = self.spans[0][T0] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps([rec[NAME], rec[PARENT],
                                     round(rec[T0] - base, 9),
                                     round(rec[T1] - rec[T0], 9),
                                     rec[INFO]]) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer totals over every span recorded.

        Times are inclusive unless the name says `self`; the stage metrics
        count the calls `schur.free_presentation` makes itself: Hom.kernel
        (kernel R), solve_right_inverse (section), bracket and span ([R, F])
        and subspace_intersect (R cap F^2).
        """
        spans = self.spans
        n = len(spans)
        child = [0.0] * n          # summed duration of direct children
        child_present = [0.0] * n  # ... of free_presentation children
        child_schur = [0.0] * n    # ... of schur.* children
        has_free = [False] * n     # a free_nilpotent child: a built cover
        in_series = [False] * n    # some ancestor is a series call
        m = dict.fromkeys(LAYER_UNITS, 0)
        m["field.coerce_calls"] = self.coerce_calls
        stage = {"liealg.Hom.kernel": "schur.kernel_R_s",
                 "linalg.solve_right_inverse": "schur.section_s",
                 "liealg.LieAlgebra.bracket": "schur.RF_s",
                 "linalg.span": "schur.RF_s",
                 "linalg.subspace_intersect": "schur.RcapF2_s"}
        for i, rec in enumerate(spans):
            par = rec[PARENT]
            dur = rec[T1] - rec[T0]
            fn = rec[FN]
            if par >= 0:
                pfn = spans[par][FN]
                child[par] += dur
                in_series[i] = in_series[par] or pfn in SERIES
                if fn == "schur.free_presentation":
                    child_present[par] += dur
                if fn.startswith("schur."):
                    child_schur[par] += dur
                if fn == "freelie.free_nilpotent":
                    has_free[par] = True
                if pfn == "schur.free_presentation" and fn in stage:
                    m[stage[fn]] += dur
            if fn == "linalg.rref_rows":
                rows, cols, gf = rec[INFO]
                m["linalg.rref_calls"] += 1
                m["linalg.rref_cells"] += rows * cols
                m["linalg.rref_s"] += dur
                if gf:
                    m["linalg.rref_gf_s"] += dur
            elif fn == "linalg.reduce_rows":
                m["linalg.reduce_rows_s"] += dur
            elif fn == "freelie.free_nilpotent":
                m["freelie.free_nilpotent_s"] += dur
                m["freelie.cover_dim_max"] = max(m["freelie.cover_dim_max"],
                                                 rec[INFO] or 0)
            elif fn == "freelie.extend_hom":
                m["freelie.extend_hom_s"] += dur
            elif fn == "liealg.LieAlgebra.bracket":
                m["liealg.bracket_calls"] += 1
                m["liealg.bracket_s"] += dur
            elif fn == "liealg.LieAlgebra.quotient":
                m["liealg.quotient_s"] += dur
            elif fn == "catalog.random_gen_heisenberg":
                m["catalog.sampler_s"] += dur
        # second pass: self times need every child's duration
        for i, rec in enumerate(spans):
            fn = rec[FN]
            dur = rec[T1] - rec[T0]
            if fn == "linalg.span":
                m["linalg.span_self_s"] += dur - child[i]
            elif fn in SERIES and not in_series[i]:
                m["liealg.series_s"] += dur
            elif fn == "schur.free_presentation":
                m["schur.presentation_calls"] += 1
                m["schur.presentations_built"] += has_free[i]
                m["schur.presentation_self_s"] += dur - child[i]
            elif fn == "schur.exterior_center":
                m["schur.exterior_center_s"] += dur - child_present[i]
            elif fn == "classify.capability_structural":
                m["classify.structural_s"] += dur - child_schur[i]
        return m
