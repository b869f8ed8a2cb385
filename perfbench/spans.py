"""Per-layer spans and counts, recorded from outside the program.

``Tracer.install()`` rebinds each entry point below, in every ``diagbase``
module that holds it under its own name (``cli`` binds
``minimal_base_size``, ``baseengine`` binds ``omega_iter``, and so on), to a
wrapper that records a span: name, op id, parent span, start and end.
Spans stay in memory; ``write_spans`` stores them when the run ends.  A
layer's self time is its spans' durations minus the time their child spans
cover.  ``uninstall()`` restores the original bindings.

An entry point that no longer exists is skipped, and the metrics that
depend on it are reported absent rather than failing the run; so are the
counts of an entry point whose arguments no longer have the expected shape.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# (module, attribute path, span name); the span name is the metric prefix
ENTRY_POINTS = [
    ("diagbase.catalog", "SimpleGroup.__init__", "catalog.build"),
    ("diagbase.catalog", "SimpleGroup.validate", "catalog.validate"),
    ("diagbase.catalog", "AutTable.__init__", "catalog.aut_table"),
    ("diagbase.perm", "GroupTable.generate", "perm.generate"),
    ("diagbase.perm", "GroupTable.conjugacy_classes", "perm.classes"),
    ("diagbase.diag", "build_group", "diag.build_group"),
    ("diagbase.diag", "omega_iter", "diag.omega_iter"),
    ("diagbase.diag", "gd_orbit_reps", "diag.orbit_reps"),
    ("diagbase._accel", "filter_candidates", "accel.filter"),
    ("diagbase._accel", "detect_per_tuple", "accel.detect"),
    ("diagbase._accel", "count_per_tuple", "accel.count"),
    ("diagbase.baseengine", "_solve_symbolic", "baseengine.solver"),
    ("diagbase.baseengine", "is_base", "baseengine.is_base"),
    ("diagbase.baseengine", "minimal_base_size", "baseengine.min_base"),
    ("diagbase.baseengine", "construct_auto", "baseengine.construct"),
    ("diagbase.prob", "prime_order_candidates", "prob.candidates"),
    ("diagbase.prob", "exact_nonbase_pair_proportion", "prob.exact"),
    ("diagbase.prob", "q2_bound_exact", "prob.exact"),
    ("diagbase.prob", "monte_carlo_nonbase", "prob.mc"),
    ("diagbase.prob", "RowCodedGroup.class_data", "prob.class_oracle"),
    ("diagbase.report", "make_report", "report.render"),
    ("diagbase.report", "render", "report.render"),
    ("diagbase.cli", "main", "cli.main"),
]

# name -> (unit, better); the per-layer metrics of BENCHMARK.json
METRICS = {
    "catalog.groups_built": ("count", "lower"),
    "catalog.build_s": ("s", "lower"),
    "catalog.validate_s": ("s", "lower"),
    "catalog.aut_table_s": ("s", "lower"),
    "perm.generate_calls": ("count", "lower"),
    "perm.generate_s": ("s", "lower"),
    "perm.classes_s": ("s", "lower"),
    "diag.build_group_s": ("s", "lower"),
    "diag.omega_points": ("count", "lower"),
    "diag.orbit_reps_s": ("s", "lower"),
    **{f"accel.{op}.{m}": unit
       for op in ("filter", "detect", "count")
       for m, unit in (("calls", ("count", "lower")),
                       ("pairs", ("count", "lower")),
                       ("coord_checks", ("count", "lower")),
                       ("s", ("s", "lower")),
                       ("pairs_per_s", ("1/s", "higher")))},
    "accel.filter.survival": ("1", "lower"),
    "accel.detect.hit_ratio": ("1", "higher"),
    "baseengine.solver_calls": ("count", "lower"),
    "baseengine.solver_coords": ("count", "lower"),
    "baseengine.solver_s": ("s", "lower"),
    "baseengine.is_base_s": ("s", "lower"),
    "baseengine.min_base_s": ("s", "lower"),
    "baseengine.construct_s": ("s", "lower"),
    "prob.candidates_calls": ("count", "lower"),
    "prob.candidates_s": ("s", "lower"),
    "prob.exact_s": ("s", "lower"),
    "prob.mc_samples": ("count", "lower"),
    "prob.mc_samples_per_s": ("1/s", "higher"),
    "prob.class_oracle_s": ("s", "lower"),
    "prob.class_oracle_members": ("count", "lower"),
    "report.render_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead": ("1", "higher"),
}


def _bind(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _kernel_counts(op):
    def count(tracer, fn, args, kwargs, result):
        a = _bind(fn, args, kwargs)
        n_cand, tuples = len(a["cand_a"]), a["tuples"]
        pairs = n_cand * len(tuples)
        c = tracer.counts
        c[f"accel.{op}.pairs"] += pairs
        c[f"accel.{op}.coord_checks"] += pairs * tuples.shape[1]
        if op == "filter":
            c["accel.filter.candidates"] += n_cand
            c["accel.filter.survivors"] += int(result.sum())
        elif op == "detect":
            c["accel.detect.tuples"] += len(tuples)
            c["accel.detect.hits"] += int(result.sum())
    return count


def _solver_counts(tracer, fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    tracer.counts["baseengine.solver_coords"] += len(a["tuples"]) * a["g"].k


def _mc_counts(tracer, fn, args, kwargs, result):
    tracer.counts["prob.mc_samples"] += _bind(fn, args, kwargs)["samples"]


def _oracle_counts(tracer, fn, args, kwargs, result):
    tracer.counts["prob.class_oracle_members"] += sum(
        c["size"] for c in result)


COUNTERS = {
    "accel.filter": _kernel_counts("filter"),
    "accel.detect": _kernel_counts("detect"),
    "accel.count": _kernel_counts("count"),
    "baseengine.solver": _solver_counts,
    "prob.mc": _mc_counts,
    "prob.class_oracle": _oracle_counts,
}
# metrics that need a span's counter, absent if its arguments or result no
# longer have the shape the counter reads
COUNTED = {
    **{f"accel.{op}": tuple(f"accel.{op}.{m}" for m in
                            ("pairs", "coord_checks", "pairs_per_s"))
       for op in ("filter", "detect", "count")},
    "baseengine.solver": ("baseengine.solver_coords",),
    "prob.mc": ("prob.mc_samples", "prob.mc_samples_per_s"),
    "prob.class_oracle": ("prob.class_oracle_members",),
}
COUNTED["accel.filter"] += ("accel.filter.survival",)
COUNTED["accel.detect"] += ("accel.detect.hit_ratio",)


class Tracer:
    def __init__(self):
        self.spans = []          # [op, name, parent index, start, end]
        self.counts = defaultdict(int)
        self.calls = defaultdict(int)
        self.op = -1
        self._stack = []
        self._undo = []
        self.missing = []
        self.uncounted = set()

    # -- recording ------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            if name == "cli.main":
                self.op += 1
            idx = len(self.spans)
            span = [self.op, name, parent, time.perf_counter(), None]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            self.calls[name] += 1
            if counter is not None and name not in self.uncounted:
                try:
                    counter(self, fn, args, kwargs, result)
                except (TypeError, KeyError, AttributeError):
                    self.uncounted.add(name)
            return result
        return wrapper

    def _yield_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts["diag.omega_points"] += 1
                yield item
        return wrapper

    # -- installing -----------------------------------------------------------

    def install(self):
        self.missing = []
        for modname, path, name in ENTRY_POINTS:
            module = sys.modules.get(modname)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name \
                else module
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{modname}.{path}")
                continue
            raw = vars(owner)[attr]
            if name == "diag.omega_iter":
                wrap = self._yield_counter
            else:
                wrap = functools.partial(self._span_wrapper, name)
            if isinstance(raw, classmethod):
                self._rebind(owner, attr, raw, classmethod(wrap(raw.__func__)))
            elif owner_name:
                self._rebind(owner, attr, raw, wrap(raw))
            else:
                new = wrap(raw)
                for mod in _diagbase_modules():
                    if vars(mod).get(attr) is raw:
                        self._rebind(mod, attr, raw, new)

    def _rebind(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results --------------------------------------------------------------

    def self_times(self):
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for op, name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (op, name, parent, start, end) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def total_times(self):
        out = defaultdict(float)
        for op, name, parent, start, end in self.spans:
            out[name] += end - start
        return out

    def metrics(self, overhead):
        """Per-layer metrics by name; absent when an entry point is gone."""
        st, tt, c, calls = (self.self_times(), self.total_times(),
                            self.counts, self.calls)

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "catalog.groups_built": calls["catalog.build"],
            "catalog.build_s": st["catalog.build"],
            "catalog.validate_s": st["catalog.validate"],
            "catalog.aut_table_s": st["catalog.aut_table"],
            "perm.generate_calls": calls["perm.generate"],
            "perm.generate_s": st["perm.generate"],
            "perm.classes_s": st["perm.classes"],
            "diag.build_group_s": st["diag.build_group"],
            "diag.omega_points": c["diag.omega_points"],
            "diag.orbit_reps_s": st["diag.orbit_reps"],
            "baseengine.solver_calls": calls["baseengine.solver"],
            "baseengine.solver_coords": c["baseengine.solver_coords"],
            "baseengine.solver_s": st["baseengine.solver"],
            "baseengine.is_base_s": st["baseengine.is_base"],
            "baseengine.min_base_s": st["baseengine.min_base"],
            "baseengine.construct_s": st["baseengine.construct"],
            "prob.candidates_calls": calls["prob.candidates"],
            "prob.candidates_s": st["prob.candidates"],
            "prob.exact_s": st["prob.exact"],
            "prob.mc_samples": c["prob.mc_samples"],
            "prob.mc_samples_per_s": ratio(c["prob.mc_samples"],
                                           tt["prob.mc"]),
            "prob.class_oracle_s": st["prob.class_oracle"],
            "prob.class_oracle_members": c["prob.class_oracle_members"],
            "report.render_s": st["report.render"],
            "cli.self_s": st["cli.main"],
            "trace.overhead": overhead,
        }
        for op in ("filter", "detect", "count"):
            span = f"accel.{op}"
            m[f"{span}.calls"] = calls[span]
            m[f"{span}.pairs"] = c[f"{span}.pairs"]
            m[f"{span}.coord_checks"] = c[f"{span}.coord_checks"]
            m[f"{span}.s"] = st[span]
            m[f"{span}.pairs_per_s"] = ratio(c[f"{span}.pairs"], tt[span])
        m["accel.filter.survival"] = ratio(c["accel.filter.survivors"],
                                           c["accel.filter.candidates"])
        m["accel.detect.hit_ratio"] = ratio(c["accel.detect.hits"],
                                            c["accel.detect.tuples"])
        for gone in self.absent_metrics():
            m.pop(gone, None)
        return m

    def absent_metrics(self):
        # a span's metrics share its name as prefix, except these
        owned = {"catalog.build": ("catalog.build_s", "catalog.groups_built"),
                 "diag.omega_iter": ("diag.omega_points",),
                 "cli.main": ("cli.self_s",)}
        prefixes = tuple(p for modname, path, name in ENTRY_POINTS
                         if f"{modname}.{path}" in self.missing
                         for p in owned.get(name, (name,)))
        uncounted = {m for name in self.uncounted for m in COUNTED[name]}
        return [m for m in METRICS if m in uncounted
                or (prefixes and m.startswith(prefixes))]

    def write_spans(self, path):
        """One line per span: op, name, parent, start, end (seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tname\tparent\tstart\tend\n")
            for op, name, parent, start, end in self.spans:
                fh.write(f"{op}\t{name}\t{parent}\t{start:.9f}\t{end:.9f}\n")


def _diagbase_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "diagbase" or n.startswith("diagbase."))]
