"""Spans around the calls into each layer, recorded from outside the program.

install() wraps each hooked function and rebinds every module-level name
in the acspectra package that refers to it (the family modules and
harness_cli import the set functions by name, so wrapping interval_sets
alone would miss most calls); uninstall() restores the originals, so
untraced operations run the unmodified program.  A hooked name that does
not exist is recorded as absent, never an error.

A span is [name, start, end, parent index, info]; spans of one operation
sit under its root span "op".  Self time is a span's duration minus the
durations of its direct children.  Counts (calls, points, items) are taken
at a layer's entry, i.e. at spans whose parent belongs to another layer.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
from collections import defaultdict

perf = time.perf_counter


def _points(args, kwargs):
    zs = args[1] if len(args) > 1 else kwargs.get("zs")
    size = getattr(zs, "size", None)
    return int(size) if size is not None else len(zs)


def _sweep_key(args, kwargs):
    """(operator, grid, site, schedule) of a boundary_*_grid call; the site
    compares as a float and an omitted schedule equals None."""
    grid = args[1]
    raw = grid.tobytes() if hasattr(grid, "tobytes") else repr(grid).encode()
    schedule = args[3] if len(args) > 3 else kwargs.get("schedule")
    return repr(args[0]), hashlib.sha1(raw).hexdigest(), float(args[2]), repr(schedule)


def _oracle_mode(args, kwargs):
    return kwargs.get("mode", args[3] if len(args) > 3 else "formula") == "oracle"


def _set_size(x):
    for attr in ("intervals", "arcs"):
        if hasattr(x, attr):
            return len(getattr(x, attr)) + len(x.isolated_points)
    if isinstance(x, (list, tuple)):
        return len(x)
    return 0


def _items(args, kwargs):
    return sum(_set_size(a) for a in list(args) + list(kwargs.values()))


FAMILIES = ("jacobi", "cmv", "schrodinger")
SET_FUNCTIONS = ("canonicalize", "set_algebra", "_line_algebra", "essential_closure",
                 "circle_set", "full_circle", "points_hull", "angles_hull",
                 "set_to_json", "set_from_json", "fat_density_report",
                 "lebesgue_measure", "equivalent_supports",
                 "CircleArcSet.essential_closure", "CircleArcSet._to_line",
                 "CircleArcSet._from_line", "GeneratedFatSet.truncated_set")

# (module, attribute path, span name, info function)
SPAN_HOOKS = (
    [("acspectra.jacobi", "_weyl_grid", "jacobi.kernel", _points),
     ("acspectra.cmv", "_M11_grid", "cmv.kernel", _points),
     ("acspectra.cmv", "_m_grid", "cmv.kernel", _points),
     ("acspectra.schrodinger", "_m_grid", "schrodinger.kernel", _points),
     ("acspectra.jacobi", "boundary_weyl_grid", "sweep", _sweep_key),
     ("acspectra.cmv", "boundary_cmv_grid", "sweep", _sweep_key),
     ("acspectra.schrodinger", "boundary_schrodinger_grid", "sweep", _sweep_key),
     ("acspectra.boundary_analysis", "richardson_sequence", "sweep.richardson", None)]
    + [(f"acspectra.{fam}", fn, f"derived.{fn}", None) for fam in FAMILIES
       for fn in ("ac_spectrum", "reflectionless_on", "multiplicity_sets")]
    + [("acspectra.interval_sets", fn, "interval_sets", _items) for fn in SET_FUNCTIONS]
    + [("acspectra.cmv", "build_truncation", "oracle.build_truncation", None),
       ("scipy.linalg", "solve_banded", "oracle.solve", None),
       ("numpy.linalg", "eigvals", "oracle.eig", None),
       ("numpy.linalg", "eigvalsh", "oracle.eig", None),
       ("acspectra.jacobi", "green_inverse_identity_residual", "oracle.identity", None),
       ("acspectra.schrodinger", "green_identity_residual", "oracle.identity", None),
       ("acspectra.cmv", "m11_boundary_identity_residual", "oracle.identity", None),
       ("acspectra.cmv", "matrix_M_and_R", "oracle.identity", None),
       ("acspectra.cmv", "eigenvalue_angles", "oracle.identity", None),
       ("acspectra.cmv", "support_arcs", "oracle.identity", None),
       ("acspectra.jacobi", "discriminant", "oracle.identity", None),
       ("acspectra.schrodinger", "discriminant", "oracle.identity", None),
       ("acspectra.cmv", "discriminant", "oracle.identity", None),
       ("acspectra.harness_cli", "run_config", "harness_cli.report", None),
       ("acspectra.harness_cli", "spec_main", "harness_cli.report", None),
       ("acspectra.harness_cli", "verify_inclusion", "harness_cli.report", None),
       ("acspectra.harness_cli", "_identity_residuals", "harness_cli.report", None),
       ("acspectra.harness_cli", "_csv_for", "harness_cli.csv", None),
       ("acspectra.jacobi", "xi_csv", "harness_cli.csv", None),
       ("acspectra.cmv", "angle_csv", "harness_cli.csv", None),
       ("acspectra.schrodinger", "xi_csv", "harness_cli.csv", None),
       ("acspectra.harness_cli", "SpectralReport.to_json", "harness_cli.json", None),
       ("json", "dumps", "harness_cli.json", None)])

# counted, not timed: called once per grid point from Python loops
COUNT_HOOKS = [("acspectra.interval_sets", "RealIntervalSet.contains"),
               ("acspectra.interval_sets", "CircleArcSet.contains")]

# observed: the returned ok mask gives the undetermined points
PHASE_HOOKS = [("acspectra.jacobi", "xi_grid"), ("acspectra.cmv", "Xi11_grid"),
               ("acspectra.schrodinger", "xi_grid")]


def _resolve(module_name: str, path: str):
    """(owner, attribute, raw attribute) or None when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *heads, attr = path.split(".")
    for head in heads:
        owner = getattr(owner, head, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if raw is None else (owner, attr, raw)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.contains_calls = 0
        self.phase_points = 0
        self.phase_undetermined = 0
        self.absent = []
        self.bindings = 0
        self._saved = []

    # -- wrappers ---------------------------------------------------------
    def _span(self, name, fn, info, when=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   info(args, kwargs) if info else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf()
                stack.pop()
        return wrapper

    def _counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.contains_calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def _phase(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            ok = out[2]
            self.phase_points += int(ok.size)
            self.phase_undetermined += int(ok.size - ok.sum())
            return out
        return wrapper

    # -- installation -----------------------------------------------------
    def _targets(self):
        hooks = [(m, p, (lambda fn, n=n, i=i: self._span(n, fn, i))) for m, p, n, i in SPAN_HOOKS]
        hooks += [("acspectra.cmv", "M11",
                   lambda fn: self._span("oracle.identity", fn, None, _oracle_mode))]
        hooks += [(m, p, self._counter) for m, p in COUNT_HOOKS]
        hooks += [(m, p, self._phase) for m, p in PHASE_HOOKS]
        return hooks

    def install(self):
        """Wrap every hooked function; returns the number of absent hooks."""
        self.absent, self.bindings = [], 0
        modules = [m for name, m in list(sys.modules.items())
                   if name == "acspectra" or name.startswith("acspectra.")]
        for module_name, path, make in self._targets():
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}:{path}")
                continue
            owner, attr, raw = found
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapped = make(fn)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
            self.bindings += 1
            if isinstance(owner, type):
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn and not (mod is owner and name == attr):
                        self._saved.append((mod, name, fn))
                        setattr(mod, name, wrapped)
                        self.bindings += 1
        return len(self.absent)

    def run_op(self, fn):
        """Call fn under a root span 'op'; returns (result, seconds, index of the root)."""
        first = len(self.spans)
        rec = ["op", 0.0, 0.0, -1, None]
        self.spans.append(rec)
        self.stack.append(first)
        rec[1] = perf()
        try:
            return fn(), first
        finally:
            rec[2] = perf()
            self.stack.pop()

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []


class LayerStats:
    """Per-layer aggregates over the traced operations of a run."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.amount = defaultdict(int)      # points (kernels) or items (sets)
        self.sweep_distinct = 0
        self.ops = 0

    def add_op(self, spans, first: int):
        """Fold the spans of one operation, spans[first:], into the totals."""
        self.ops += 1
        keys = set()
        for i in range(first, len(spans)):
            name, t0, t1, parent, info = spans[i]
            dur = t1 - t0
            self.self_s[name] += dur
            if parent >= 0:
                self.self_s[spans[parent][0]] -= dur
            if parent >= 0 and spans[parent][0] == name:
                continue
            self.calls[name] += 1
            if name == "sweep":
                keys.add(info)
            elif isinstance(info, int):
                self.amount[name] += info
        self.sweep_distinct += len(keys)


def layer_metrics(stats: LayerStats, tracer: Tracer, traced_s: float, untraced_s: float,
                  written: int) -> dict:
    """The per-layer metrics of BENCHMARK.json: times and counts per op;
    written is the bytes of output files of the traced operations."""
    n = max(stats.ops, 1)
    s, c, a = stats.self_s, stats.calls, stats.amount
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for fam in FAMILIES:
        k = f"{fam}.kernel"
        put(f"{k}.calls", c[k] / n, "count/op")
        put(f"{k}.self_s", s[k] / n, "s/op")
        put(f"{k}.points", a[k] / n, "count/op")
        put(f"{k}.points_per_s", a[k] / s[k] if s[k] > 0 else 0.0, "1/s")
    put("sweep.calls", c["sweep"] / n, "count/op")
    put("sweep.distinct", stats.sweep_distinct / n, "count/op")
    put("sweep.useful_ratio", stats.sweep_distinct / c["sweep"] if c["sweep"] else 0.0, "ratio")
    put("sweep.self_s", s["sweep"] / n, "s/op")
    put("sweep.richardson_s", s["sweep.richardson"] / n, "s/op")
    for fn in ("ac_spectrum", "reflectionless_on", "multiplicity_sets"):
        put(f"derived.{fn}.self_s", s[f"derived.{fn}"] / n, "s/op")
    put("derived.undetermined_ratio",
        tracer.phase_undetermined / tracer.phase_points if tracer.phase_points else 0.0, "ratio")
    put("interval_sets.calls", c["interval_sets"] / n, "count/op")
    put("interval_sets.self_s", s["interval_sets"] / n, "s/op")
    put("interval_sets.items_in", a["interval_sets"] / n, "count/op")
    put("interval_sets.contains_calls", tracer.contains_calls / n, "count/op")
    put("oracle.build_truncation.calls", c["oracle.build_truncation"] / n, "count/op")
    put("oracle.build_truncation.self_s", s["oracle.build_truncation"] / n, "s/op")
    put("oracle.banded_solves", c["oracle.solve"] / n, "count/op")
    put("oracle.solve_s", s["oracle.solve"] / n, "s/op")
    put("oracle.eig_s", s["oracle.eig"] / n, "s/op")
    put("oracle.identity_s", s["oracle.identity"] / n, "s/op")
    put("harness_cli.report.self_s", s["harness_cli.report"] / n, "s/op")
    put("harness_cli.csv.self_s", s["harness_cli.csv"] / n, "s/op")
    put("harness_cli.json_s", s["harness_cli.json"] / n, "s/op")
    put("harness_cli.bytes_written", written / n, "bytes/op")
    put("trace.op_s", traced_s / n, "s/op")
    put("trace.untraced_s", s["op"] / n, "s/op")
    put("trace.overhead_ratio", traced_s / untraced_s if untraced_s > 0 else 0.0, "ratio")
    put("trace.absent_hooks", len(tracer.absent), "count")
    put("trace.bindings", tracer.bindings, "count")
    return out
