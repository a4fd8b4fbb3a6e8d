"""Span tracer for the traced benchmark run.

The library has no tracing of its own, so this module wraps its public
functions and methods by name with monkeypatching, from outside the library.
Every call of a wrapped target becomes one span held in memory:
``[name, start, end, parent, op, rows, extra]``, where ``parent`` is the index
of the enclosing span (-1 at top level), ``op`` the index of the CLI
invocation within the pass, ``rows`` the number of rows passed in and
``extra`` a per-target count (bytes written, base-oracle rows). Self time is a
span's duration minus the time its child spans cover.

A target that a refactor renames or removes is reported as absent (``None``),
never as zero and never as a crash.
"""

import csv
import functools
import inspect
import os
import sys
import time

import numpy as np

# (layer, target, stats). A target is a module-level function, a
# "Class.method", or a bare method name, which stands for that method on every
# gallery class (QuasiconvexFunction and its subclasses) of the module.
TARGETS = (
    ("geometry", "TwoBallHullSet.signed_boundary_distance", ("calls", "rows", "self_s")),
    ("geometry", "DilatedSet.signed_boundary_distance", ("calls", "rows", "self_s")),
    ("geometry", "TwoBallHullSet.project", ("calls", "rows", "self_s")),
    ("geometry", "ball_lens_project", ("calls", "rows", "self_s")),
    ("geometry", "IntersectionSet.project", ("calls", "rows", "self_s")),
    ("geometry", "sample_boundary", ("calls", "rows", "self_s")),
    ("geometry", "outward_normals", ("calls", "rows", "self_s")),
    ("functions", "sublevel", ("calls", "rows", "self_s")),
    ("functions", "level_project", ("calls", "rows", "self_s")),
    ("functions", "level_distance", ("calls", "rows", "self_s")),
    ("functions", "eval", ("calls", "rows", "self_s")),
    ("functions", "slope_values", ("calls", "rows", "self_s")),
    ("regularization", "RegularizedFunction.eval", ("calls", "rows", "self_s")),
    ("regularization", "RegularizedFunction.level_project", ("calls", "rows", "self_s")),
    ("regularization", "complement_projection", ("calls", "rows", "self_s")),
    ("regularization", "prox_radius_estimate", ("calls", "rows", "self_s")),
    ("sweeping", "forward_catching_up_batch", ("calls", "rows", "self_s")),
    ("sweeping", "reverse_catching_up", ("calls", "rows", "self_s")),
    ("sweeping", "Trajectory.boundary_residuals", ("calls", "rows", "self_s")),
    ("sweeping", "flow_map", ("calls", "rows", "self_s")),
    ("sweeping", "trajectory_to_csv", ("calls", "rows", "self_s")),
    ("verification", "verify_H1_H3", ("self_s",)),
    ("verification", "estimate_slope_floor", ("self_s",)),
    ("verification", "estimate_function_lipschitz", ("self_s",)),
    ("verification", "verify_moving_map_lipschitz", ("self_s",)),
    ("verification", "probe_steepest_descent", ("self_s",)),
    ("verification", "run_verification_suite", ("self_s",)),
    ("cli", "main", ("calls", "self_s")),
)

LENS = "geometry.ball_lens_project"
CSV_WRITER = "sweeping.trajectory_to_csv"
SUBLEVEL = "functions.sublevel"
REG_EVAL = "regularization.RegularizedFunction.eval"
LEVEL_DISTANCE = "functions.level_distance"
# sample_boundary takes a resolution, not points; its rows are the points it
# returns.
ROWS_FROM_RESULT = {"geometry.sample_boundary"}

# Metrics derived from the spans of one or more targets, with their units.
DERIVED = {
    LENS + ".base_rows_per_row": "rows/row",
    SUBLEVEL + ".calls_per_traj_row": "calls/row",
    REG_EVAL + ".level_dist_rows_per_row": "rows/row",
    CSV_WRITER + ".bytes": "bytes",
}
UNITS = {"calls": "count", "rows": "rows", "self_s": "s"}


def metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    out = {}
    for layer, target, stats in TARGETS:
        for stat in stats:
            out[f"{layer}.{target}.{stat}"] = UNITS[stat]
    out.update(DERIVED)
    out["cli.bytes_written"] = "bytes"
    out["trace.overhead"] = "ratio"
    return out


def _row_count(args, kwargs) -> int:
    """Rows passed in: the first 2-d array argument, or a trajectory's samples."""
    for a in (*args, *kwargs.values()):
        if isinstance(a, np.ndarray) and a.ndim == 2:
            return a.shape[0]
        times = getattr(a, "times", None)
        if isinstance(times, np.ndarray):
            return len(times)
    return 1


def _package_modules() -> dict:
    return {name.rpartition(".")[2]: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "sweepdescent"
                                    or name.startswith("sweepdescent."))}


def _resolve(modules: dict, layer: str, target: str) -> list:
    """The (owner, attribute) pairs to patch; empty when the target is absent."""
    mod = modules.get(layer)
    if mod is None:
        return []
    if "." in target:
        cls_name, meth = target.split(".", 1)
        cls = getattr(mod, cls_name, None)
        if isinstance(cls, type) and inspect.isfunction(cls.__dict__.get(meth)):
            return [(cls, meth)]
        return []
    fn = mod.__dict__.get(target)
    if inspect.isfunction(fn):
        # Callers bind the function by `from .module import name`, so patch
        # every module of the package that holds this very object.
        return [(m, target) for m in modules.values() if m.__dict__.get(target) is fn]
    base = mod.__dict__.get("QuasiconvexFunction")
    if not isinstance(base, type):
        return []
    return [(cls, target) for cls in list(mod.__dict__.values())
            if isinstance(cls, type) and issubclass(cls, base)
            and cls.__module__ == mod.__name__
            and inspect.isfunction(cls.__dict__.get(target))]


class Tracer:
    """Wraps the targets of the imported package and records spans."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patches = []
        self.present = set()

    def install(self) -> None:
        modules = _package_modules()
        for layer, target, _ in TARGETS:
            name = f"{layer}.{target}"
            for owner, attr in _resolve(modules, layer, target):
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
                self.present.add(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans = []

    def _wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter
        from_result = name in ROWS_FROM_RESULT
        signature = inspect.signature(fn)
        csv_path = name == CSV_WRITER and "path" in signature.parameters
        lens = name == LENS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    0 if from_result else _row_count(args, kwargs), 0]
            if lens:
                args = tuple(_counting(a, span) if callable(a) else a for a in args)
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if from_result:
                span[5] = len(out)
            if csv_path:
                span[6] = os.path.getsize(
                    signature.bind(*args, **kwargs).arguments["path"])
            return out

        return traced

    def summary(self) -> dict:
        """Per-target calls, rows, self time and extra counts of the kept spans."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        agg = {name: [0, 0, 0.0, 0] for name in self.present}
        ld_under_eval = 0
        for i, s in enumerate(spans):
            a = agg[s[0]]
            a[0] += 1
            a[1] += s[5]
            a[2] += (s[2] - s[1]) - covered[i]
            a[3] += s[6]
            if s[0] == LEVEL_DISTANCE and s[3] >= 0 and spans[s[3]][0] == REG_EVAL:
                ld_under_eval += s[5]
        return {"agg": agg, "ld_under_eval": ld_under_eval}

    def metrics(self, summary: dict) -> dict:
        """Metric values by name; None marks a target that is absent."""
        agg = summary["agg"]

        def get(name, i):
            return None if name not in agg else agg[name][i]

        def ratio(num, den):
            if num is None or den is None:
                return None
            return num / den if den else 0.0

        out = {}
        for layer, target, stats in TARGETS:
            for stat in stats:
                out[f"{layer}.{target}.{stat}"] = get(
                    f"{layer}.{target}", ("calls", "rows", "self_s").index(stat))
        out[LENS + ".base_rows_per_row"] = ratio(get(LENS, 3), get(LENS, 1))
        out[SUBLEVEL + ".calls_per_traj_row"] = ratio(get(SUBLEVEL, 0),
                                                      get(CSV_WRITER, 1))
        out[REG_EVAL + ".level_dist_rows_per_row"] = ratio(
            summary["ld_under_eval"] if LEVEL_DISTANCE in agg else None,
            get(REG_EVAL, 1))
        out[CSV_WRITER + ".bytes"] = get(CSV_WRITER, 3)
        return out

    def inclusive_shares(self, wall: float) -> list:
        """(target, share of wall) for each target's outermost spans, largest first.

        A span nested in a span of the same target is covered by that span, so
        recursion and the base function inside a localized one count once.
        """
        spans = self.spans
        total = {}
        for s in spans:
            p = s[3]
            while p >= 0 and spans[p][0] != s[0]:
                p = spans[p][3]
            if p < 0:
                total[s[0]] = total.get(s[0], 0.0) + (s[2] - s[1])
        return sorted(((n, t / wall) for n, t in total.items()),
                      key=lambda item: -item[1])

    def group_share(self, names, wall: float) -> float:
        """Share of wall covered by the union of the spans of several targets."""
        spans = self.spans
        names = set(names)
        inside = [False] * len(spans)
        total = 0.0
        for i, s in enumerate(spans):
            p = s[3]
            inside[i] = s[0] in names or (p >= 0 and inside[p])
            if s[0] in names and not (p >= 0 and inside[p]):
                total += s[2] - s[1]
        return total / wall


def write_spans(spans, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "start", "end", "parent", "op", "rows", "extra"])
        w.writerows(spans)


def _counting(fn, span):
    """Wraps a base-oracle callable so the lens span counts the rows it sends."""

    def counted(*args, **kwargs):
        span[6] += _row_count(args, kwargs)
        return fn(*args, **kwargs)

    return counted
