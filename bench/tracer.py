"""Spans and counters around every public function of the sncalc modules.

Installed from outside the package: each public function is wrapped at
every ``sncalc`` module binding that holds it (``from .linalg import
det_exact`` copies the binding, so patching ``linalg`` alone would miss the
callers).  Spans are kept in memory as (op, parent, name, start, end) and
written out by ``dump``; a span's self time is its duration minus the time
its child spans cover.  ``DualGraph`` construction, ``DualGraph.ids`` and
``QuadExt`` arithmetic get count-only hooks, since they run too often for a
span each.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import operator
import statistics
import sys
from array import array
from collections import defaultdict
from time import perf_counter

MODULES = (
    "cli", "scenarios", "casetable", "reports", "calculus",
    "surgery", "lattice", "projective", "linalg", "graphs",
)
QUADEXT_OPS = (
    "__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
)
COUNTERS = ("graphs.DualGraph.init.calls", "graphs.DualGraph.ids.calls", "projective.QuadExt.ops")


def _transform_bits(result) -> int:
    u, _, v = result
    return max((abs(x).bit_length() for m in (u, v) for row in m for x in row), default=0)


def _fiber_trace_len(result) -> int:
    ok, trace = result
    return len(trace) if ok else 0


# values read off a function's result: name -> (metric, reader, fold per op)
RESULT_HOOKS = {
    "linalg.smith_normal_form": ("linalg.smith_normal_form.transform_bits", _transform_bits, max),
    "lattice.solve_curve_class": ("lattice.solve_curve_class.results", len, operator.add),
    "surgery.is_valid_fiber": ("surgery.is_valid_fiber.trace_len", _fiber_trace_len, operator.add),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_op = array("l")
        self.span_parent = array("l")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.op = -1
        self.op_tags: list[tuple[int, bool]] = []  # (n, accept) per op
        self.op_counts: list[list[int]] = []
        self.op_attrs: list[dict[str, int]] = []
        self.counts = [0] * len(COUNTERS)
        self._undo: list[tuple[object, str, object]] = []

    # -- ops ------------------------------------------------------------

    def begin_op(self, n: int, accept: bool) -> None:
        self.op += 1
        self.op_tags.append((n, accept))
        self.op_attrs.append({})
        self.counts[:] = [0] * len(COUNTERS)

    def end_op(self) -> None:
        self.op_counts.append(list(self.counts))

    # -- installation ---------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _span(self, name: str, fn):
        ix = len(self.names)
        self.names.append(name)
        ops, parents, names = self.span_op, self.span_parent, self.span_name
        starts, ends, stack = self.span_start, self.span_end, self.stack
        hook = RESULT_HOOKS.get(name)

        def traced(*args, **kwargs):
            i = len(starts)
            ops.append(self.op)
            parents.append(stack[-1])
            names.append(ix)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if hook is not None:
                attr, read, fold = hook
                attrs = self.op_attrs[self.op]
                value = read(result)
                attrs[attr] = fold(attrs[attr], value) if attr in attrs else value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _counter(self, k: int, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[k] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        mods = {m: importlib.import_module(f"sncalc.{m}") for m in MODULES}
        wrapped = {}
        for m, mod in mods.items():
            for attr, value in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                ):
                    wrapped[value] = self._span(f"{m}.{attr}", value)
        for modname, mod in list(sys.modules.items()):
            if modname != "sncalc" and not modname.startswith("sncalc."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(mod, attr, wrapped[value])

        report = mods["reports"].Report
        self._set(report, "render", self._span("reports.Report.render", report.render))
        dual = mods["graphs"].DualGraph
        self._set(dual, "__post_init__", self._counter(0, dual.__post_init__))
        self._set(dual, "ids", property(self._counter(1, dual.ids.fget)))
        quad = mods["projective"].QuadExt
        for attr in QUADEXT_OPS:
            self._set(quad, attr, self._counter(2, quad.__dict__[attr]))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results --------------------------------------------------------

    def self_times(self) -> array:
        covered = array("d", bytes(8 * len(self.span_start)))
        for i in range(len(self.span_start)):
            p = self.span_parent[i]
            if p >= 0:
                covered[p] += self.span_end[i] - self.span_start[i]
        return array(
            "d",
            (self.span_end[i] - self.span_start[i] - covered[i] for i in range(len(covered))),
        )

    def per_op(self) -> list[dict[str, float]]:
        """For each op: '<fn>.self_ms', '<fn>.calls', '<module>.self_ms',
        '<module>.calls', the counters and the result attributes."""
        rows: list[dict[str, float]] = [defaultdict(float) for _ in self.op_tags]
        for i, own in enumerate(self.self_times()):
            name = self.names[self.span_name[i]]
            row = rows[self.span_op[i]]
            module = name.split(".", 1)[0]
            row[f"{name}.self_ms"] += own * 1e3
            row[f"{name}.calls"] += 1
            row[f"{module}.self_ms"] += own * 1e3
            row[f"{module}.calls"] += 1
        for row, counts, attrs in zip(rows, self.op_counts, self.op_attrs):
            row.update(zip(COUNTERS, counts))
            row.update(attrs)
        return rows

    def layer_metrics(self, names, sizes=()) -> dict[str, float]:
        """Median per op of each named per-layer metric.

        A '.n<k>' suffix restricts the median to ops of input size k, for the
        k in `sizes` (the tree sizes of a workload; 0 elsewhere).
        'surgery.contraction_yield' is taken over accepted ops only.
        """
        rows = self.per_op()
        out = {}
        for name in names:
            base, sel = name, list(zip(rows, self.op_tags))
            head, _, last = name.rpartition(".")
            if last[:1] == "n" and last[1:].isdigit():
                base, size = head, int(last[1:])
                sel = [(r, t) for r, t in sel if t[0] == size and size in sizes]
            if base == "surgery.contraction_yield":
                values = [
                    r["surgery.is_valid_fiber.trace_len"] / r["surgery.contract_minus_one.calls"]
                    for r, (_, accept) in sel
                    if accept and r.get("surgery.contract_minus_one.calls")
                ]
            else:
                values = [r.get(base, 0) for r, _ in sel]
            out[name] = statistics.median(values) if values else 0.0
        return out

    def dump(self, path) -> int:
        """Write every span as a tab-separated line; returns the span count."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("op\tid\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                f.write(
                    f"{self.span_op[i]}\t{i}\t{self.span_parent[i]}\t"
                    f"{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
        return len(self.span_start)
