"""Spans around calls into nleig layers, and the per-layer metrics built from them.

Spans are recorded from outside the package: the benchmark opens one around
each call it makes, and in traced mode it also swaps a few module-level names
that nleig functions call through for wrappers that open a span.  Spans live
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

import nleig.branches
import nleig.critical
import nleig.period
import nleig.solver


@dataclass
class Span:
    """One timed call: ``parent`` is the enclosing span, ``op`` the benchmark operation."""

    id: int
    parent: Optional[int]
    op: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def add(self, **counts) -> None:
        self.counts.update(counts)


class _NullSpan:
    def add(self, **counts) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Stand-in used for untraced runs: every span is a no-op."""

    @contextmanager
    def op(self, index: int):
        yield

    @contextmanager
    def span(self, name: str, layer: str):
        yield _NULL_SPAN


# Module-level names that nleig code calls through, with the layer each call
# belongs to and the exact count its result carries.  Rebinding the module
# attribute is enough: the callers look the name up at call time.
_PATCH_POINTS = (
    (nleig.critical, "minimize", "solver", lambda r: {"iterations": r.iterations}),
    (nleig.solver, "analyze", "core", None),
    (nleig.branches, "half_period", "period", None),
    (nleig.period, "integrate_endpoint_singular", "quadrature", lambda r: {"evaluations": r.evaluations}),
)


class Tracer:
    """Records spans opened inside benchmark operations of this process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op: Optional[int] = None
        self._patched: list = []

    @contextmanager
    def op(self, index: int):
        """Mark one benchmark operation; only spans inside an operation are kept."""
        self._op = index
        try:
            with self.span("op", "bench"):
                yield
        finally:
            self._op = None

    @contextmanager
    def span(self, name: str, layer: str):
        if self._op is None:
            yield _NULL_SPAN
            return
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, self._op, name, layer, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def __enter__(self) -> "Tracer":
        """Wrap the module-level names in _PATCH_POINTS until the block ends."""
        for module, attr, layer, count in _PATCH_POINTS:
            orig = getattr(module, attr)
            setattr(module, attr, self._wrapper(orig, f"{module.__name__}.{attr}", layer, count))
            self._patched.append((module, attr, orig))
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    def _wrapper(self, fn: Callable, name: str, layer: str, count) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, layer) as s:
                out = fn(*args, **kwargs)
                if count is not None:
                    s.add(**count(out))
                return out

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                record = {
                    "id": s.id,
                    "parent": s.parent,
                    "op": s.op,
                    "name": s.name,
                    "layer": s.layer,
                    "start": s.start,
                    "end": s.end,
                    "counts": s.counts,
                }
                handle.write(json.dumps(record) + "\n")


@contextmanager
def layers_entered():
    """Collect the names of the nleig modules whose Python code runs inside the block.

    A profile hook sees every Python call, however the callee was reached, so
    a bypass prediction checked against this set can fail.  The hook slows
    the calls down many times; it is used only on an untimed pass.
    """
    package = os.path.dirname(os.path.abspath(nleig.__file__)) + os.sep
    entered: set[str] = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            entered.add(os.path.splitext(os.path.basename(frame.f_code.co_filename))[0])

    sys.setprofile(hook)
    try:
        yield entered
    finally:
        sys.setprofile(None)


@dataclass
class LayerTotals:
    seconds: float = 0.0
    self_seconds: float = 0.0


def layer_totals(spans: list[Span]) -> dict[str, LayerTotals]:
    """Inclusive time and self time per layer.

    A span's self time is its duration minus the durations of its direct
    children; children never overlap because the loop is single-threaded.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.seconds
    totals: dict[str, LayerTotals] = {}
    for s in spans:
        t = totals.setdefault(s.layer, LayerTotals())
        t.seconds += s.seconds
        t.self_seconds += s.seconds - child_time[s.id]
    return totals


def op_counts(spans: list[Span]) -> dict[int, tuple]:
    """Exact counts per operation: solver iterations, minimize calls, critical solver calls, quadrature evaluations."""
    out: dict[int, list] = {}
    for s in spans:
        c = out.setdefault(s.op, [0, 0, 0, 0])
        if s.layer == "solver":
            c[0] += s.counts.get("iterations", 0)
            c[1] += 1
        elif s.layer == "critical":
            c[2] += s.counts.get("solver_calls", 0)
        elif s.layer == "quadrature":
            c[3] += s.counts.get("evaluations", 0)
    return {k: tuple(v) for k, v in out.items()}


def _share(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole > 0.0 else 0.0


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0.0 else 0.0


def _total(spans: list[Span], layer: str, key: str) -> int:
    return sum(s.counts.get(key, 0) for s in spans if s.layer == layer)


def per_layer_metrics(spans: list[Span], op_seconds: float, first_cycle_calls: int) -> dict[str, float]:
    """Per-layer counts, rates and shares of operation time, from one traced loop.

    Counts cover the first input cycle, which a seed fixes, so they are exact
    and do not grow with the speed of the code.  Rates and shares cover the
    whole loop.  Times are shares of the summed operation time, so that a
    layer a workload bypasses reads 0 % rather than a constant 0 s.
    """
    first = [s for s in spans if s.op < first_cycle_calls]
    by_layer = layer_totals(spans)
    zero = LayerTotals()
    solver = by_layer.get("solver", zero)
    core = by_layer.get("core", zero)
    crit = by_layer.get("critical", zero)
    quad = by_layer.get("quadrature", zero)
    period = by_layer.get("period", zero)

    # the slowest solve of each search, against the time of the searches
    slowest: dict[int, float] = {}
    for s in spans:
        if s.layer == "solver" and s.parent is not None and spans[s.parent].layer == "critical":
            slowest[s.parent] = max(slowest.get(s.parent, 0.0), s.seconds)

    def named(name: str) -> float:
        return sum(s.seconds for s in spans if s.name == name)

    def calls(layer: str) -> int:
        return sum(1 for s in first if s.layer == layer)

    return {
        "solver.calls": calls("solver"),
        "solver.iterations": _total(first, "solver", "iterations"),
        "solver.share": _share(solver.seconds, op_seconds),
        "solver.iter_per_s": _rate(_total(spans, "solver", "iterations"), solver.seconds),
        "core.analyze_calls": calls("core"),
        "core.analyze_share": _share(core.seconds, op_seconds),
        "critical.solver_calls": _total(first, "critical", "solver_calls"),
        "critical.self_share": _share(crit.self_seconds, op_seconds),
        "critical.slowest_solve_share": _share(sum(slowest.values()), crit.seconds),
        "quadrature.calls": calls("quadrature"),
        "quadrature.evaluations": _total(first, "quadrature", "evaluations"),
        "quadrature.share": _share(quad.seconds, op_seconds),
        "quadrature.evals_per_s": _rate(_total(spans, "quadrature", "evaluations"), quad.seconds),
        "period.half_period_share": _share(period.seconds, op_seconds),
        "period.self_share": _share(period.self_seconds, op_seconds),
        "branches.branch_point_share": _share(named("branches.branch_point"), op_seconds),
        "branches.reconstruct_share": _share(named("branches.reconstruct_profile"), op_seconds),
    }
