"""In-memory spans around the calls the benchmark makes into each layer.

A span is ``(name, start, end, parent, call)``: ``parent`` is the index of
the enclosing span (``None`` at the top) and ``call`` the id of the
workload call it belongs to.  Spans stay in memory and are written out once,
at the end of the run.  Solves are traced by wrapping the operator in
:class:`TimedOperator`, so the package itself is not modified.
"""

from __future__ import annotations

import json
import tracemalloc
from time import perf_counter

import numpy as np

from fraclag import OperatorHandle

SOLVE = "operators.solve_shifted"
APPLY = "operators.apply_resolvent"
PLAN = "planner.plan_for_tolerance"
CALL = "call"


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.index)
        return False


class Tracer:
    """Collects spans of one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []
        self.call: int | None = None
        self.calls = 0
        self._stack: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def call_span(self) -> _Span:
        """Root span of a new workload call."""
        self.call = self.calls
        self.calls += 1
        return _Span(self, CALL)

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.call])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, end, parent, self.call])

    def per_call(self) -> dict[int, dict[str, float]]:
        """Per call id: total duration of each span name, and ``<name>.self``
        for its self time (duration minus the time its children cover)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[int, dict[str, float]] = {}
        for i, (name, start, end, _, call) in enumerate(self.spans):
            if call is None:
                continue
            totals = out.setdefault(call, {})
            totals[name] = totals.get(name, 0.0) + (end - start)
            key = name + ".self"
            totals[key] = totals.get(key, 0.0) + (end - start - child_time[i])
            if name == SOLVE:
                totals["solves"] = totals.get("solves", 0) + 1
        return out

    def write(self, path) -> None:
        """One JSON array per line, ``[id, name, start, end, parent, call]``,
        times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, call) in enumerate(self.spans):
                row = [i, name, round(start - t0, 9), round(end - t0, 9), parent, call]
                handle.write(json.dumps(row, separators=(",", ":")) + "\n")


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NoTrace:
    """Stand-in for :class:`Tracer` on untimed and untraced paths."""

    _span = _NoSpan()

    def span(self, name: str) -> _NoSpan:
        return self._span

    def call_span(self) -> _NoSpan:
        return self._span


NO_TRACE = _NoTrace()


class TimedOperator(OperatorHandle):
    """Wraps an operator and records one span per shifted solve."""

    def __init__(self, inner: OperatorHandle, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    @property
    def dimension(self) -> int:
        return self._inner.dimension

    def solve_shifted(self, sigma: float, tau: float, b: np.ndarray) -> np.ndarray:
        start = perf_counter()
        y = self._inner.solve_shifted(sigma, tau, b)
        self._tracer.record(SOLVE, start, perf_counter())
        return y


class MemoryProbe(OperatorHandle):
    """Wraps an operator during the ``tracemalloc`` pass.

    After each solve it records the traced memory still allocated, then the
    max-norm of the solution in the coordinates given by ``coords`` (taken
    with ``max``/``min``, which allocate no temporaries).  The memory held
    when the last solve returns is what the reduction still has to consume.
    """

    def __init__(self, inner: OperatorHandle, coords):
        self._inner = inner
        self._coords = coords
        self.held: list[int] = []
        self.norms: list[float] = []

    @property
    def dimension(self) -> int:
        return self._inner.dimension

    def solve_shifted(self, sigma: float, tau: float, b: np.ndarray) -> np.ndarray:
        y = self._inner.solve_shifted(sigma, tau, b)
        self.held.append(tracemalloc.get_traced_memory()[0])
        z = self._coords(y)
        self.norms.append(max(float(z.max()), -float(z.min())))
        return y
