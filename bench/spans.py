"""In-memory spans around the benchmark's calls into each layer.

A span is (name, start, end, parent, op).  Spans stay in a list until the
run ends and are then written out as JSON lines.  With tracing off,
:meth:`Tracer.span` hands back one shared no-op context, so untraced runs
pay a method call per layer boundary and nothing else.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter

_OFF = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "start", "end", "parent", "op", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.end = None

    def __enter__(self):
        tr = self.tracer
        self.parent = tr._stack[-1].index if tr._stack else None
        self.op = tr.op
        self.index = len(tr.spans)
        tr.spans.append(self)
        tr._stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[_Span] = []
        self._stack: list[_Span] = []
        self.op = None  # id shared by the spans of one op

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _OFF

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (e.g. parsed from -X importtime)."""
        if self.enabled:
            s = _Span(self, name)
            s.parent = self._stack[-1].index if self._stack else None
            s.op, s.index, s.start, s.end = self.op, len(self.spans), start, end
            self.spans.append(s)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the part its children cover."""
        children: dict[int, list[_Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        totals: dict[str, float] = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(children.get(s.index, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start) - covered
        return totals

    def write(self, path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start - t0, "end": s.end - t0,
                    "parent": s.parent, "op": s.op,
                }) + "\n")
