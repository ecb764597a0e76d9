"""Spans and counts kept in memory for the traced benchmark run.

A span is (name, start, end, parent), times from time.perf_counter and
parent the index of the enclosing span or -1; counts of work done are set
by the workload.  Nothing is written until the round ends.  The untraced
runs use NullTracer, whose span is a shared no-op context manager.
"""
from __future__ import annotations

import json
import time
from contextlib import nullcontext


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: dict[str, int] = {}
        self.stack: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def durations(self, name: str) -> list[float]:
        """Durations of the spans with this name, in the order they opened."""
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child_time[index]
        return out

    def covered(self) -> float:
        """Time covered by top-level spans (they never overlap)."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


class _Span:
    """Context manager of one span; a class rather than a generator keeps
    the cost near 1 us per span, and the finished record is a tuple, which
    the garbage collector stops tracking."""

    __slots__ = ("tracer", "name", "index", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tracer = self.tracer
        self.index = len(tracer.spans)
        tracer.spans.append(None)
        tracer.stack.append(self.index)
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tracer = self.tracer
        tracer.stack.pop()
        parent = tracer.stack[-1] if tracer.stack else -1
        tracer.spans[self.index] = (self.name, self.start, end, parent)


class NullTracer:
    _null = nullcontext()

    def span(self, name: str):
        return self._null
