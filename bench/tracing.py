"""In-memory span recorder for the traced benchmark run.

A span has a name, a start and end (perf_counter seconds), a parent span and
an operation id.  Spans stay in memory until the run ends; self time is a
span's duration minus the part covered by its direct children.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    parent: int | None
    op_id: int
    name: str
    start: float
    end: float = 0.0


class Tracer:
    """Records spans when enabled; when disabled every span is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op_id = 0

    def operation(self, name: str):
        """Root span of one operation; nested spans share its op id."""
        if not self.enabled:
            return contextlib.nullcontext()
        self._op_id += 1
        return self.span(name)

    @contextlib.contextmanager
    def _record(self, name: str):
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, self._op_id, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def span(self, name: str):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += (span.end - span.start) - child_time[span.span_id]
        return dict(totals)

    def as_records(self) -> list[dict]:
        return [{"id": s.span_id, "parent": s.parent, "op": s.op_id, "name": s.name,
                 "start": s.start, "end": s.end} for s in self.spans]
