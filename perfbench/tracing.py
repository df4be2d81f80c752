"""In-memory spans around calls into the engine's layers, their self times,
and export as Chrome trace-event JSON (opens in Perfetto or chrome://tracing).

The program itself is not instrumented: for a traced pass the benchmark
rebinds each layer's public function, where the program looks it up, to a
wrapper that opens a span around the call.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    doc_id: str
    start_ns: int
    end_ns: int = 0
    parent: int = -1
    child_ns: int = 0

    @property
    def self_ns(self) -> int:
        return self.end_ns - self.start_ns - self.child_ns


class Tracer:
    """Nested spans on one thread; a child's duration is charged to its parent
    so that self time is duration minus the children it covers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, doc_id: str | None = "") -> int:
        """Opens a span; a doc_id of None takes the enclosing span's."""
        parent = self._stack[-1] if self._stack else -1
        if doc_id is None:
            doc_id = self.spans[parent].doc_id if parent >= 0 else ""
        self.spans.append(Span(name, doc_id, time.perf_counter_ns(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_ns += span.end_ns - span.start_ns

    def call(self, name: str, doc_id: str, fn, *args, **kwargs):
        index = self.open(name, doc_id)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def self_ms(self, first: int = 0) -> dict[str, float]:
        """Total self time per span name, in milliseconds, of the spans from
        index `first` on."""
        out: dict[str, float] = {}
        for span in self.spans[first:]:
            out[span.name] = out.get(span.name, 0.0) + span.self_ns / 1e6
        return out

    def total_ms(self, name: str, first: int = 0) -> float:
        """Total duration of the spans with this name from index `first` on,
        in milliseconds."""
        return sum(s.end_ns - s.start_ns for s in self.spans[first:] if s.name == name) / 1e6

    def write_chrome(self, path) -> None:
        """Complete ("X") events, microseconds from the first span."""
        t0 = min((s.start_ns for s in self.spans), default=0)
        events = [
            {
                "name": s.name,
                "cat": s.name.split(".")[0],
                "ph": "X",
                "ts": (s.start_ns - t0) / 1000.0,
                "dur": (s.end_ns - s.start_ns) / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {"doc_id": s.doc_id, "parent": s.parent, "self_us": s.self_ns / 1000.0},
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
