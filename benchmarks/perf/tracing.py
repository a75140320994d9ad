"""In-memory span recorder for the traced pass.

Spans are recorded from the benchmark's own files, around the calls into
each ``repro`` layer, kept in memory and written out once at the end of
the run. A span is ``{id, name, start, end, parent, workload, repeat}``
with times in ``perf_counter_ns`` (CLOCK_MONOTONIC, so spans recorded in
a child process line up with the parent's). Layers timed inside a
per-cycle loop are not recorded once per cycle: their accumulated busy
time becomes one *aggregated* child span (``count`` = calls) laid end to
end inside the loop's span, so the loop's self time is what the loop
itself cost.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

now_ns = time.perf_counter_ns


class Tracer:
    def __init__(self, workload: str, repeat: int = 0) -> None:
        self.workload = workload
        self.repeat = repeat
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    def _open(self, name: str, start: int) -> Dict[str, Any]:
        span = {
            "id": len(self.spans), "name": name, "start": start, "end": start,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload, "repeat": self.repeat,
        }
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        span = self._open(name, now_ns())
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = now_ns()
            self._stack.pop()

    def aggregate(self, parent: Dict[str, Any], busy_ns: Dict[str, int],
                  count: int) -> None:
        """Add one aggregated child of *parent* per entry of *busy_ns*."""
        cursor = parent["start"]
        self._stack.append(parent["id"])
        for name, busy in busy_ns.items():
            span = self._open(name, cursor)
            cursor += busy
            span["end"] = cursor
            span["aggregated"] = True
            span["count"] = count
        self._stack.pop()

    def adopt(self, spans: List[Dict[str, Any]],
              parent: Optional[Dict[str, Any]]) -> None:
        """Append spans recorded by a child process under *parent*."""
        offset = len(self.spans)
        for span in spans:
            span = dict(span)
            span["id"] += offset
            if span["parent"] is None:
                span["parent"] = parent["id"] if parent is not None else None
            else:
                span["parent"] += offset
            self.spans.append(span)


def seconds(span: Dict[str, Any]) -> float:
    return (span["end"] - span["start"]) / 1e9


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, int]:
    """Self time (ns) per span id: duration minus its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
