"""The harness's own span list: one in-memory record per layer call.

Spans are recorded by the benchmark's files, around the calls into each
layer (in-program spans are a later change). A span has a name, start
and end on one clock (``time.time``, so spans of lap subprocesses line
up with the parent's), the id of the span that caused it, and a run id
shared by all spans of one lap. Kept in memory; written once, as a
Chrome trace, when the benchmark ends.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    """Nested spans of one process; child processes merge in via
    :meth:`extend`."""

    def __init__(self, run: str = "main") -> None:
        self.run = run
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._lock = threading.Lock()  # client threads add spans too

    def add(self, name: str, start: float, end: float, *,
            parent: int | None = None, **args) -> int:
        """Record one finished span; returns its id."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        with self._lock:
            span_id = len(self.spans)
            self.spans.append({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "run": self.run, "args": args,
            })
        return span_id

    @contextmanager
    def span(self, name: str, **args):
        """Measure a block as one span; spans opened inside nest under it."""
        span_id = self.add(name, time.time(), 0.0, **args)
        self._stack.append(span_id)
        try:
            yield self.spans[span_id]
        finally:
            self._stack.pop()
            self.spans[span_id]["end"] = time.time()

    def extend(self, spans: list[dict], *, run: str) -> None:
        """Adopt another process's spans under run id ``run``; its root
        spans become children of the currently open span."""
        base = len(self.spans)
        top = self._stack[-1] if self._stack else None
        for s in spans:
            parent = s["parent"]
            self.spans.append({
                **s, "id": base + s["id"], "run": run,
                "parent": top if parent is None else base + parent,
            })

    def self_time(self, span_id: int) -> float:
        """Duration of a span minus the time its children cover."""
        span = self.spans[span_id]
        children = sum(
            s["end"] - s["start"] for s in self.spans
            if s["parent"] == span_id
        )
        return (span["end"] - span["start"]) - children

    def find(self, name: str, run: str | None = None) -> list[dict]:
        return [
            s for s in self.spans
            if s["name"] == name and (run is None or s["run"] == run)
        ]

    def write_chrome(self, path: Path) -> Path:
        """Write the spans as Chrome trace events, one track per run."""
        runs = sorted({s["run"] for s in self.spans})
        tid = {run: i + 1 for i, run in enumerate(runs)}
        epoch = min((s["start"] for s in self.spans), default=0.0)
        events = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid[run],
             "args": {"name": run}}
            for run in runs
        ]
        for s in self.spans:
            events.append({
                "name": s["name"], "ph": "X", "pid": 1, "tid": tid[s["run"]],
                "ts": round((s["start"] - epoch) * 1e6, 3),
                "dur": round((s["end"] - s["start"]) * 1e6, 3),
                "args": {"id": s["id"], "parent": s["parent"], **s["args"]},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"}
        ))
        return path
