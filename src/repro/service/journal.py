"""Append-only job-event journal — the batch service's flight recorder.

Every lifecycle transition of every job appends one JSON line to
``<queue>/journal/events.jsonl``: ``submitted``, ``claimed`` (with its
fencing epoch and owner), ``heartbeat``, ``requeued``,
``lease_expired``, ``fenced``, ``quarantined``, and ``completed``
(with the terminal status); the HTTP front-end adds ``dedup_hit`` per
job and ``server_started`` / ``server_drained`` under the
infrastructure job id ``"-"``. The journal is *evidence*, not state — the
job records stay authoritative — which is what makes it usable as an
auditor's input: ``python -m repro batch audit`` replays the journal
against the records and asserts the exactly-once invariants
(:mod:`repro.service.audit`).

Design constraints:

* **append-only, multi-process** — events are written with a single
  ``write()`` on an ``O_APPEND`` fd, so concurrent schedulers and
  workers interleave whole lines;
* **crash-tolerant reads** — a process dying mid-append leaves at most
  one torn trailing line; :meth:`Journal.events` skips unparseable
  lines and reports how many it skipped;
* **never chaos-faulted** — the storage fault injector
  (:mod:`repro.service.chaos`) explicitly excludes journal paths;
  ground truth must stay trustworthy while everything around it burns.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

class Journal:
    """One append-only JSON-lines event file under a journal directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / "events.jsonl"

    # ------------------------------------------------------------------
    def append(self, event: str, job_id: str, **fields) -> None:
        """Durably append one event line (atomic at line granularity)."""
        record = {"ts": time.time(), "event": event, "job_id": job_id}
        record.update(fields)
        line = (json.dumps(record, sort_keys=True) + "\n").encode()
        fd = os.open(
            self.path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644
        )
        try:
            os.write(fd, line)
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    def events(self) -> tuple[list[dict], int]:
        """All parseable events in append order, plus the torn-line count."""
        if not self.path.exists():
            return [], 0
        events: list[dict] = []
        torn = 0
        with open(self.path, "rb") as fh:
            for raw in fh:
                try:
                    event = json.loads(raw.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    torn += 1
                    continue
                if isinstance(event, dict):
                    events.append(event)
                else:
                    torn += 1
        return events, torn

    def count(self, event: str) -> int:
        events, _ = self.events()
        return sum(1 for e in events if e.get("event") == event)
