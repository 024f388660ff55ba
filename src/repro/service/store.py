"""Content-addressed result cache keyed by JobSpec hash.

A successful run's summary (and optionally its final block-system
state) is stored under the spec's content hash. Submitting a
byte-identical spec later finds the entry and skips execution entirely
— the scheduler marks the job succeeded with ``cached=True`` and zero
steps executed. The store keeps a persistent hit/miss counter (the
integration tests and CI assert on it) guarded by an exclusive file
lock (:func:`repro.io.batch_io.locked_fd`) so concurrent schedulers do
not lose increments on any platform.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.io.batch_io import (
    copy_file_atomic,
    locked_fd,
    read_json,
    write_json_atomic,
)


class ResultStore:
    """Directory-backed cache of result summaries + final states."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.entries = self.root / "entries"
        self.entries.mkdir(parents=True, exist_ok=True)
        self._counter_path = self.root / "counters.json"

    # ------------------------------------------------------------------
    def _entry(self, spec_hash: str) -> Path:
        return self.entries / f"{spec_hash}.json"

    def state_stem(self, spec_hash: str) -> Path:
        """Stem of the cached final state (``.json``/``.npz`` pair)."""
        return self.entries / f"{spec_hash}_state"

    def peek(self, spec_hash: str) -> dict | None:
        """Read an entry without touching the hit/miss counters."""
        return read_json(self._entry(spec_hash))

    def lookup(self, spec_hash: str) -> dict | None:
        """Read an entry, recording a hit or miss in the counters."""
        summary = self.peek(spec_hash)
        self._bump("hits" if summary is not None else "misses")
        return summary

    def put(
        self, spec_hash: str, summary: dict, state_stem: str | Path | None = None
    ) -> None:
        """Cache a summary (and optionally a saved final state).

        ``state_stem`` names a ``save_system`` pair to copy in; the copy
        goes through a temp name + rename so a concurrent reader never
        sees a partial state file.
        """
        if state_stem is not None:
            dest = self.state_stem(spec_hash)
            for suffix in (".json", ".npz"):
                src = Path(state_stem).with_suffix(suffix)
                if not src.exists():
                    continue
                copy_file_atomic(src, dest.with_suffix(suffix))
            summary = dict(summary, has_state=True)
        write_json_atomic(self._entry(spec_hash), summary)

    def __contains__(self, spec_hash: str) -> bool:
        return self._entry(spec_hash).exists()

    def __len__(self) -> int:
        return sum(
            1 for p in self.entries.glob("*.json")
            if not p.name.endswith("_state.json")
        )

    # ------------------------------------------------------------------
    # persistent hit/miss counters
    # ------------------------------------------------------------------
    def _bump(self, key: str) -> None:
        with locked_fd(self._counter_path) as fd:
            raw = os.read(fd, 4096)
            counters = json.loads(raw) if raw.strip() else {}
            counters[key] = counters.get(key, 0) + 1
            payload = json.dumps(counters).encode()
            os.lseek(fd, 0, os.SEEK_SET)
            os.ftruncate(fd, 0)
            os.write(fd, payload)

    def stats(self) -> dict[str, int]:
        """Persistent counters: ``{"hits": N, "misses": M}``."""
        counters = read_json(self._counter_path) or {}
        return {"hits": counters.get("hits", 0), "misses": counters.get("misses", 0)}
