"""Structured tracing: per-step, per-module span records.

A :class:`Tracer` collects :class:`SpanRecord` rows — one per pipeline
stage per step (plus one ``"step"`` span per accepted step carrying the
solver/contact diagnostics). Each span records both the measured wall
seconds and the virtual-device *modelled* seconds charged inside it, so
one trace answers both of the paper's questions: where does the wall
clock go, and where would the device clock go.

The export format is Chrome trace-event JSON (conventionally
``*.json``): it loads directly in ``chrome://tracing`` or
`Perfetto <https://ui.perfetto.dev>`_, and :meth:`Tracer.load` reads it
back. Wall-clock spans render on one track and the modelled device time
on a second track (a synthetic clock accumulated from the modelled
seconds), so the two timelines can be compared visually.

Overhead discipline: the engines consult ``tracer.enabled`` *before*
doing any per-span work, and the shared :data:`NULL_TRACER` singleton
is what an un-instrumented run carries — a disabled tracer never
allocates a record (pinned by ``tests/obs/test_overhead.py``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path


def _json_safe(value):
    """Coerce numpy scalars (and anything with ``.item()``) to Python."""
    item = getattr(value, "item", None)
    if item is not None and not isinstance(value, (str, bytes)):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    return value


@dataclass
class SpanRecord:
    """One traced interval.

    Attributes
    ----------
    name:
        Pipeline module name (one of
        :data:`repro.util.timing.PIPELINE_MODULES`) or ``"step"`` for
        the per-accepted-step summary span.
    step:
        The step index the span belongs to (-1 when not step-scoped).
    start:
        Seconds since the tracer's epoch at which the span began.
    wall_s:
        Measured wall-clock duration in seconds.
    device_s:
        Modelled virtual-device seconds charged during the span.
    extras:
        Free-form diagnostics (CG iterations, contact counts,
        open–close iterations, ...), JSON-safe.
    """

    name: str
    step: int
    start: float
    wall_s: float
    device_s: float = 0.0
    extras: dict = field(default_factory=dict)


class Tracer:
    """Collects spans; export with :meth:`write`, read back with :meth:`load`."""

    __slots__ = ("enabled", "spans", "meta", "_epoch")

    def __init__(self, enabled: bool = True, meta: dict | None = None) -> None:
        self.enabled = enabled
        self.spans: list[SpanRecord] = []
        self.meta: dict = dict(meta or {})
        self._epoch = time.perf_counter()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since the tracer's epoch (the span ``start`` clock)."""
        return time.perf_counter() - self._epoch

    def add(
        self,
        name: str,
        *,
        step: int = -1,
        start: float,
        wall_s: float,
        device_s: float = 0.0,
        **extras,
    ) -> None:
        """Record one finished span (no-op when disabled)."""
        if not self.enabled:
            return
        self.spans.append(
            SpanRecord(
                name=name,
                step=int(step),
                start=float(start),
                wall_s=float(wall_s),
                device_s=float(device_s),
                extras={k: _json_safe(v) for k, v in extras.items()},
            )
        )

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def module_summary(self) -> dict[str, dict]:
        """Per-module totals: ``{name: {spans, wall_s, device_s}}``.

        ``"step"`` summary spans are excluded — they wrap the module
        spans and would double-count.
        """
        out: dict[str, dict] = {}
        for s in self.spans:
            if s.name == "step":
                continue
            d = out.setdefault(
                s.name, {"spans": 0, "wall_s": 0.0, "device_s": 0.0}
            )
            d["spans"] += 1
            d["wall_s"] += s.wall_s
            d["device_s"] += s.device_s
        return out

    def step_spans(self) -> list[SpanRecord]:
        """The per-accepted-step summary spans, in order."""
        return [s for s in self.spans if s.name == "step"]

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_chrome_dict(self) -> dict:
        """The trace as a ``chrome://tracing`` / Perfetto event dict.

        Wall-clock spans go on ``tid 1``; the modelled device time is
        laid out back-to-back on ``tid 2`` as a synthetic clock, so the
        measured and modelled timelines sit one above the other.
        """
        events: list[dict] = [
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": "repro pipeline"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "wall clock"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 2,
             "args": {"name": "modelled device"}},
        ]
        device_clock = 0.0
        for s in self.spans:
            args = {"step": s.step, "device_s": s.device_s}
            args.update(s.extras)
            events.append({
                "name": s.name,
                "cat": "step" if s.name == "step" else "module",
                "ph": "X", "pid": 1, "tid": 1,
                "ts": round(s.start * 1e6, 3),
                "dur": round(s.wall_s * 1e6, 3),
                "args": args,
            })
            if s.name != "step" and s.device_s > 0.0:
                events.append({
                    "name": s.name, "cat": "device",
                    "ph": "X", "pid": 1, "tid": 2,
                    "ts": round(device_clock * 1e6, 3),
                    "dur": round(s.device_s * 1e6, 3),
                    "args": {"step": s.step},
                })
                device_clock += s.device_s
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(self.meta),
        }

    def write(self, path: str | Path) -> Path:
        """Write the trace as Chrome trace-event JSON (:meth:`to_chrome_dict`)."""
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.to_chrome_dict(), fh, default=_json_safe)
        return path

    # ------------------------------------------------------------------
    # import (the `report` subcommand reads traces back)
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: str | Path) -> "Tracer":
        """Read a trace written by :meth:`write`.

        Only the wall-clock track (``tid 1``) carries the authoritative
        spans; ``tid 2`` re-renders the same modelled time on a
        synthetic clock and is skipped.
        """
        obj = json.loads(Path(path).read_text())
        if not isinstance(obj, dict) or "traceEvents" not in obj:
            raise ValueError(f"{path} is not a Chrome trace-event file")
        tracer = cls()
        tracer.meta = dict(obj.get("otherData", {}))
        for ev in obj["traceEvents"]:
            if ev.get("ph") != "X" or ev.get("tid") != 1:
                continue
            args = dict(ev.get("args", {}))
            step = int(args.pop("step", -1))
            device_s = float(args.pop("device_s", 0.0))
            tracer.spans.append(SpanRecord(
                name=ev["name"],
                step=step,
                start=float(ev.get("ts", 0.0)) / 1e6,
                wall_s=float(ev.get("dur", 0.0)) / 1e6,
                device_s=device_s,
                extras=args,
            ))
        return tracer


#: The shared disabled tracer un-instrumented runs carry: one allocation
#: for the whole process, every hook reduced to an attribute check.
NULL_TRACER = Tracer(enabled=False)
