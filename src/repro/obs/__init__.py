"""Unified observability: structured tracing, metrics, trace export.

The paper's entire evaluation is per-module timing (Tables II/III report
the six pipeline stages; Figs 5/10 report solver and SpMV behaviour), so
measurement is a first-class subsystem here, shared by all three
engines, the solvers, and the batch service:

* :class:`Tracer` (:mod:`repro.obs.tracer`) — per-step, per-module span
  records (wall seconds, modelled device seconds, solver/contact
  extras) with near-zero overhead when disabled, exportable as
  Chrome ``chrome://tracing`` / Perfetto trace-event JSON;
* :class:`MetricsRegistry` (:mod:`repro.obs.metrics`) — counters,
  gauges, and histograms (contact classes, CG iteration distribution,
  solver-rung escalations, contract violations, rollbacks, batch cache
  hit/miss) with a JSON-safe ``snapshot()`` and text renderer;
* :mod:`repro.obs.report` — the ``python -m repro report`` subcommand:
  a paper-style per-module table (measured vs modelled, speedup
  column) rendered from a trace file.

The engines accept ``tracer=`` / ``metrics=`` keyword arguments; the
CLI exposes ``--trace out.json --metrics`` on ``run`` and
``batch run``. See ``docs/usage.md`` ("Observability") for the guide.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    render_snapshot,
)
from repro.obs.tracer import NULL_TRACER, SpanRecord, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "SpanRecord",
    "Tracer",
    "merge_snapshots",
    "render_snapshot",
]
