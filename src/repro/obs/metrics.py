"""Counters, gauges, and histograms with a JSON-safe snapshot.

The :class:`MetricsRegistry` is the shared ledger of *countable*
behaviour: contact classes detected (VE/VV1/VV2), contact-transfer
hits/misses, CG iteration distribution, solver-rung escalations,
contract violations, checkpoint rollbacks, and the batch service's
cache hits/misses. Every engine owns one (``engine.metrics``); the
batch worker pool owns a scheduler-side one and rolls each job's
snapshot into the job's ticket record.

Design constraints:

* **cheap** — an increment is a dict lookup and an add; the engines
  increment a handful of counters per accepted step, never per contact;
* **JSON-safe** — :meth:`MetricsRegistry.snapshot` returns pure-Python
  ints/floats/strings so it can be embedded in batch outcomes, cached
  result entries, and ``--json`` CLI output without custom encoders;
* **mergeable** — :func:`merge_snapshots` folds many snapshots into one
  (the scheduler aggregates per-job metrics this way).
"""

from __future__ import annotations

import math

#: Default histogram bucket upper bounds (inclusive), tuned for CG
#: iteration counts (the paper caps PCG at 200) and open–close loops.
DEFAULT_EDGES = (1, 2, 5, 10, 20, 50, 100, 200)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Bucketed distribution with count/sum/min/max.

    ``edges`` are inclusive upper bounds; one overflow bucket catches
    everything above the last edge.
    """

    __slots__ = ("edges", "buckets", "count", "sum", "min", "max")

    def __init__(self, edges: tuple = DEFAULT_EDGES) -> None:
        self.edges = tuple(edges)
        self.buckets = [0] * (len(self.edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, edge in enumerate(self.edges):
            if value <= edge:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def bucket_labels(self) -> list[str]:
        labels = [f"<={edge:g}" for edge in self.edges]
        labels.append(f">{self.edges[-1]:g}")
        return labels


class MetricsRegistry:
    """Get-or-create registry of named counters/gauges/histograms."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter()
        return c

    def inc(self, name: str, n: int | float = 1) -> None:
        """Shorthand: ``registry.counter(name).inc(n)``."""
        self.counter(name).inc(n)

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge()
        return g

    def histogram(self, name: str, edges: tuple = DEFAULT_EDGES) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(edges)
        return h

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Pure-Python dict of everything recorded (JSON-serialisable)."""
        def num(v):
            f = float(v)
            return int(f) if f.is_integer() else f

        hists = {}
        for name, h in sorted(self.histograms.items()):
            hists[name] = {
                "count": int(h.count),
                "sum": num(h.sum),
                "min": num(h.min) if h.count else None,
                "max": num(h.max) if h.count else None,
                "mean": float(h.mean),
                "buckets": {
                    label: int(n)
                    for label, n in zip(h.bucket_labels(), h.buckets)
                },
            }
        return {
            "counters": {
                name: num(c.value) for name, c in sorted(self.counters.items())
            },
            "gauges": {
                name: num(g.value) for name, g in sorted(self.gauges.items())
            },
            "histograms": hists,
        }

    def render(self) -> str:
        """Human-readable text rendering of :meth:`snapshot`."""
        return render_snapshot(self.snapshot())


def _bucket_key(label: str) -> float:
    """Numeric sort key for a ``<=N`` / ``>N`` bucket label.

    Bucket dicts lose insertion order on a ``sort_keys=True`` JSON
    round-trip (batch outcomes), so renderers re-sort numerically.
    """
    if label.startswith("<="):
        return float(label[2:])
    if label.startswith(">"):
        return math.inf
    return math.inf


def render_snapshot(snapshot: dict) -> str:
    """Text-render a snapshot dict (shared by CLI surfaces)."""
    lines: list[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        width = max(len(n) for n in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {counters[name]}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        width = max(len(n) for n in gauges)
        for name in sorted(gauges):
            lines.append(f"  {name:<{width}}  {gauges[name]:g}")
    for name, h in sorted(snapshot.get("histograms", {}).items()):
        lines.append(
            f"histogram {name}: count={h['count']} mean={h['mean']:.2f} "
            f"min={h['min']} max={h['max']}"
        )
        buckets = h.get("buckets", {})
        peak = max(buckets.values(), default=0)
        for label in sorted(buckets, key=_bucket_key):
            n = buckets[label]
            bar = "#" * (round(30 * n / peak) if peak else 0)
            lines.append(f"  {label:>8}  {n:>8}  {bar}")
    return "\n".join(lines) if lines else "(no metrics recorded)"


def merge_snapshots(*snapshots: dict) -> dict:
    """Fold snapshots into one: counters/buckets add, gauges last-write.

    Histogram ``min``/``max`` combine; ``mean`` is recomputed from the
    merged count and sum. Accepts (and skips) empty dicts so callers
    can fold outcome records that carried no metrics.
    """
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for snap in snapshots:
        if not snap:
            continue
        for name, v in snap.get("counters", {}).items():
            out["counters"][name] = out["counters"].get(name, 0) + v
        for name, v in snap.get("gauges", {}).items():
            out["gauges"][name] = v
        for name, h in snap.get("histograms", {}).items():
            into = out["histograms"].get(name)
            if into is None:
                out["histograms"][name] = {
                    "count": h["count"], "sum": h["sum"],
                    "min": h["min"], "max": h["max"], "mean": h["mean"],
                    "buckets": dict(h["buckets"]),
                }
                continue
            into["count"] += h["count"]
            into["sum"] += h["sum"]
            if h["min"] is not None and (
                into["min"] is None or h["min"] < into["min"]
            ):
                into["min"] = h["min"]
            if h["max"] is not None and (
                into["max"] is None or h["max"] > into["max"]
            ):
                into["max"] = h["max"]
            into["mean"] = into["sum"] / into["count"] if into["count"] else 0.0
            for label, n in h["buckets"].items():
                into["buckets"][label] = into["buckets"].get(label, 0) + n
    return out
