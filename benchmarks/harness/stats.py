"""Medians, quartiles and percentiles, as the acceptance rule takes them."""

from __future__ import annotations

import math
import statistics


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    """First and third quartile (``statistics.quantiles(values, n=4)``)."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; ``None`` entries (failed attempts) sort
    last, as missing any limit."""
    ordered = sorted(math.inf if v is None else v for v in values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def summary(values) -> dict:
    """What ``bench.json`` stores per wall-clock metric."""
    values = [float(v) for v in values]
    q1, q3 = quartiles(values)
    return {"median": median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}
