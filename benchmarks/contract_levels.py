"""What each contract level costs: wall seconds of one harness lap.

Runs the harness's own ``rocks_dynamic`` and ``slope_static`` models
and controls (``benchmarks/harness/workloads.py``: ``build_system``,
``controls_for``, seed 0) on the GPU preset with only
``contract_level`` changed. The levels alternate inside every round, in
a rotated order, so slow drift on a shared host spreads over both.
Model building and engine construction stay outside the timed region.

    PYTHONPATH=src python -m benchmarks.contract_levels --rounds 5
"""

from __future__ import annotations

import argparse
import dataclasses
import platform
import statistics
import time

from benchmarks.harness.workloads import (
    ENGINE_WORKLOADS,
    build_system,
    controls_for,
)
from repro import GpuEngine
from repro.core.state import CONTRACT_LEVELS

WORKLOADS = ("rocks_dynamic", "slope_static")


def lap_seconds(name: str, level: str) -> float:
    """Wall seconds of one lap of workload ``name`` at ``level``."""
    controls = dataclasses.replace(controls_for(name), contract_level=level)
    engine = GpuEngine(build_system(name, seed=0), controls)
    t0 = time.perf_counter()
    engine.run(steps=ENGINE_WORKLOADS[name].steps)
    return time.perf_counter() - t0


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    print(f"host: {platform.processor() or platform.machine()}, "
          f"python {platform.python_version()}, {args.rounds} rounds")
    for name in WORKLOADS:
        laps: dict[str, list[float]] = {level: [] for level in CONTRACT_LEVELS}
        for r in range(args.rounds):
            shift = r % len(CONTRACT_LEVELS)
            for level in CONTRACT_LEVELS[shift:] + CONTRACT_LEVELS[:shift]:
                laps[level].append(lap_seconds(name, level))
        base = statistics.median(laps["off"])
        for level, seconds in laps.items():
            q1, med, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
            print(f"{name:14s} {level:5s} median {med:.3f} s "
                  f"(quartiles {q1:.3f}-{q3:.3f}) "
                  f"{100.0 * (med / base - 1.0):+.1f} % vs off")


if __name__ == "__main__":
    main()
