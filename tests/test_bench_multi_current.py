"""The checked-in ``results/BENCH_multi.json`` is what its bench writes today.

Every payload field is deterministic except each curve's
``wall_seconds``: halo bytes, modelled seconds, CG iterations and the
final-vertex checksum at 1, 2, 4 and 8 domains. A change that moves any
of them regenerates the file (≈ 3 s)::

    PYTHONPATH=src python -m benchmarks.bench_multi_gpu_projection \\
        --json results/BENCH_multi.json
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.bench_multi_gpu_projection import measure

RECORDED = Path(__file__).resolve().parents[1] / "results" / "BENCH_multi.json"


def _deterministic(payload: dict) -> dict:
    for curve in payload["curves"].values():
        del curve["executable"]["wall_seconds"]
    return payload


def test_recorded_multi_domain_bench_is_current():
    # a JSON round trip, so that tuples and floats compare as recorded
    fresh = _deterministic(json.loads(json.dumps(measure())))
    recorded = _deterministic(json.loads(RECORDED.read_text())["payload"])
    stale = {
        g: {k: (v, recorded["curves"][g]["executable"][k])
            for k, v in curve["executable"].items()
            if v != recorded["curves"][g]["executable"][k]}
        for g, curve in fresh["curves"].items()
    }
    assert fresh == recorded, (
        "results/BENCH_multi.json is stale (fresh, recorded): regenerate "
        "it with the command in this module's docstring", stale,
    )
