"""The checked-in results are what their benches write today.

One row per recorded file: how to measure it afresh, how to read the
recorded copy, and the command that regenerates it.

* ``BENCH_multi.json`` — every payload field is deterministic except
  each curve's ``wall_seconds``: halo bytes, modelled seconds, CG
  iterations and the final-vertex checksum at 1, 2, 4 and 8 domains
  (≈ 3 s).
* ``BENCH_pipeline.json`` — per engine, the block and step counts, the
  CG iterations and the modelled seconds of each pipeline stage; the
  wall-clock fields and the trajectory are not pinned (≈ 1.5 s).
* ``table_ii.txt`` and ``table_iii.txt`` — the paper's Tables II and
  III, rendered from modelled seconds and CG iterations alone (≈ 10 s
  together).

A change that moves any of them regenerates the file with the command
its row names.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks import (
    bench_multi_gpu_projection,
    bench_pipeline_smoke,
    bench_table2_case1,
    bench_table3_case2,
)

RESULTS = Path(__file__).resolve().parents[1] / "results"


def _multi_fresh() -> dict:
    # a JSON round trip, so that tuples and floats compare as recorded
    return _deterministic(
        json.loads(json.dumps(bench_multi_gpu_projection.measure()))
    )


def _multi_recorded(text: str) -> dict:
    return _deterministic(json.loads(text)["payload"])


def _deterministic(payload: dict) -> dict:
    for curve in payload["curves"].values():
        del curve["executable"]["wall_seconds"]
    return payload


#: the fields of a BENCH_pipeline.json engine report no clock moves
PIPELINE_FIELDS = (
    "n_blocks", "steps", "total_cg_iterations", "modeled_seconds_per_module",
)


def _pipeline_fresh() -> dict:
    return _pipeline(json.loads(json.dumps({
        name: bench_pipeline_smoke.run_engine(name)
        for name in bench_pipeline_smoke.ENGINES
    })))


def _pipeline_recorded(text: str) -> dict:
    return _pipeline(json.loads(text)["payload"]["engines"])


def _pipeline(engines: dict) -> dict:
    return {
        name: {field: report[field] for field in PIPELINE_FIELDS}
        for name, report in engines.items()
    }


def _table(bench):
    return lambda: bench.report(bench.measure()) + "\n"


#: file under results/ -> (fresh, recorded-from-text, regenerate command)
RECORDED = {
    "BENCH_multi.json": (
        _multi_fresh, _multi_recorded,
        "PYTHONPATH=src python -m benchmarks.bench_multi_gpu_projection "
        "--json results/BENCH_multi.json",
    ),
    "BENCH_pipeline.json": (
        _pipeline_fresh, _pipeline_recorded,
        "PYTHONPATH=src python -m benchmarks.bench_pipeline_smoke "
        "--json results/BENCH_pipeline.json --pr N",
    ),
    "table_ii.txt": (
        _table(bench_table2_case1), str,
        "PYTHONPATH=src python -m pytest -q benchmarks/bench_table2_case1.py",
    ),
    "table_iii.txt": (
        _table(bench_table3_case2), str,
        "PYTHONPATH=src python -m pytest -q benchmarks/bench_table3_case2.py",
    ),
}


@pytest.mark.parametrize("name", RECORDED)
def test_recorded_result_is_current(name):
    fresh, recorded, command = RECORDED[name]
    assert fresh() == recorded((RESULTS / name).read_text()), (
        f"results/{name} is stale: regenerate it with {command}"
    )
