"""Long runs of the harness models, held to their recorded digests.

Two :class:`~repro.engine.gpu_engine.GpuEngine` runs on the benchmark
harness's own models and controls (``benchmarks/harness/workloads.py``:
``build_system``, ``controls_for``, seed 0): the 802-block falling rocks
for 400 steps — past impact, with 187 loop-2 retries, 18 of them
divergence aborts — and the 300-block slope of ``domain_slope`` for 200
steps. Each is held to three SHA-256 digests: the final vertices, every
:class:`~repro.engine.results.StepRecord`, and every record of the
device ledger (name, module, ``seconds.hex()``, counters).

The literals were recorded before detection kept anything across steps
(commit 53d99d2). The vertex and step-record digests of the rocks are
also those of commit 00748ef, before loop 2 aborted a diverging attempt:
the abort saves CG iterations and moves nothing else. The rocks run must
also both keep and rebuild its skin-kept contact candidates.
"""

import dataclasses
import hashlib

import pytest

from benchmarks.harness.workloads import build_system, controls_for
from repro.engine.gpu_engine import GpuEngine

PINS = {
    "rocks_dynamic": (
        400,
        "b396fdeb0b9565f04758498a3fdfa063c67260100a3d15ed96aa6c0fd83d2d7c",
        "ef89ebc96a66437a72d6ea5837299b14c1fdb3e4a2120584744ae8690f9d959a",
        "913e3795373392da238fce18545a0d721af897b289f4bf8b30ae3a3c3861b56f",
    ),
    "domain_slope": (
        200,
        "f70f5c504c11514afdf18724a14599bb830442c04a1cee317a7869ee0ca0904c",
        "3431f77911dc46dce8591bc2ed7c79844933ccd4f7eb266b2621712968291b5b",
        "c7e88cff10768d8f81b956b8b6981eecb9bd0d71419b67fba13267e6f85a4b62",
    ),
}


def run_digests(name, steps):
    """``(engine, (vertices, step records, ledger))`` of one run."""
    engine = GpuEngine(build_system(name, 0), controls_for(name))
    result = engine.run(steps=steps)
    records, ledger = hashlib.sha256(), hashlib.sha256()
    for record in result.steps:
        records.update(repr(dataclasses.astuple(record)).encode())
    for r in engine.device.records:
        ledger.update(
            repr((r.name, r.module, r.seconds.hex(), r.counters)).encode()
        )
    return engine, (
        hashlib.sha256(engine.system.vertices.tobytes()).hexdigest(),
        records.hexdigest(),
        ledger.hexdigest(),
    )


@pytest.mark.slow
@pytest.mark.parametrize("name", PINS)
def test_long_run_equals_its_recorded_digests(name):
    steps, *digests = PINS[name]
    engine, got = run_digests(name, steps)
    assert list(got) == digests
    if name == "rocks_dynamic":
        metrics = engine.metrics
        assert metrics.counter("contact.skin_reuse").value >= 1
        assert metrics.counter("contact.skin_rebuilds").value >= 1
