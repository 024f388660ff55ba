"""Long runs of the harness models, held to their recorded digests.

Two :class:`~repro.engine.gpu_engine.GpuEngine` runs on the benchmark
harness's own models and controls (``benchmarks/harness/workloads.py``:
``build_system``, ``controls_for``, seed 0): the 802-block falling rocks
for 400 steps — past impact, with 187 loop-2 retries, 19 of them
divergence aborts — and the 300-block slope of ``domain_slope`` for 200
steps. Each is held to three SHA-256 digests: the final vertices, every
:class:`~repro.engine.results.StepRecord`, and every record of the
device ledger (name, module, ``seconds.hex()``, counters).

The literals were recorded before detection kept anything across steps
(commit 53d99d2). The vertex and step-record digests of the rocks are
also those of commit 00748ef, before loop 2 aborted a diverging attempt:
the abort saves CG iterations and moves nothing else. The rocks run must
also both keep and rebuild its skin-kept contact candidates.

All six digests were re-recorded for warm sweeps (each open–close
sweep's CG starts from the sweep before's solution) and the compiled
preconditioner products, which move every CG iterate. On the rocks the
CG iterations per accepted sweep fall 24.6 -> 19.4 and the modelled
seconds 4.035 -> 3.567; the retries stay at 187 (18 -> 19 divergence
aborts). On the slope they fall 12.1 -> 10.6 and 0.897 -> 0.831 s, with
121 retries both ways. The old literals are those of commit 5253207.
"""

import dataclasses
import hashlib

import pytest

from benchmarks.harness.workloads import build_system, controls_for
from repro.engine.gpu_engine import GpuEngine

PINS = {
    "rocks_dynamic": (
        400,
        "bfdbbe7a7ff409a38ca71bf08a534347ca7e3cd87db6f9b5855053ac7a1dc22c",
        "768b759cc94c4624ae24353051eca1b683b54debec69f6a1fd86e76f11cd9aa7",
        "7d50bb0ca7b1fe5056b862585d156f0558db63253f7c6e04fecbbdba35f46ce1",
    ),
    "domain_slope": (
        200,
        "d2f6b95deb7dec6bc10b2d134045a6850774b22e416a1175a7a4675d9b0310ae",
        "d7f9cfe4710e8cf342a479a5c93e4e4c55d5d6f30b51c6eb6000320191f46c73",
        "de3e33c7e8bbe7da39ac4cd4cad448a6190bfdedc26826dc712ab23fe79f3284",
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
