"""Loop 2 gives up an attempt whose open–close count diverges.

``EngineBase._attempt`` rejects a loop-2 attempt, cause
``open_close_divergence``, once its significant-change count has risen
in two consecutive sweeps counted from sweep 2 (``c2 < c3 < c4`` stops
it at sweep 4), while a sweep remains under the cap and a retry remains
after it. Sweep 1 does not count: it runs on a fresh table, so its
changes are the contacts closing for the first time.

The rule only saves the sweeps of attempts that loop 2 throws away at
the cap anyway, so the accepted physics must not move. The literals
below were recorded before the rule existed. Counted from sweep 1, the
rule aborts two attempts of the rocks run that are accepted without it:
step 345 with counts 4, 9, 12, 5, 2, 0 and step 370 with 7, 8, 10, 4,
2, 0. The trajectory then forks, and the first test fails.
"""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from repro.contact.open_close import OpenCloseDriver
from repro.core.state import SimulationControls
import repro.engine.base as engine_base
from repro.engine.base import MAX_STEP_RETRIES
from repro.engine.gpu_engine import GpuEngine
from repro.meshing.slope_models import (
    build_brick_wall,
    build_falling_rocks_model,
    build_slope_model,
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: ``(vertex SHA-256, SHA-256 of every StepRecord tuple)`` of each run
#: before the rule: the CLI's ``--model rocks`` (26 blocks, dynamic) and
#: ``--model slope`` (89 blocks, static), gpu preset, dt 2e-3.
RUNS = {
    "rocks": (
        lambda: build_falling_rocks_model(n_rock_rows=3, n_rock_cols=8),
        True, 400,
        "2aa7876832cc7db80b6b6d583e82ae76c942d288bd8e019b0afbb5982bcb46e9",
        "60edd7edad1bfd86afac72d19147f498d2297d109776729d5438df194dd04e35",
    ),
    "slope": (
        lambda: build_slope_model(joint_spacing=6.0, seed=0),
        False, 30,
        "31e165a3bc8bde4b6214ffd63114127d23b06abcd58bbdce7e8030efb292df33",
        "48bf847936016f89b83a743f40d8b5f34a8a6477b618adea57df4bd1aba457f8",
    ),
}


@pytest.mark.parametrize("model", RUNS)
def test_aborting_diverging_attempts_leaves_the_physics_bit_equal(model):
    build, dynamic, steps, vertices, records = RUNS[model]
    engine = GpuEngine(
        build(), SimulationControls(time_step=2e-3, dynamic=dynamic)
    )
    result = engine.run(steps)

    counters = engine.metrics.snapshot()["counters"]
    assert counters["engine.step_rejected.open_close_divergence"] > 0
    assert _sha(np.ascontiguousarray(engine.system.vertices).tobytes()) == (
        vertices
    )
    assert _sha(
        repr([dataclasses.astuple(s) for s in result.steps]).encode()
    ) == records


@pytest.mark.parametrize("cap, cause", [
    (6, "open_close_divergence"), (4, "open_close_oscillation"),
])
def test_the_last_retry_runs_every_sweep(monkeypatch, cap, cause):
    """A count that rises at every sweep: attempts 0-9 stop at sweep 4
    (at a cap of 4 no sweep is left and the cap rejects them), and the
    last retry runs to the cap and is accepted unsettled, as it is
    without the rule."""
    counts = itertools.count(1)
    real = OpenCloseDriver.sweep

    def rising(self, d, prev_normal_force):
        return dataclasses.replace(
            real(self, d, prev_normal_force), significant_changes=next(counts)
        )

    monkeypatch.setattr(OpenCloseDriver, "sweep", rising)
    monkeypatch.setattr(engine_base, "MAX_OPEN_CLOSE_ITERATIONS", cap)
    engine = GpuEngine(
        build_brick_wall(2, 2), SimulationControls(time_step=1e-3)
    )
    result = engine.run(1)
    (record,) = result.steps

    assert [len(a.changes) for a in result.rejected] == [4] * MAX_STEP_RETRIES
    assert {a.cause for a in result.rejected} == {cause}
    assert record.retries == MAX_STEP_RETRIES
    assert record.open_close_iterations == cap
    assert record.oc_converged is False
    counters = engine.metrics.snapshot()["counters"]
    assert counters[f"engine.step_rejected.{cause}"] == MAX_STEP_RETRIES
    assert counters["engine.step_retries"] == MAX_STEP_RETRIES
