"""Loop 2 gives up an attempt whose open–close count diverges.

``EngineBase._attempt`` rejects a loop-2 attempt, cause
``open_close_divergence``, once its significant-change count has risen
in two consecutive sweeps counted from sweep 2 (``c2 < c3 < c4`` stops
it at sweep 4), while a sweep remains under the cap and a retry remains
after it. Sweep 1 does not count: it runs on a fresh table, so its
changes are the contacts closing for the first time.

The rule only saves the sweeps of attempts that loop 2 throws away at
the cap anyway, so the accepted physics must not move. The literals
below are the engine's without the rule (see ``RUNS``). When the rule
was added, counting from sweep 1 aborted two attempts of the rocks run
that are accepted without it: step 345 with counts 4, 9, 12, 5, 2, 0
and step 370 with 7, 8, 10, 4, 2, 0. The trajectory then forks, and the
first test fails.
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
#: Re-recorded for warm sweeps (each open–close sweep's CG starts from
#: the sweep before's solution) and the compiled preconditioner
#: products, which move every CG iterate: the new literals are those of
#: the changed engine with the rule switched off, and the engine with
#: the rule reproduces them (it fires 64 times on the rocks, 4 on the
#: slope). At commit 5253207 they read 2aa78768...982bcb46e9 /
#: 60edd7ed...194dd04e35 and 31e165a3...30efb292df33 / 48bf8479...
#: 4bd1aba457f8.
RUNS = {
    "rocks": (
        lambda: build_falling_rocks_model(n_rock_rows=3, n_rock_cols=8),
        True, 400,
        "75cf6064feb1b77f46140500c1a2fbb16fd980574ab548121b37109011e3f7f9",
        "0c62d08eb159ff679787a14243060d7e4ca23e93e83ece5ccd9e529674f579b1",
    ),
    "slope": (
        lambda: build_slope_model(joint_spacing=6.0, seed=0),
        False, 30,
        "770a51afb0eff0276fc567ed26a2199e8b20ad3e1d7843c0d9a4653ac6a9d0dc",
        "c67f4f80ee48d48921c87d2dfd716f0fd646f0bcaca975e0e1aa98fdceeec792",
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
