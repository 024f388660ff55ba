"""Once-per-step contact work: the detection memo and its assumptions.

``EngineBase._step_impl`` runs the preset's ``_detect_contacts()`` on
the first loop-2 attempt only; a retry replays the captured launch
slice and starts from a fresh copy of the detected table. That is valid
because detection reads block geometry and the previous step's accepted
contacts, neither of which a retry changes — these tests hold it to
that: detection is a pure function of what the memo assumes, a step
with retries reproduces the pre-memo engine bit for bit, the ledger
still shows one detection per attempt, and fault injection still acts
on (only) the attempt it fires in.
"""

import copy
import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.blocks import Block, BlockSystem
from repro.core.materials import BlockMaterial
from repro.core.state import ResilienceControls, SimulationControls
from repro.engine.chaos import FaultInjector
from repro.engine.domain_engine import DomainEngine
from repro.engine.gpu_engine import GpuEngine
from repro.engine.hybrid_engine import HybridEngine
from repro.engine.serial_engine import SerialEngine
from repro.meshing.slope_models import (
    build_falling_rocks_model,
    build_slope_model,
)

ENGINES = {
    "serial": SerialEngine,
    "gpu": GpuEngine,
    "hybrid": HybridEngine,
    "domain": DomainEngine,
}


def _contact_fields(contacts):
    return {
        f.name: getattr(contacts, f.name)
        for f in dataclasses.fields(contacts)
    }


# ----------------------------------------------------------------------
# detection is a pure function of geometry + the previous contacts
# ----------------------------------------------------------------------
def _smoke(case):
    if case == "slope":  # the 117-block smoke slope
        return (
            build_slope_model(joint_spacing=5.0, seed=0),
            SimulationControls(time_step=1e-3, dynamic=False),
        )
    return (
        build_falling_rocks_model(
            n_rock_rows=2, n_rock_cols=3, slope_height=20.0
        ),
        SimulationControls(
            time_step=1e-3, dynamic=True, max_displacement_ratio=0.05
        ),
    )


def _detect_on_scratch(engine):
    """One ``_detect_contacts()`` on a scratch ledger: the table's
    fields and the ``(name, counters)`` slice it recorded."""
    live = engine.device
    engine.device = copy.copy(live)  # same profile(s) and routes
    engine.device.records = []
    try:
        contacts = engine._detect_contacts()
        return _contact_fields(contacts), engine.device.launches_since(0)
    finally:
        engine.device = live


@pytest.mark.parametrize("preset", ENGINES)
@pytest.mark.parametrize("case", ["slope", "rocks"])
def test_detection_ignores_dt_and_velocities(preset, case):
    """What a loop-2 retry changes (``dt``, the restored velocities)
    must not reach contact detection — the guard that fails if the
    contact threshold or the penalty is ever made to depend on them."""
    system, controls = _smoke(case)
    engine = ENGINES[preset](system, controls)
    engine.run(steps=2)
    first, first_launches = _detect_on_scratch(engine)
    engine.dt *= 0.5
    engine.system.velocities = engine.system.velocities + 0.125
    second, second_launches = _detect_on_scratch(engine)

    assert len(first) == 14
    assert first["block_i"].size > 0
    for name, values in first.items():
        np.testing.assert_array_equal(values, second[name], err_msg=name)
    assert first_launches == second_launches


# ----------------------------------------------------------------------
# a step with loop-2 retries reproduces the pre-memo engine exactly
# ----------------------------------------------------------------------
def _retrying_engine(preset, engine_cls=None, **kwargs):
    """The harness's ``slope_static --quick`` problem (89 blocks): step
    0 takes four loop-2 retries, step 1 one."""
    system = build_slope_model(joint_spacing=6.0, seed=0)
    controls = SimulationControls(
        time_step=2e-3, dynamic=False, gravity=9.81, penalty_scale=50.0,
        preconditioner="bj",
    )
    if preset == "domain":
        kwargs["n_domains"] = 2
    return (engine_cls or ENGINES[preset])(system, controls, **kwargs)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _vertices_sha(engine) -> str:
    return _sha(np.ascontiguousarray(engine.system.vertices).tobytes())


#: Recorded at commit 6026fe3 — the last one that re-ran detection on
#: every attempt — from ``_retrying_engine(preset).run(2)``.
PARENT_STEPS = [
    dict(step=0, dt=0.000125, cg_iterations=62, open_close_iterations=4,
         n_contacts=877, n_offdiag_blocks=281, retries=4, solver_rung=0,
         oc_converged=True),
    dict(step=1, dt=9.375e-05, cg_iterations=54, open_close_iterations=3,
         n_contacts=877, n_offdiag_blocks=281, retries=1, solver_rung=0,
         oc_converged=True),
]
PARENT_VERTICES = (
    "fdae49f021f1efc74ec20c7690a7563c9ca7ada3997affc0dc761b713dc61d6b"
)
#: serial/domain and gpu/hybrid differ in the last digit of the two
#: float fields (their assemblers sum contributions in different order)
_CPU_FLOATS = [
    dict(max_displacement=1.0967855456953091e-07,
         max_penetration=1.660210011524069e-08),
    dict(max_displacement=6.48782561238547e-08,
         max_penetration=2.569755327672807e-08),
]
_GPU_FLOATS = [
    dict(max_displacement=1.096785545695309e-07,
         max_penetration=1.6602100115240683e-08),
    dict(max_displacement=6.487825612385473e-08,
         max_penetration=2.5697553276728085e-08),
]
PARENT = {
    "serial": dict(
        total_time="0.43690543454465425", launches=12621, floats=_CPU_FLOATS,
        kernels="49d0f922910a09b77563726f87cc5499"
                "e427d36239589b1dcad173d885fe0cf6",
    ),
    "gpu": dict(
        total_time="0.07161430392810565", launches=13228, floats=_GPU_FLOATS,
        kernels="f98235f211edc82970848aeeb3fbe694"
                "d2a71beda9f9c2f0b57c07ca3106d2a4",
    ),
    "hybrid": dict(
        total_time="0.1250562283376913", launches=12789, floats=_GPU_FLOATS,
        kernels="2789a03b1d54ede4fa01f88d05d43f9c"
                "2b2950487885d02063926c9e90f2ffd7",
    ),
    "domain": dict(
        total_time="0.06998914454467038", launches=148, floats=_CPU_FLOATS,
        kernels="74d2470e3f785813ab519157d89bf34c"
                "4b47e14baa023f63369d397c3f6d10ed",
    ),
}


@pytest.mark.parametrize("preset", ENGINES)
def test_memoised_step_reproduces_parent(preset):
    engine = _retrying_engine(preset)
    result = engine.run(2)
    pin = PARENT[preset]
    device = engine.device

    assert _vertices_sha(engine) == PARENT_VERTICES
    assert repr(device.total_time) == pin["total_time"]
    assert device.launches() == pin["launches"]
    assert _sha("\n".join(r.name for r in device.records).encode()) == (
        pin["kernels"]
    )
    expected = [
        {**ints, **floats}
        for ints, floats in zip(PARENT_STEPS, pin["floats"])
    ]
    assert [dataclasses.asdict(s) for s in result.steps] == expected


@pytest.mark.parametrize("preset", ENGINES)
def test_one_detection_per_step_one_ledger_slice_per_attempt(preset):
    calls = []

    class Counting(ENGINES[preset]):
        def _detect_contacts(self):
            calls.append(self._current_step)
            return super()._detect_contacts()

    engine = _retrying_engine(preset, Counting)
    result = engine.run(2)

    attempts = sum(s.retries + 1 for s in result.steps)
    assert attempts == 7
    assert calls == [0, 1]
    broad = "serial_broad_phase" if preset in ("serial", "domain") else (
        "broad_phase_tiled"
    )
    names = [r.name for r in engine.device.records]
    assert names.count(broad) == attempts
    # executed transfers, not attempts, feed the hit/miss counters
    counters = engine.metrics.snapshot()["counters"]
    assert (
        counters["contact_transfer.hits"] + counters["contact_transfer.misses"]
        == sum(s.n_contacts for s in result.steps)
    )


# ----------------------------------------------------------------------
# fault injection acts on the attempt's copy, and only on it
# ----------------------------------------------------------------------
class AttemptInjector(FaultInjector):
    """Holds its contact-detection faults back until loop-2 attempt
    ``attempt`` of ``start_step``."""

    def __init__(self, faults, *, start_step, attempt):
        super().__init__(faults=faults, start_step=start_step)
        self.attempt = attempt
        self.visits = 0

    def perturb(self, stage, payload, *, step, engine=None):
        if stage == "contact_detection" and step == self.start_step:
            self.visits += 1
            if self.visits <= self.attempt:
                return payload
        return super().perturb(stage, payload, step=step, engine=engine)


class TableRecorder(GpuEngine):
    """Keeps every attempt's post-injection contact table."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tables = []

    def _inject(self, stage, payload, step):
        out = super()._inject(stage, payload, step)
        if stage == "contact_detection":
            self.tables.append(out)
        return out


def _stacked_blocks():
    """A unit block resting on a fixed wide base: two VE contacts that
    are closed from step 0 on (what ``contact_drop`` needs), and — under
    the displacement cap below — retries in steps 0, 1 and 2."""
    base = np.array([[0, 0], [3, 0], [3, 1], [0, 1.0]])
    top = np.array([[1, 1], [2, 1], [2, 2], [1, 2.0]])
    material = BlockMaterial(young=1e9)
    system = BlockSystem([Block(base, material), Block(top, material)])
    system.fix_block(0)
    return system


def test_contact_drop_on_a_retry_is_injected_and_caught():
    """A drop armed for the first retry of step 1 hits that attempt's
    copy of the table, ``check_contacts`` (level full) rejects it, and
    the run rolls back and recovers."""
    injector = AttemptInjector(["contact_drop"], start_step=1, attempt=1)
    controls = SimulationControls(
        time_step=5e-3, dynamic=True, max_displacement_ratio=1e-6,
        contract_level="full",
        resilience=ResilienceControls(checkpoint_every=1),
    )
    engine = TableRecorder(
        _stacked_blocks(), controls, fault_injector=injector
    )
    result = engine.run(3)

    (fault,) = injector.injected
    assert (fault.name, fault.step) == ("contact_drop", 1)
    assert result.rollbacks == 1
    assert result.contract_violations == {"contact_detection": 1}
    assert result.failure is None and len(result.steps) == 3
    sizes = [t.m for t in engine.tables]
    full = max(sizes)
    hit = sizes.index(full - 1)
    assert sizes.count(full - 1) == 1
    # the attempt before it was a clean attempt of the same step
    assert hit >= 1 and sizes[hit - 1] == full


def test_fault_in_one_attempt_does_not_leak_into_the_next():
    """``spring_sign_flip`` corrupts its table in place. Fired in
    attempt 0 of step 0 (which loop 2 rejects either way), every later
    attempt must still start from the pristine table — and the run must
    end exactly where the clean one does."""
    injector = AttemptInjector(["spring_sign_flip"], start_step=0, attempt=0)
    engine = _retrying_engine("gpu", TableRecorder, fault_injector=injector)
    result = engine.run(2)

    (fault,) = injector.injected
    assert (fault.name, fault.step) == ("spring_sign_flip", 0)
    first, *later = engine.tables
    assert (first.pn < 0).sum() == 1
    assert len({id(t) for t in engine.tables}) == len(engine.tables)
    for table in later[: result.steps[0].retries]:
        assert (table.pn > 0).all()
        np.testing.assert_array_equal(
            np.delete(table.pn, np.flatnonzero(first.pn < 0)),
            first.pn[first.pn > 0],
        )
    assert result.steps[0].retries >= 1
    assert _vertices_sha(engine) == PARENT_VERTICES
