"""Once-per-step contact work: the detection memo and its assumptions.

``EngineBase._replay_detection`` runs the preset's ``_detect_contacts()`` on
the first loop-2 attempt only; a retry records the captured slice of
priced launches again and starts from a fresh copy of the detected
table. That is valid because detection reads block geometry and the
previous step's accepted contacts, neither of which a retry changes —
these tests hold it to that: detection is a pure function of what the
memo assumes, a step with retries reproduces the pre-memo engine bit for
bit, the ledger still shows one detection per attempt, and fault
injection still acts on (only) the attempt it fires in.
"""

import copy
import dataclasses
import hashlib

import numpy as np
import pytest
from planting import DROP_ONE_CLOSED, PLANTED, Planter

import repro.engine.base as engine_base
from repro.core.blocks import Block, BlockSystem
from repro.core.materials import BlockMaterial
from repro.core.state import ResilienceControls, SimulationControls
from repro.engine.domain_engine import DomainEngine
from repro.engine.gpu_engine import GpuEngine
from repro.engine.hybrid_engine import HybridEngine
from repro.engine.resilience import solver_ladder
from repro.engine.serial_engine import SerialEngine
from repro.meshing.slope_models import (
    build_falling_rocks_model,
    build_slope_model,
)
from repro.solvers.cg import pcg
from repro.solvers.preconditioners import make_preconditioner

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
    fields and the priced records it left there."""
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
#: every attempt — from ``_retrying_engine(preset).run(2)``. The two
#: float fields are the same on every preset since detection became one
#: body for every preset; before, serial/domain read
#: 1.0967855456953091e-07 / 1.660210011524069e-08 and
#: 6.48782561238547e-08 / 2.569755327672807e-08: their pair list, sorted
#: into the serial double loop's order, reached the assembler in another
#: order than gpu/hybrid's.
PARENT_STEPS = [
    dict(step=0, dt=0.000125, cg_iterations=62, open_close_iterations=4,
         n_contacts=877, n_offdiag_blocks=281,
         max_displacement=1.096785545695309e-07,
         max_penetration=1.6602100115240683e-08, retries=4, solver_rung=0,
         oc_converged=True),
    dict(step=1, dt=9.375e-05, cg_iterations=54, open_close_iterations=3,
         n_contacts=877, n_offdiag_blocks=281,
         max_displacement=6.487825612385473e-08,
         max_penetration=2.5697553276728085e-08, retries=1, solver_rung=0,
         oc_converged=True),
]
PARENT_VERTICES = (
    "fdae49f021f1efc74ec20c7690a7563c9ca7ada3997affc0dc761b713dc61d6b"
)
#: The ledger of the same run. Re-recorded when the fallback ladder
#: began to remember the rung an attempt needs (see
#: ``test_memoised_step_reproduces_parent``); at 6026fe3 the three
#: single-device presets read 0.43690543454465425 s / 12621 launches,
#: 0.07161430392810565 / 13228 and 0.1250562283376913 / 12789. Re-recorded
#: again when a single-device CG iteration became four launches: with
#: every CG-iteration record (``hsbcsr_*``, ``cg_*``, ``bj_apply``,
#: ``ssor_ai_apply``) dropped on both sides, the three ledgers equal
#: commit 6090d60's (186 / 793 / 354 records). The domain preset's own
#: device never carried the solve: unchanged. Re-recorded when loop 2
#: began to give up a diverging attempt: attempts 0 and 1 of step 0
#: (counts 163, 437, 547, 581 and 143, 384, 533, 575) stop at sweep 4.
#: With the records of their sweeps 5 and 6 dropped, all four ledgers
#: (and both domain devices below) equal commit 00748ef's, which read
#: 0.42238297921135937 s / 9736 launches, 0.05679333457189102 / 10343,
#: 0.11023525898148005 / 9904 and 0.06998914454467038 / 148.
PARENT = {
    "serial": dict(
        total_time="0.3389908732113532", launches=7826,
        kernels="1e8ea333316235231017105825015cfd"
                "b7a3711e25a7223998cf2582c7f84aab",
    ),
    "gpu": dict(
        total_time="0.04594223637581418", launches=8373,
        kernels="9979df0b21ba62373a1272db3c9aba31"
                "1396c7da75c10a253294299c74faf416",
    ),
    "hybrid": dict(
        total_time="0.09368117119934473", launches=7982,
        kernels="14b5d6f69b0267394c9de70cff5bd0f5"
                "c7cf1e8dd2da6aafade6392a5aab3070",
    ),
    "domain": dict(
        total_time="0.06322620321133705", launches=136,
        kernels="ea30e60026dfa8897259d0935d869d03"
                "7f6771a3b0d97fca260018bee1b4b0b2",
    ),
}
#: The two domain devices of the domain preset, which do carry the
#: solve: ``(launches(), repr(total_time))``. Recorded at 4aa70ac, the
#: last commit that priced every one of those launches at its call, and
#: re-recorded when the halo exchange began to hide behind the interior
#: product and r·r / r·z to share one all-reduce: with every ``pcie_*``
#: record and the converged exits' speculative preconditioner
#: applications dropped, both ledgers still equal 4aa70ac's (8 641
#: records, 0.16221491199998414 and 0.16015906133334976 s). Before the
#: diverging attempts stopped at sweep 4: 18 820 launches each,
#: 0.20713066799997804 and 0.2050670133333571 s.
PARENT_DOMAIN_DEVICES = [
    (15212, "0.1673734079999854"), (15212, "0.16568115800001215"),
]


@pytest.mark.parametrize("preset", ENGINES)
def test_memoised_step_reproduces_parent(preset):
    """Final vertices and every ``StepRecord`` field are still the ones
    recorded before the detection memo — and before the ladder memory.
    The ledger is the smaller one the ladder memory leaves: in attempt 0
    of step 0 block-Jacobi hits the 200-iteration cap in sweep 3, SSOR-AI
    converges, and sweeps 4-6 start at SSOR-AI (111 + 103 + 95
    iterations) instead of first trying block-Jacobi (which converged
    there, 192 + 180 + 151); loop 2 rejects that attempt either way (its
    open-close iteration does not settle), so nothing accepted moves.
    CG iterations over the run: 2464 -> 2250, 38 solves both ways.
    Since loop 2 gives up an attempt whose count diverges, attempts 0
    and 1 stop at sweep 4 and their sweeps 5-6 are not run: 2250 -> 1829
    iterations, 34 solves; the vertices and step records do not move.
    """
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
    assert [dataclasses.asdict(s) for s in result.steps] == PARENT_STEPS
    if preset == "domain":
        assert [
            (d.launches(), repr(d.total_time)) for d in engine.domain_devices
        ] == PARENT_DOMAIN_DEVICES


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
class AttemptPlanter(Planter):
    """Holds its contact-detection defect back until loop-2 attempt
    ``attempt`` of step ``step``."""

    def __init__(self, engine, row, *, step, attempt):
        super().__init__(engine, row, step=step)
        self.attempt = attempt
        self.visits = 0

    def perturb(self, stage, payload, *, step, engine):
        if stage == "contact_detection" and step == self.step:
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
    controls = SimulationControls(
        time_step=5e-3, dynamic=True, max_displacement_ratio=1e-6,
        contract_level="full",
        resilience=ResilienceControls(checkpoint_every=1),
    )
    engine = TableRecorder(_stacked_blocks(), controls)
    planter = AttemptPlanter(engine, DROP_ONE_CLOSED, step=1, attempt=1)
    result = engine.run(3)

    assert planter.planted == [1]
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
    """The ``penalty_sign`` defect corrupts its table in place. Planted
    in attempt 0 of step 0 (which loop 2 rejects either way), every
    later attempt must still start from the pristine table — and the
    run must end exactly where the clean one does."""
    engine = _retrying_engine("gpu", TableRecorder)
    planter = AttemptPlanter(engine, PLANTED["penalty_sign"], step=0, attempt=0)
    result = engine.run(2)

    assert planter.planted == [0]
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


# ----------------------------------------------------------------------
# the solves the ladder memory leaves out could not have mattered
# ----------------------------------------------------------------------
class SkipRecorder:
    """Engine mix-in: every rung solve the ladder did not run, as
    ``(attempt, rung, matrix, rhs, x0)`` — replayable by hand."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.attempt = 0
        self.accepted = set()
        self.skipped = []
        self.kept = {}

    def _build_diagonal(self):  # runs once per loop-2 attempt
        self.attempt += 1
        return super()._build_diagonal()

    def _update_data(self, d):  # only an accepted attempt gets here
        self.accepted.add(self.attempt)
        super()._update_data(d)

    def _solve_with_fallback(self, matrix, rhs, x0, first_rung=0):
        before = self.metrics.counter("solver.rungs_skipped").value
        res, rung, iters = super()._solve_with_fallback(
            matrix, rhs, x0, first_rung
        )
        n = self.metrics.counter("solver.rungs_skipped").value - before
        # by memory: the rungs below the first; by the zero-warm-start
        # rule: the cold restart after the last rung tried
        rungs = list(range(first_rung)) + [rung] * (n - first_rung)
        for r in rungs:
            self.skipped.append(
                (self.attempt, r, matrix, rhs, x0.copy())
            )
            self.kept[len(self.skipped) - 1] = res
        return res, rung, iters


def _replay(engine, rung, matrix, rhs, x0):
    """One ladder rung's solve, by hand, off the engine's ledger."""
    name, warm = solver_ladder(engine.controls.preconditioner)[rung]
    return pcg(
        matrix, rhs, x0=x0 if warm else None,
        preconditioner=make_preconditioner(name, matrix),
        tol=engine_base.CG_TOLERANCE,
        max_iterations=engine_base.CG_MAX_ITERATIONS,
    )


def _capped(monkeypatch, preset, cap, engine_cls):
    monkeypatch.setattr(engine_base, "CG_MAX_ITERATIONS", cap)
    return _retrying_engine(preset, engine_cls)


@pytest.mark.parametrize("preset", ["serial", "gpu"])
def test_skipped_solves_replayed_by_hand_are_the_discarded_ones(
    monkeypatch, preset
):
    """With the iteration cap at 100 the 89-block model does what the
    1089-block benchmark model does at 200: attempt 0 exhausts the
    ladder on a zero warm start, attempt 1 climbs to SSOR-AI and stays
    there until loop 2 gives it up, its count diverging, at sweep 4
    (its sweeps 5 and 6, no longer run, skipped block-Jacobi as well).
    Every rung solve left out is run here by hand on the same operand
    and warm start: the block-Jacobi solves hit the cap again (the
    ladder would have thrown them away) and the cold restart is the
    warm solve it follows, bit for bit."""

    class Recorder(SkipRecorder, ENGINES[preset]):
        pass

    engine = _capped(monkeypatch, preset, 100, Recorder)
    engine.run(2)
    counters = engine.metrics.snapshot()["counters"]
    assert counters["solver.rungs_skipped"] == len(engine.skipped) == 3
    assert [(a, r) for a, r, *_ in engine.skipped] == [
        (1, 2), (2, 0), (2, 0),
    ]
    for k, (attempt, rung, matrix, rhs, x0) in enumerate(engine.skipped):
        res = _replay(engine, rung, matrix, rhs, x0)
        assert not res.converged and res.iterations == 100
        if rung == 2:  # the cold restart: the warm solve over again
            kept = engine.kept[k]
            assert not x0.any()
            np.testing.assert_array_equal(res.x, kept.x)
            assert res.residuals == kept.residuals


@pytest.mark.parametrize("preset", ENGINES)
def test_run_without_the_ladder_memory_ends_in_the_same_place(
    monkeypatch, preset
):
    """The same capped run against an engine whose every solve starts
    at rung 0: same accepted steps, same final state, more iterations."""

    class Amnesiac(ENGINES[preset]):
        def _solve_with_fallback(self, matrix, rhs, x0, first_rung=0):
            return super()._solve_with_fallback(matrix, rhs, x0, 0)

    ours = _capped(monkeypatch, preset, 100, None)
    theirs = _capped(monkeypatch, preset, 100, Amnesiac)
    result, reference = ours.run(2), theirs.run(2)
    assert result.steps == reference.steps
    assert _vertices_sha(ours) == _vertices_sha(theirs)
    np.testing.assert_array_equal(ours._prev_solution, theirs._prev_solution)
    iterations = [
        e.metrics.snapshot()["histograms"]["cg.iterations"]["sum"]
        for e in (ours, theirs)
    ]
    # two block-Jacobi solves at the cap (four before diverging attempts
    # stopped at sweep 4)
    assert iterations[0] == iterations[1] - 200
