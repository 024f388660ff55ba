"""The culling narrow phase is the un-culled one, by bit.

:func:`repro.contact.narrow_phase.narrow_phase` keeps its candidate rows
in a :class:`~repro.contact.narrow_phase.CandidatePlan` and measures only
the rows a two-level bounding-box cull cannot rule out. Everything here
holds it to ``narrow_phase_oracle`` — the body it replaced, which expands,
gathers and measures every row on every call: every ``ContactSet`` column
``tobytes()``-equal and every ledger record ``repr``-equal.

The cull is only allowed to drop rows the distance judgment would drop.
A mutant with ``reach = 0.9 * threshold`` in ``narrow_phase`` must fail
the equivalence tests of this file. Checked by hand when the cull was
written: the long run, the Hypothesis scenes and both
``test_vertex_at_the_threshold`` cases fail under it (the freshly meshed
harness models do not — their contacts sit at zero gap, none between 0.9
and 1.0 of the threshold). Re-check after any change to ``reach`` or
:data:`~repro.contact.narrow_phase.CULL_SLACK_ULPS`.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from narrow_phase_oracle import narrow_phase_oracle
from test_narrow_phase_properties import random_scene

import repro.contact.skin
from repro.contact.broad_phase import broad_phase_pairs
from repro.contact.narrow_phase import CandidatePlan, narrow_phase
from repro.contact.skin import KeptCandidates
from repro.core.blocks import Block, BlockSystem
from repro.core.materials import JointMaterial
from repro.core.state import ResilienceControls, SimulationControls
from repro.engine.domain_engine import DomainEngine
from repro.engine.gpu_engine import GpuEngine
from repro.engine.hybrid_engine import HybridEngine
from repro.engine.serial_engine import SerialEngine
from repro.gpu.device import K40
from repro.gpu.kernel import VirtualDevice
from repro.meshing.slope_models import (
    build_brick_wall,
    build_falling_rocks_model,
    build_slope_model,
)

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def ledger(device, start=0):
    """What each launch cost (not which stage region it was charged in)."""
    return [
        repr((r.name, r.seconds.hex(), r.counters))
        for r in device.records[start:]
    ]


def assert_same_table(got, want):
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype, f.name
        assert a.tobytes() == b.tobytes(), f.name


def assert_equals_oracle(system, i, j, threshold, **kw):
    """One call of each, on fresh ledgers; returns the table."""
    ours, theirs = VirtualDevice(K40), VirtualDevice(K40)
    got = narrow_phase(system, i, j, threshold, ours, **kw)
    kw.pop("candidates", None)
    want = narrow_phase_oracle(system, i, j, threshold, theirs, **kw)
    assert_same_table(got, want)
    assert ledger(ours) == ledger(theirs)
    return got


def all_pairs(system):
    i, j = np.triu_indices(system.n_blocks, k=1)
    return i.astype(np.int64), j.astype(np.int64)


def rocks(rows, cols):
    return build_falling_rocks_model(
        slope_height=70.0, slope_angle_deg=42.0, rock_size=2.0,
        n_rock_rows=rows, n_rock_cols=cols,
        joint_material=JointMaterial(friction_angle_deg=18.0),
    )


def rocks_controls(time_step=2e-3, **kw):
    return SimulationControls(
        time_step=time_step, dynamic=True, gravity=9.81, penalty_scale=50.0,
        preconditioner="bj", max_displacement_ratio=0.05, **kw,
    )


# the harness's four models at --quick size, and rocks_dynamic at full size
HARNESS_MODELS = {
    "slope_static-quick": lambda: build_slope_model(joint_spacing=6.0, seed=0),
    "domain_slope-quick": lambda: build_slope_model(joint_spacing=8.0, seed=0),
    "rocks_dynamic-quick": lambda: rocks(3, 8),
    "service_http": lambda: build_brick_wall(rows=4, cols=6),
    "rocks_dynamic-full": lambda: rocks(20, 40),
}


# ----------------------------------------------------------------------
# equivalence on whole models
# ----------------------------------------------------------------------
@pytest.mark.parametrize("model", HARNESS_MODELS)
def test_harness_model_equals_the_oracle(model):
    system = HARNESS_MODELS[model]()
    engine = GpuEngine(system, rocks_controls())
    threshold = engine.contact_threshold
    i, j = broad_phase_pairs(system.aabbs, threshold)
    table = assert_equals_oracle(system, i, j, threshold, tol=engine.tolerances)
    assert table.m > 0
    # a kept plan changes nothing, call after call
    plan = CandidatePlan.build(system, i, j)
    for _ in range(2):
        assert_equals_oracle(
            system, i, j, threshold, tol=engine.tolerances, candidates=plan
        )


def checked_narrow_phase(log):
    """A stand-in for the engines' ``narrow_phase`` that also runs the
    oracle on the same inputs and compares table and launches (the kept
    kind split included)."""

    def run(system, i, j, threshold, device, *, tol, candidates, rows, split):
        start = len(device.records)
        got = narrow_phase(
            system, i, j, threshold, device,
            tol=tol, candidates=candidates, rows=rows, split=split,
        )
        scratch = VirtualDevice(device.profile)
        want = narrow_phase_oracle(system, i, j, threshold, scratch, tol=tol)
        assert_same_table(got, want)
        assert ledger(device, start) == ledger(scratch)
        log.append(candidates)
        return got

    return run


def test_long_run_equals_the_oracle_across_plan_rebuilds(monkeypatch):
    """280 steps of the falling rocks at dt = 5e-3: the rocks slide far
    enough for the pair list to change (steps 220, 239 and 274), so the
    gate both hits and misses, and every detection equals the oracle."""
    plans = []
    monkeypatch.setattr(
        repro.contact.skin, "narrow_phase", checked_narrow_phase(plans)
    )
    engine = GpuEngine(rocks(3, 8), rocks_controls(time_step=5e-3))
    steps = 280
    engine.run(steps=steps)
    assert len(plans) == steps
    reuse = engine.metrics.counter("contact.candidate_plan_reuse").value
    misses = steps - reuse
    assert misses > 1  # step 0, and the list changed at least once
    assert len({id(p) for p in plans}) == misses


# ----------------------------------------------------------------------
# equivalence on random and constructed scenes
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=400),
       st.integers(min_value=2, max_value=7),
       st.sampled_from([0.0, 1e6]))
@settings(max_examples=60, deadline=None)
def test_property_random_scene_equals_the_oracle(seed, n, shift):
    """``shift = 1e6`` puts 1e-10 m of rounding on every coordinate of a
    unit-sized scene: it is what ``slack`` in ``reach`` is for."""
    scene = random_scene(seed, n)
    system = BlockSystem(
        [Block(b.vertices + shift) for b in scene.to_blocks()]
    )
    threshold = 0.1
    i, j = broad_phase_pairs(system.aabbs, threshold)
    assert_equals_oracle(system, i, j, threshold)
    # every pair, not only the broad phase's: rows far outside the boxes
    assert_equals_oracle(system, *all_pairs(system), threshold)


THRESHOLD = 0.0625  # 1 + THRESHOLD is exact


def resting_pair(gap, shift=0.0):
    """A half-unit square ``gap`` above the top edge of a 4 x 1 base."""
    base = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 1.0], [0.0, 1.0]])
    top = SQ * 0.5 + np.array([1.5, 1.0 + gap])
    return BlockSystem([Block(base + shift), Block(top + shift)])


@pytest.mark.parametrize("shift", [0.0, 1e6])
def test_vertex_at_the_threshold(shift):
    """``dist < threshold`` is strict: a vertex exactly ``threshold``
    away is abandoned, one ulp closer is a contact — and the cull agrees
    with the judgment on both sides of the line."""
    ulp = np.spacing(1.0 + THRESHOLD + shift)
    found = {}
    for name, gap in (
        ("inside", THRESHOLD - ulp), ("at", THRESHOLD), ("outside", THRESHOLD + ulp),
    ):
        system = resting_pair(gap, shift)
        found[name] = assert_equals_oracle(
            system, *all_pairs(system), THRESHOLD
        ).m
    assert found == {"inside": 2, "at": 0, "outside": 0}


def test_vertex_on_an_endpoint_and_zero_length_edge():
    # the top block's corner sits exactly on the base's corner (4, 1)
    base = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 1.0], [0.0, 1.0]])
    system = BlockSystem([Block(base), Block(SQ * 0.5 + [4.0, 1.0])])
    table = assert_equals_oracle(system, *all_pairs(system), THRESHOLD)
    assert table.m > 0
    # collapse the base's top edge onto one point: a zero-length edge in
    # the middle of the candidate rows, right under the top block
    system = resting_pair(THRESHOLD / 2)
    system.vertices[2] = system.vertices[3]
    assert_equals_oracle(system, *all_pairs(system), THRESHOLD)


def test_a_nan_vertex_culls_only_its_own_rows():
    system = build_brick_wall(rows=2, cols=3)
    i, j = broad_phase_pairs(system.aabbs, 0.05)
    clean = narrow_phase(system, i, j, 0.05).m
    system.vertices[system.offsets[2] + 1] = np.nan
    table = assert_equals_oracle(system, i, j, 0.05)
    assert 0 < table.m < clean


# ----------------------------------------------------------------------
# the plan: validation, gate, size
# ----------------------------------------------------------------------
class TestPairListValidation:
    """Fail at the parent: an ``IndexError`` from a fancy index, or
    silently doubled contacts."""

    system = build_brick_wall(rows=2, cols=3)  # 8 blocks

    @pytest.mark.parametrize(
        "i, j, named",
        [
            ([0, 1], [1, 8], "pair 1 is (1, 8)"),     # j >= n_blocks
            ([0, -1], [1, 2], "pair 1 is (-1, 2)"),   # negative id
            ([0, 3, 2], [1, 2, 2], "pair 1 is (3, 2)"),  # i > j first
            ([0, 2], [1, 2], "pair 1 is (2, 2)"),     # i == j
            ([0, 1, 0, 1], [1, 2, 1, 2], "pair 2 is (0, 1)"),  # repeated
        ],
    )
    def test_offending_pair_is_named(self, i, j, named):
        i, j = np.array(i, dtype=np.int64), np.array(j, dtype=np.int64)
        with pytest.raises(ValueError, match="n_blocks = 8") as err:
            narrow_phase(self.system, i, j, 0.05)
        assert named in str(err.value)
        with pytest.raises(ValueError):
            CandidatePlan.build(self.system, i, j)

    def test_a_plan_for_other_lists_is_rejected(self):
        i, j = all_pairs(self.system)
        plan = CandidatePlan.build(self.system, i[:-1], j[:-1])
        with pytest.raises(ValueError, match="other pair lists"):
            narrow_phase(self.system, i, j, 0.05, candidates=plan)

    def test_no_pairs_no_contacts_no_launch(self, device):
        none = np.zeros(0, dtype=np.int64)
        assert narrow_phase(self.system, none, none, 0.05, device).m == 0
        assert device.records == []


class TestGate:
    def engine(self):
        return GpuEngine(rocks(3, 8), rocks_controls())

    @staticmethod
    def detect(engine):
        """One detection through the engine's kept candidates; its plan."""
        kept = engine._candidates
        kept.detect(engine.system, None, tol=engine.tolerances)
        return kept.plan

    def test_same_lists_in_fresh_arrays_share_the_plan(self):
        engine = self.engine()
        plan = self.detect(engine)
        assert self.detect(engine) is plan
        assert engine.metrics.counter("contact.candidate_plan_reuse").value == 1
        # the plan holds its own copy of the lists: scribbling on the
        # caller's arrays cannot make a stale plan match
        i, j = broad_phase_pairs(engine.system.aabbs, engine.contact_threshold)
        plan = CandidatePlan.build(engine.system, i, j)
        i[0] += 1
        assert plan.pairs_i[0] == i[0] - 1

    def test_changed_lists_rebuild(self):
        engine = self.engine()
        kept = engine._candidates
        plan = self.detect(engine)
        # the exact list is the kept superset's pairs in the superset's
        # order: reversing the superset reverses the list
        flip = np.arange(kept.pairs_i.size)[::-1]
        kept.pairs_i, kept.pairs_j = kept.pairs_i[flip], kept.pairs_j[flip]
        permuted = self.detect(engine)
        assert permuted is not plan and permuted.total == plan.total
        first = (kept.pairs_i == plan.pairs_i[0]) & (
            kept.pairs_j == plan.pairs_j[0]
        )
        kept.pairs_i, kept.pairs_j = kept.pairs_i[~first], kept.pairs_j[~first]
        dropped = self.detect(engine)
        assert dropped is not permuted and dropped.total < plan.total
        assert engine.metrics.counter("contact.candidate_plan_reuse").value == 0

    def test_another_topology_rebuilds(self):
        # same pair list, one block with one more vertex
        blocks = [Block(SQ), Block(SQ + [1.01, 0.0])]
        pentagon = np.vstack([SQ[:2], [[1.2, 0.5]], SQ[2:]]) + [1.01, 0.0]
        a = BlockSystem(blocks)
        b = BlockSystem([blocks[0], Block(pentagon)])
        i, j = all_pairs(a)
        plan = CandidatePlan.build(a, i, j)
        assert plan.matches(a, i, j) and not plan.matches(b, i, j)
        assert CandidatePlan.build(b, i, j).total > plan.total


def test_plan_is_lean_on_the_1089_block_slope():
    """A cache that outlives a step is sized in bytes per row: at most 8
    per candidate row, the rest per slot, per vertex or per pair."""
    system = build_slope_model(joint_spacing=1.5, seed=0)
    assert system.n_blocks == 1089
    engine = GpuEngine(system, SimulationControls())
    i, j = broad_phase_pairs(system.aabbs, engine.contact_threshold)
    plan = CandidatePlan.build(system, i, j)
    arrays = {
        f.name: getattr(plan, f.name)
        for f in dataclasses.fields(plan)
        if isinstance(getattr(plan, f.name), np.ndarray)
    }
    slots, vertices = plan.slot_vertex.size, system.vertices.shape[0]
    assert plan.total == 137_534 and slots < plan.total / 3
    per_row = sum(a.nbytes for a in arrays.values() if a.size == plan.total)
    assert 0 < per_row <= 8 * plan.total
    for name, a in arrays.items():
        assert a.size in (plan.total, slots, vertices, i.size, system.n_blocks + 1), name
    assert sum(a.nbytes for a in arrays.values()) < 2 * 2**20


# ----------------------------------------------------------------------
# the plan inside the engines
# ----------------------------------------------------------------------
class RebuildEveryStep:
    """Mixin: forget the kept candidates (superset, plan and rows)
    before every detection."""

    def _detect_contacts(self):
        self._candidates = KeptCandidates(self.contact_threshold, self.metrics)
        return super()._detect_contacts()


def run_state(engine, result):
    return (
        engine.system.vertices.tobytes(),
        [dataclasses.astuple(s) for s in result.steps],
        ledger(engine.device),
    )


@pytest.mark.parametrize(
    "engine_cls, kwargs",
    [(GpuEngine, {}), (SerialEngine, {}), (HybridEngine, {}),
     (DomainEngine, {"n_domains": 2})],
)
def test_kept_plan_equals_a_rebuild_every_step(engine_cls, kwargs):
    forgetful = type("Forgetful", (RebuildEveryStep, engine_cls), {})
    states, reuse = [], []
    for cls in (engine_cls, forgetful):
        engine = cls(rocks(3, 8), rocks_controls(), **kwargs)
        states.append(run_state(engine, engine.run(steps=8)))
        reuse.append(
            engine.metrics.counter("contact.candidate_plan_reuse").value
        )
    assert states[0] == states[1]
    assert reuse == [7, 0]


class PoisonStepFive:
    """Mixin: a NaN velocity after step 5's data update, once."""

    poisoned = False

    def _update_data(self, d, dt):
        super()._update_data(d, dt)
        if self.step == 5 and not self.poisoned:
            self.poisoned = True
            self.system.velocities[0, 0] = np.nan


def test_rollback_with_a_plan_in_place():
    """The finite guard fails step 5 and the run rolls back to the
    step-4 checkpoint with step 5's plan still kept; the steps after it
    equal those of an engine that never keeps a plan."""
    states = []
    for bases in ((PoisonStepFive, GpuEngine),
                  (PoisonStepFive, RebuildEveryStep, GpuEngine)):
        engine = type("Poisoned", bases, {})(
            rocks(3, 8),
            rocks_controls(
                resilience=ResilienceControls(
                    checkpoint_every=2, max_rollbacks=2,
                ),
            ),
        )
        result = engine.run(steps=10)
        assert result.rollbacks == 1 and len(result.steps) == 10
        states.append(run_state(engine, result))
    assert states[0] == states[1]


def test_restored_checkpoint_with_a_plan_in_place():
    fresh = GpuEngine(rocks(3, 8), rocks_controls())
    fresh.run(steps=4)
    want = fresh.run(steps=6)

    engine = GpuEngine(rocks(3, 8), rocks_controls())
    engine.run(steps=4)
    snapshot = engine.checkpoint()
    engine.run(steps=3)
    kept = engine._candidates.plan
    engine.restore_checkpoint(snapshot)
    assert engine._candidates.plan is kept  # nothing to invalidate
    got = engine.run(steps=6)
    assert engine.system.vertices.tobytes() == fresh.system.vertices.tobytes()
    assert [dataclasses.astuple(s) for s in got.steps] == [
        dataclasses.astuple(s) for s in want.steps
    ]
