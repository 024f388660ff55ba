"""Kept candidates are a fresh detection, by bit.

:class:`repro.contact.skin.KeptCandidates` keeps the broad phase's pair
superset (margin ``threshold + skin``) and the narrow phase's culled rows
(reach ``+ skin``) until the vertices have moved half a skin. Everything
here holds the engines' detection to what a fresh
:func:`~repro.contact.broad_phase.broad_phase_pairs` +
:func:`~repro.contact.narrow_phase.narrow_phase` call finds on the same
geometry — every ``ContactSet`` column ``tobytes()``-equal and every
ledger record ``repr``-equal — on the falling rocks past impact and
through a rollback, and holds the gate to its bound from both sides.

A mutant gate that waits for a whole skin of travel (``travel < skin``
instead of ``2 travel < skin``) must fail this file: the constructed
approach and the just-over property case catch it.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from planting import PLANTED, Planter
from test_narrow_phase_properties import random_scene

from repro.contact.broad_phase import broad_phase_pairs
from repro.contact.contact_set import ContactSet
from repro.contact.initialization import initialize_contacts_classified
from repro.contact.narrow_phase import cull_reach, cull_rows, narrow_phase
from repro.contact.skin import SKIN_FACTOR, KeptCandidates
from repro.contact.transfer import transfer_contacts
from repro.core.blocks import Block, BlockSystem
from repro.core.materials import JointMaterial
from repro.core.state import ResilienceControls, SimulationControls
from repro.engine.gpu_engine import GpuEngine
from repro.geometry.tolerances import Tolerances
from repro.gpu.device import K40
from repro.gpu.kernel import VirtualDevice
from repro.meshing.slope_models import build_brick_wall, build_falling_rocks_model
from repro.obs.metrics import MetricsRegistry

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def ledger(device, start=0):
    return [
        repr((r.name, r.seconds.hex(), r.counters))
        for r in device.records[start:]
    ]


def assert_same_table(got, want):
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype, f.name
        assert a.tobytes() == b.tobytes(), f.name


def fresh_detection(engine, previous, device):
    """``EngineBase._detect_contacts`` as it was before anything was
    kept: every step's broad phase, narrow phase and cull from scratch."""
    system = engine.system
    threshold = engine.contact_threshold
    i, j = broad_phase_pairs(system.aabbs, threshold, device)
    contacts = narrow_phase(
        system, i, j, threshold, device, tol=engine.tolerances
    )
    contacts = transfer_contacts(
        previous, contacts, system.vertices.shape[0], device
    )
    return initialize_contacts_classified(
        system, contacts, engine.controls.penalty_scale, device
    )


class Oracle:
    """Mixin: every detection is compared with :func:`fresh_detection`
    on a scratch device; ``checked`` counts them."""

    checked = 0

    def _detect_contacts(self):
        previous, start = self._contacts, len(self.device.records)
        got = super()._detect_contacts()
        scratch = VirtualDevice(self.device.profile)
        assert_same_table(got, fresh_detection(self, previous, scratch))
        assert ledger(self.device, start) == ledger(scratch)
        self.checked += 1
        return got


class CheckedGpu(Oracle, GpuEngine):
    pass


def counters(engine, *names):
    return [engine.metrics.counter(name).value for name in names]


def test_rocks_past_impact_detect_like_a_fresh_detection():
    """250 steps of the falling rocks at dt = 5e-3: they land, slide and
    change their pair list, and the skin is both kept and found again."""
    engine = CheckedGpu(
        build_falling_rocks_model(
            slope_height=70.0, slope_angle_deg=42.0, rock_size=2.0,
            n_rock_rows=3, n_rock_cols=8,
            joint_material=JointMaterial(friction_angle_deg=18.0),
        ),
        SimulationControls(
            time_step=5e-3, dynamic=True, gravity=9.81, penalty_scale=50.0,
            preconditioner="bj", max_displacement_ratio=0.05,
        ),
    )
    steps = 250
    engine.run(steps=steps)
    assert engine.checked == steps
    reuse, rebuilds, plan_reuse = counters(
        engine, "contact.skin_reuse", "contact.skin_rebuilds",
        "contact.candidate_plan_reuse",
    )
    assert reuse + rebuilds == steps
    assert reuse > 0 and rebuilds > 1
    assert plan_reuse < steps - 1  # the pair list changed


def test_a_rollback_detects_like_a_fresh_detection():
    """A planted contract violation at step 2 rolls the run back to the
    checkpoint of the step before; the gate sees the restored vertices as
    one more motion and every detection still equals a fresh one."""
    row = PLANTED["finite_diag"]
    engine = CheckedGpu(
        build_brick_wall(rows=3, cols=3),
        SimulationControls(
            time_step=1e-3, dynamic=True, contract_level="full",
            resilience=ResilienceControls(checkpoint_every=1, max_rollbacks=3),
        ),
    )
    planter = Planter(engine, row)
    with np.errstate(all="ignore"):
        result = engine.run(steps=6)
    assert planter.planted and result.rollbacks >= 1
    assert result.failure is None and result.n_steps == 6
    assert engine.checked > 6


# ----------------------------------------------------------------------
# the gate, from both sides
# ----------------------------------------------------------------------
THRESHOLD = 0.1


def kept_and_fresh(system, kept):
    """The kept detection's table and pair count next to a fresh one's."""
    tol = Tolerances.from_points(system.vertices)
    n_pairs, got = kept.detect(system, None, tol=tol)
    i, j = broad_phase_pairs(system.aabbs, THRESHOLD)
    assert n_pairs == i.size
    assert_same_table(got, narrow_phase(system, i, j, THRESHOLD, tol=tol))
    return got


def move(system, delta):
    system.vertices += delta
    system._refresh_cache()


def test_an_approach_over_the_gate_finds_the_new_contact():
    """Two squares approach each other by ``0.8 skin`` each, from a gap
    just outside the superset's margin to one inside the threshold: half
    a skin of travel each way is the gate, so this must rebuild — a gate
    at a whole skin keeps the superset and misses the contact."""
    skin = SKIN_FACTOR * THRESHOLD
    gap = THRESHOLD + 1.2 * skin
    system = BlockSystem([Block(SQ), Block(SQ + [1.0 + gap, 0.25])])
    kept = KeptCandidates(THRESHOLD, MetricsRegistry())
    assert kept_and_fresh(system, kept).m == 0
    assert kept.pairs_i.size == 0
    travel = 0.8 * skin
    delta = np.zeros_like(system.vertices)
    delta[:4, 0], delta[4:, 0] = travel, -travel
    move(system, delta)
    assert kept_and_fresh(system, kept).m > 0
    assert kept.metrics.counter("contact.skin_rebuilds").value == 2


@given(st.integers(min_value=0, max_value=400),
       st.integers(min_value=2, max_value=7),
       st.sampled_from([0.0, 1e6]))
@settings(max_examples=40, deadline=None)
def test_property_motion_under_the_gate_reuses_over_it_rebuilds(
    seed, n, shift
):
    """A random motion whose largest coordinate step is ``(1 -+ 1e-6)``
    half a skin: under, the superset is kept and the table is the fresh
    one; over, it is found again."""
    rng = np.random.default_rng(seed)
    skin = SKIN_FACTOR * THRESHOLD
    for side, factor in (("reuse", 1.0 - 1e-6), ("rebuilds", 1.0 + 1e-6)):
        system = BlockSystem(
            [Block(b.vertices + shift) for b in random_scene(seed, n).to_blocks()]
        )
        kept = KeptCandidates(THRESHOLD, MetricsRegistry())
        kept_and_fresh(system, kept)
        delta = rng.uniform(-1.0, 1.0, size=system.vertices.shape)
        delta *= factor * skin / 2 / np.abs(delta).max()
        move(system, delta)
        kept_and_fresh(system, kept)
        assert kept.metrics.counter(f"contact.skin_{side}").value == (
            1 if side == "reuse" else 2
        )


def test_changed_topology_or_a_nan_rebuilds():
    system = build_brick_wall(rows=2, cols=3)
    kept = KeptCandidates(THRESHOLD, MetricsRegistry())
    kept_and_fresh(system, kept)
    kept_and_fresh(system, kept)
    system.vertices[system.offsets[2] + 1] = np.nan
    system._refresh_cache()
    kept_and_fresh(system, kept)
    assert counters(kept, "contact.skin_reuse", "contact.skin_rebuilds") == [1, 2]
    other = BlockSystem(
        build_brick_wall(rows=2, cols=3).to_blocks()[:-1]
    )
    kept_and_fresh(other, kept)
    assert counters(kept, "contact.skin_rebuilds") == [3]


def test_kept_rows_hold_the_exact_cull_and_cost_four_bytes_each():
    """On the 802-block rocks the kept rows are a superset of the exact
    cull, stored at 4 bytes a row; the whole kept state (reference
    vertices, pair superset, rows) stays under 256 KiB."""
    system = build_falling_rocks_model(
        slope_height=70.0, slope_angle_deg=42.0, rock_size=2.0,
        n_rock_rows=20, n_rock_cols=40,
        joint_material=JointMaterial(friction_angle_deg=18.0),
    )
    engine = GpuEngine(system, SimulationControls())
    kept = engine._candidates
    kept.detect(system, None, tol=engine.tolerances)
    exact = cull_rows(
        system.vertices, kept.plan,
        cull_reach(system.vertices, engine.contact_threshold),
    )
    assert np.isin(exact, kept.rows).all()
    assert exact.size <= kept.rows.size < kept.plan.total / 4
    assert kept.rows.nbytes == 4 * kept.rows.size
    state = kept.reference.nbytes + kept.pairs_i.nbytes + kept.pairs_j.nbytes
    assert state + kept.rows.nbytes < 256 * 2**10


def test_no_pairs_no_contacts():
    """Two far blocks launch the broad phase and nothing else; one block
    launches nothing, as ``broad_phase_pairs`` does."""
    far = BlockSystem([Block(SQ), Block(SQ + [5.0, 0.0])])
    for system, launched in ((far, ["broad_phase_tiled"]),
                             (BlockSystem([Block(SQ)]), [])):
        kept = KeptCandidates(THRESHOLD, MetricsRegistry())
        device = VirtualDevice(K40)
        n_pairs, table = kept.detect(
            system, device, tol=Tolerances.from_points(system.vertices)
        )
        assert n_pairs == 0 and table.m == 0
        assert isinstance(table, ContactSet)
        assert [r.name for r in device.records] == launched
