"""Regression pins for the vectorised open–close driver.

The driver (:class:`repro.contact.open_close.OpenCloseDriver`) is the
one numeric path every engine's interpenetration check now runs; the
per-contact scalar loop (``oracles.update_contact_states_serial``,
beside this file) survives as the independent reference. These tests pin the two against each other
on both meshed models across all four engines, and pin the
symbolic-assembly reuse to be bit-invisible (identical states and
identical modelled device time whether the plan is reused or rebuilt
every sweep).
"""

import hashlib

import numpy as np
import pytest

from repro.assembly.contact_springs import (
    normal_spring_vectors,
    shear_spring_vectors,
)
from repro.gpu.kernel import KeptLaunches
from repro.contact.open_close import OpenCloseDriver
from repro.core.materials import JointMaterial
from repro.core.state import SimulationControls
from repro.engine.domain_engine import DomainEngine
from repro.engine.gpu_engine import GpuEngine
from repro.engine.hybrid_engine import HybridEngine
from repro.engine.serial_engine import SerialEngine
from repro.meshing.slope_models import (
    build_falling_rocks_model,
    build_slope_model,
)
from oracles import update_contact_states_serial

ENGINES = [SerialEngine, GpuEngine, HybridEngine, DomainEngine]


def make_case(name: str):
    """(system, controls) for one seeded meshed model."""
    if name == "slope":
        system = build_slope_model(
            joint_spacing=10.0, seed=0,
            joint_material=JointMaterial(friction_angle_deg=30.0),
        )
        controls = SimulationControls(
            time_step=1e-3, dynamic=False, max_displacement_ratio=0.05
        )
    else:
        system = build_falling_rocks_model(
            n_rock_rows=2, n_rock_cols=3, slope_height=20.0
        )
        controls = SimulationControls(
            time_step=1e-3, dynamic=True, max_displacement_ratio=0.05
        )
    return system, controls


@pytest.mark.parametrize("engine_cls", ENGINES)
@pytest.mark.parametrize("case", ["slope", "rocks"])
def test_driver_matches_scalar_reference(engine_cls, case):
    """A fresh driver sweep reproduces the per-contact scalar loop."""
    system, controls = make_case(case)
    eng = engine_cls(system, controls)
    eng.run(steps=2)
    contacts = eng._contacts
    assert contacts.m > 0, "case must end with live contacts"
    d = eng._prev_solution
    prev_nf = contacts.pn * np.maximum(0.0, contacts.normal_disp)

    vec = OpenCloseDriver.build(
        eng.system, contacts, force_tolerance=eng._force_tol
    ).sweep(d, prev_nf)
    ref = update_contact_states_serial(
        eng.system, contacts, d,
        prev_normal_force=prev_nf, force_tolerance=eng._force_tol,
    )

    np.testing.assert_array_equal(vec.states, ref.states)
    np.testing.assert_array_equal(vec.shear_sign, ref.shear_sign)
    np.testing.assert_allclose(
        vec.normal_force, ref.normal_force, rtol=1e-9, atol=1e-12
    )
    assert vec.changed == ref.changed
    assert vec.significant_changes == ref.significant_changes
    assert vec.max_penetration == pytest.approx(
        ref.max_penetration, rel=1e-9, abs=1e-15
    )


@pytest.mark.parametrize("case", ["slope", "rocks"])
def test_spring_geometry_row_is_the_single_contact_linearisation(case):
    """The batched geometry the engines share, sliced to one row, is
    exactly what the scalar oracle computes for that contact alone."""
    system, controls = make_case(case)
    eng = GpuEngine(system, controls)
    eng.run(steps=2)
    contacts = eng._contacts
    geometry = contacts.spring_geometry(eng.system)
    p1, e1, e2, ci, cj = contacts.geometry(eng.system)
    for k in range(contacts.m):
        one = slice(k, k + 1)
        e, g, d0, length = normal_spring_vectors(
            p1[one], e1[one], e2[one], ci[one], cj[one]
        )
        e_s, g_s, _ = shear_spring_vectors(
            p1[one], e1[one], e2[one], contacts.ratio[one], ci[one], cj[one]
        )
        for name, single in (
            ("e", e), ("g", g), ("d0", d0), ("length", length),
            ("e_s", e_s), ("g_s", g_s),
        ):
            np.testing.assert_array_equal(
                getattr(geometry, name)[one], single, err_msg=f"{name}[{k}]"
            )


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_engine_sweep_counter(engine_cls):
    """Every open–close iteration bumps ``open_close.sweeps``."""
    system, controls = make_case("slope")
    eng = engine_cls(system, controls)
    result = eng.run(steps=2)
    sweeps = eng.metrics.counter("open_close.sweeps").value
    # at least one sweep per recorded open–close iteration (retries add
    # more, never fewer)
    assert sweeps >= sum(s.open_close_iterations for s in result.steps)
    assert sweeps > 0


@pytest.mark.parametrize("engine_cls", ENGINES)
@pytest.mark.parametrize("case", ["slope", "rocks"])
def test_symbolic_reuse_is_bit_invisible(engine_cls, case, monkeypatch):
    """Plan reused vs rebuilt every sweep: same states/forces/geometry,
    same modelled time."""
    system_a, controls_a = make_case(case)
    system_b, controls_b = make_case(case)
    eng_a = engine_cls(system_a, controls_a)
    eng_b = engine_cls(system_b, controls_b)
    eng_a.run(steps=3)
    # no kept work ever holds: every sweep of eng_b runs the symbolic
    # phase, every detection its kind split and transfer sort
    monkeypatch.setattr(KeptLaunches, "holds", lambda self, *where: False)
    eng_b.run(steps=3)

    np.testing.assert_array_equal(
        eng_a.system.vertices, eng_b.system.vertices
    )
    np.testing.assert_array_equal(
        eng_a._prev_solution, eng_b._prev_solution
    )
    np.testing.assert_array_equal(
        eng_a._contacts.state, eng_b._contacts.state
    )
    # launch-ledger replay keeps the modelled seconds bit-identical
    assert eng_a.device.total_time == eng_b.device.total_time
    assert eng_a.metrics.counter("assembly.symbolic_reuse").value > 0
    assert eng_b.metrics.counter("assembly.symbolic_reuse").value == 0


# ----------------------------------------------------------------------
# the plan outlives the step: only a new block-pair pattern is a miss
# ----------------------------------------------------------------------
#: Six steps (nine sweeps) of the harness's ``rocks_dynamic --quick``
#: model, recorded at commit 4aa70ac. There the plan was also dropped
#: whenever the packed contact *keys* moved — three symbolic phases for
#: one block-pair pattern; a hit replays what the miss launched, so the
#: ledger below is the same either way. The three single-device ledgers
#: were re-recorded when a CG iteration became four launches; with every
#: CG-iteration record dropped on both sides they equal commit 6090d60's.
#: The vertices and the three single-device ledgers were re-recorded
#: for warm sweeps and the compiled preconditioner products, which move
#: every CG iterate (the domain preset's own device carries no solve);
#: the old literals are those of commit 5253207.
ROCKS_VERTICES = (
    "943ce7e3dfe6a935d749997721a8e43f85faa63965fbb552d96a13637bf122d3"
)
ROCKS_LEDGER = {
    SerialEngine: (
        "0.009072834666666665", 379,
        "9a9f94b0a1a22722d61a9f4c7520e22555fd1a97680a069acea9310d9c782a8e",
    ),
    GpuEngine: (
        "0.002880791274509806", 559,
        "b540b2111964bd9bf56837027c54181581022fcc67fc64c2e10956df281da1fd",
    ),
    HybridEngine: (
        "0.006033454823529424", 462,
        "dc62d60fdef478940a0377dd890483305dd1fd12905cc6c23b7939aee605966a",
    ),
    DomainEngine: (
        "0.006063377333333333", 63,
        "a18335215869aca8937d68c07aefb63977cf9b702dc91f585653ad9f9cc082ae",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_plan_survives_every_step_that_keeps_its_block_pairs(engine_cls):
    patterns = []

    class Recording(engine_cls):
        def _assemble(self, diag_idx, diag_blocks, contacts, *rest):
            patterns.append((
                diag_idx.tobytes(),
                contacts.block_i.tobytes(),
                contacts.block_j.tobytes(),
            ))
            return super()._assemble(diag_idx, diag_blocks, contacts, *rest)

    engine = Recording(
        build_falling_rocks_model(
            slope_height=70.0, slope_angle_deg=42.0, rock_size=2.0,
            n_rock_rows=3, n_rock_cols=8,
            joint_material=JointMaterial(friction_angle_deg=18.0),
        ),
        SimulationControls(
            time_step=2e-3, dynamic=True, gravity=9.81, penalty_scale=50.0,
            preconditioner="bj", max_displacement_ratio=0.05,
        ),
    )
    engine.run(steps=6)

    counters = engine.metrics.snapshot()["counters"]
    misses = sum(
        k == 0 or pattern != patterns[k - 1]
        for k, pattern in enumerate(patterns)
    )
    assert counters["open_close.sweeps"] == len(patterns) == 9
    # no pattern is left and come back to: a miss per distinct pattern
    assert misses == len(set(patterns)) == 1
    assert counters["assembly.symbolic_reuse"] == len(patterns) - misses

    device = engine.device
    assert _sha(
        np.ascontiguousarray(engine.system.vertices).tobytes()
    ) == ROCKS_VERTICES
    assert (
        repr(device.total_time), device.launches(),
        _sha("\n".join(r.name for r in device.records).encode()),
    ) == ROCKS_LEDGER[engine_cls]
