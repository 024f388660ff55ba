"""The whole program, by bit: one digest per preset and model.

Each digest is a SHA-256 over everything a run leaves behind that is not
a wall clock — every record of every ledger (the engine's device and,
on the domain preset, each domain device: name, module,
``seconds.hex()``, counters), the final vertices, every
:class:`~repro.engine.results.StepRecord` field and the whole
``metrics.snapshot()``. The 117-block slope takes loop-2 retries and
skips ladder rungs; the falling rocks run dynamic with a changing
contact table. A refactor that is supposed to change nothing must leave
all ten equal.

The literals were recorded at commit 6668cea (PR 18) and re-recorded
at PR 21, which added six counters to the snapshot
(``contact.candidate_plan_reuse``, ``engine.step_rejected.<cause>``,
``engine.rejected_cg_iterations``) and nothing else: with those six
filtered out, all ten digests equalled the PR 18 literals. A PR that
changes a ledger *on purpose* regenerates them with
``PYTHONPATH=src python tests/engine/test_ledger_golden.py`` and says
why in CHANGES.md.

The four domain digests were re-recorded when the halo exchange began
to overlap the interior product and ``r·r`` / ``r·z`` to share one
all-reduce: with every ``pcie_*`` record and the converged exits'
speculative preconditioner applications dropped, they equal those of
commit 434e1e1, filtered the same way.

The six serial, gpu and hybrid digests were re-recorded when a
single-device CG iteration became four launches (``cg_direction``, the
SpMV's two stages, ``cg_update``): with every record of a CG iteration
dropped on both sides (``hsbcsr_*``, ``cg_*``, ``bj_apply``,
``ssor_ai_apply``), they equal those of commit 6090d60.

The slope digests of the serial, domain-2 and domain-4 presets were
re-recorded when contact detection became one body for every preset:
the serial pipeline stopped sorting its pair list into the double
loop's order, so its contacts reach the assembler in the gpu preset's
order and the last bits of ``max_displacement`` / ``max_penetration``
follow. With the ``StepRecord``s left out of the hash, all three equal
those of commit 04457c3, and every step record now equals the gpu
preset's (``test_every_preset_steps_like_gpu``).

The five slope digests were re-recorded when loop 2 began to give up
an attempt whose open–close count diverges
(``engine.step_rejected.open_close_divergence``): attempt 0 of step 0
(counts 180, 533, 759, 810) stops at sweep 4 instead of the cap. Drop
from the parent's ledgers the records of the two sweeps the rule cuts,
and filter both snapshots as for the six counters above, leaving out
what a cut sweep counts (``open_close.sweeps``,
``assembly.symbolic_reuse``, ``solver.rungs_skipped``,
``engine.rejected_cg_iterations``, ``engine.step_rejected.<cause>``,
``domain.halo_bytes`` and the ``cg.iterations`` histogram): then all
five equal the digests of commit 00748ef, filtered the same way. The
rule never fires on the rocks, and their five digests did not move.

All ten were re-recorded when detection began to keep its contact
candidates across steps (``repro.contact.skin``), which added two
counters to the snapshot (``contact.skin_reuse``,
``contact.skin_rebuilds``) and nothing else: with those two filtered
out, all ten digests equal the literals of commit 53d99d2.
"""

import dataclasses
import functools
import hashlib
import json

import pytest

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

PRESETS = {
    "serial": (SerialEngine, {}),
    "gpu": (GpuEngine, {}),
    "hybrid": (HybridEngine, {}),
    "domain-2": (DomainEngine, {"n_domains": 2}),
    "domain-4": (DomainEngine, {"n_domains": 4}),
}

GOLDEN = {
    ("slope", "serial"): (
        9543, "d43e6c99efc2ae55cd7ba279153b362579655729e1cd871052ca1190688230c4",
    ),
    ("slope", "gpu"): (
        10210, "39638e7b032866b73cd6e9c591404b2bc53428b29cc4c792c60d6cfabfb1633f",
    ),
    ("slope", "hybrid"): (
        9731, "941a0cb2c2b8e8a2838a36b51f9577907d14358cde0dfac1f151f3e3009d7d6f",
    ),
    ("slope", "domain-2"): (
        37189, "f6bdd6ac2027503fb4a1e19061658d2f60b7b2ce4f01910d85924eb1b73411d5",
    ),
    ("slope", "domain-4"): (
        83263, "60e3dc515f74dbf7a865d1266240b37458c9746387c155446b20dd836da2a983",
    ),
    ("rocks", "serial"): (
        391, "e1a7807db69bd37dca45fb6d8cc007c53648af25034416929add6fb771075de4",
    ),
    ("rocks", "gpu"): (
        571, "8bdd82467f5f97d9659dc545051b8ee66094d4aa92a6c432c873b460bffd50b8",
    ),
    ("rocks", "hybrid"): (
        474, "9c31c748463f04987e39b85bdec9400ee1ebba92e3cd3683e2501ead640d43fc",
    ),
    ("rocks", "domain-2"): (
        1411, "bd2864333fa22aa385f82f5f88115febca48beb5c2bbb8cf7dd14595a6fe576e",
    ),
    ("rocks", "domain-4"): (
        4071, "43fa0a0f715864eaf90b9264efc2243bd4166aeddfe637abb6466568eb10f502",
    ),
}


def _model(name):
    """``(system, controls, steps)``: the harness's paper-case controls
    on models small enough for tier-1."""
    if name == "slope":
        return (
            build_slope_model(joint_spacing=5.0, seed=0),
            SimulationControls(
                time_step=2e-3, dynamic=False, gravity=9.81,
                penalty_scale=50.0, preconditioner="bj",
            ),
            3,
        )
    return (
        build_falling_rocks_model(
            slope_height=70.0, slope_angle_deg=42.0, rock_size=2.0,
            n_rock_rows=3, n_rock_cols=8,
            joint_material=JointMaterial(friction_angle_deg=18.0),
        ),
        SimulationControls(
            time_step=2e-3, dynamic=True, gravity=9.81, penalty_scale=50.0,
            preconditioner="bj", max_displacement_ratio=0.05,
        ),
        6,
    )


def run_digest(model, preset):
    """``(launches, sha256)`` of one run."""
    system, controls, steps = _model(model)
    engine_cls, kwargs = PRESETS[preset]
    engine = engine_cls(system, controls, **kwargs)
    result = engine.run(steps=steps)
    sha = hashlib.sha256()
    launches = 0
    seen = {}  # the domain ledgers put one record at many positions
    for device in (engine.device, *getattr(engine, "domain_devices", ())):
        launches += len(device.records)
        for r in device.records:
            line = seen.get(id(r))
            if line is None:
                line = seen[id(r)] = repr(
                    (r.name, r.module, r.seconds.hex(), r.counters)
                ).encode()
            sha.update(line)
    sha.update(engine.system.vertices.tobytes())
    for record in result.steps:
        sha.update(repr(dataclasses.astuple(record)).encode())
    sha.update(json.dumps(engine.metrics.snapshot(), sort_keys=True).encode())
    return launches, sha.hexdigest()


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("model", ["slope", "rocks"])
def test_run_equals_the_recorded_digest(model, preset):
    assert run_digest(model, preset) == GOLDEN[model, preset]


@functools.lru_cache(maxsize=None)
def _trajectory(model, preset):
    """Every ``StepRecord`` tuple and the final vertices of one run."""
    system, controls, steps = _model(model)
    engine_cls, kwargs = PRESETS[preset]
    engine = engine_cls(system, controls, **kwargs)
    result = engine.run(steps=steps)
    return (
        [dataclasses.astuple(record) for record in result.steps],
        engine.system.vertices.tobytes(),
    )


@pytest.mark.parametrize("preset", [p for p in PRESETS if p != "gpu"])
@pytest.mark.parametrize("model", ["slope", "rocks"])
def test_every_preset_steps_like_gpu(model, preset):
    """A preset is what each stage costs, not what it computes: every
    preset's step records and final vertices equal the gpu preset's,
    bit for bit."""
    steps, vertices = _trajectory(model, preset)
    gpu_steps, gpu_vertices = _trajectory(model, "gpu")
    assert steps == gpu_steps
    assert vertices == gpu_vertices


if __name__ == "__main__":
    print("GOLDEN = {")
    for model in ("slope", "rocks"):
        for preset in PRESETS:
            print(f"    ({model!r}, {preset!r}): {run_digest(model, preset)!r},")
    print("}")
