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

All ten were re-recorded for warm sweeps (each open–close sweep's CG
starts from the sweep before's solution) and the compiled
preconditioner products (block-Jacobi's and SSOR-AI's ``D^{-1}``
products summed left to right, SSOR-AI in three of them instead of
five). Both move the rounding of every CG iterate, hence iteration
counts, the ledger and the trajectory; no counter was added or
removed. The old literals are those of commit 5253207.

All ten were re-recorded when detection began to keep its kind split
and its transfer sort across steps (``KeptLaunches``), which added one
counter to the snapshot (``contact.detection_reuse``) and nothing else.
``EARLIER`` keeps the literals of commit 64e702c, and
``test_only_the_added_counters_moved_the_digest`` holds every run, with
the ``ADDED`` counters left out of its snapshot, to them.
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
        8064, "4204549281385e6e2f0d1e6c40c35eaca785258f673d4133a058d9b55bf11d97",
    ),
    ("slope", "gpu"): (
        8697, "c39bc237c348c4753a23087dd64e9ce5627fefdb44c9f3ad6828f43de9ad1215",
    ),
    ("slope", "hybrid"): (
        8246, "5eb6ec46da646e9e8cfaa1c8c88c03c084e0da2d92607d56b6e7c8cd12e863b0",
    ),
    ("slope", "domain-2"): (
        31269, "af0103c3af580efee20d5a4ba75f4ec4ec257dcd3feef4af6bb8d77d3b45385f",
    ),
    ("slope", "domain-4"): (
        69949, "b56b81c97aef9976c33b03890db33dba3e81c5726b64f1c5b9fdf0d0e000f288",
    ),
    ("rocks", "serial"): (
        379, "def4f0b9d5dac2d204e628c75e23d1cfbd1b4c9a1fa8647acc37b85b5c120a64",
    ),
    ("rocks", "gpu"): (
        559, "dc5584949a2b986e3d052e4451805c5da782f3274804edabc317ffb2f0e5a070",
    ),
    ("rocks", "hybrid"): (
        462, "4060158ca2d8ec02500e1a7d896c257ca84bc7950e6a346b7bea4116bacd0cdf",
    ),
    ("rocks", "domain-2"): (
        1363, "6c171240e483e9c17362567b32ccde3b437e934569e57922731ba2d669672027",
    ),
    ("rocks", "domain-4"): (
        3927, "69edc94420633dc0c6bb6a8fd3b6bfc2601d49e800636e97495540b3c00665f1",
    ),
}

#: counters added to the snapshot since the literals of ``EARLIER``
ADDED = ("contact.detection_reuse",)

#: commit 64e702c's literals: each run's digest without the ``ADDED`` counters
EARLIER = {
    ("slope", "serial"): (
        8064, "776ab6e1edece3566b28497b67ff931973f1181f2edc5bc5336b3d670e5a3703",
    ),
    ("slope", "gpu"): (
        8697, "7738fcf3ffde3331b31f47dabce2378a9c57f87df699fb8ee78618eab2468141",
    ),
    ("slope", "hybrid"): (
        8246, "292cdce1d552e5d7c5b295623cd93a49fd804a31710fe76007d8a803545d3ee6",
    ),
    ("slope", "domain-2"): (
        31269, "abdd34e31512182725924e66d8e521e2b2d2f5dc3982a7260098b460f45bc634",
    ),
    ("slope", "domain-4"): (
        69949, "79791b8eef0fad6f9957ad9f9257ef7e328bbf0ca939b024ac81535a19fdabcb",
    ),
    ("rocks", "serial"): (
        379, "b6941b14bfb7014a782a17b643ee0f0f77faf14a8282e89eca8a027214d10c0a",
    ),
    ("rocks", "gpu"): (
        559, "4ceb6d7fffaeb473e867ac4467762e8f5d9d169417addcadab0003ca69592814",
    ),
    ("rocks", "hybrid"): (
        462, "f53c92ba68787c3f343afc7545949c50a11a1450e94db084411f6110b6ec9be3",
    ),
    ("rocks", "domain-2"): (
        1363, "5078bebe7a946b0d3b5ddd898ff3a80664d84585459e9a599097c16bc1a15ac6",
    ),
    ("rocks", "domain-4"): (
        3927, "85af8f06f774158cd76c58701928b01baa6273a9a1c0b13a8471de0ac8c9f1bc",
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


@functools.lru_cache(maxsize=None)
def run_digests(model, preset):
    """``(launches, sha256, sha256 without the ADDED counters)`` of one run."""
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
    earlier, snapshot = sha.copy(), engine.metrics.snapshot()
    sha.update(json.dumps(snapshot, sort_keys=True).encode())
    for name in ADDED:
        del snapshot["counters"][name]
    earlier.update(json.dumps(snapshot, sort_keys=True).encode())
    return launches, sha.hexdigest(), earlier.hexdigest()


def run_digest(model, preset):
    """``(launches, sha256)`` of one run."""
    return run_digests(model, preset)[:2]


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("model", ["slope", "rocks"])
def test_run_equals_the_recorded_digest(model, preset):
    assert run_digest(model, preset) == GOLDEN[model, preset]


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("model", ["slope", "rocks"])
def test_only_the_added_counters_moved_the_digest(model, preset):
    launches, _, earlier = run_digests(model, preset)
    assert (launches, earlier) == EARLIER[model, preset]


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
