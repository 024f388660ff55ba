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

The literals were recorded at commit 6668cea (PR 18). A PR that changes
a ledger *on purpose* regenerates them with
``PYTHONPATH=src python tests/engine/test_ledger_golden.py`` and says
why in CHANGES.md.
"""

import dataclasses
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
        12707, "7560bd91d142dc649e3bf95a5db6286d1e29f7c08ad4a2ca2213e2b85d144405",
    ),
    ("slope", "gpu"): (
        13404, "8277767215e663d55dc64edb92fdf467eacfae453efdae1cd33fbfa67c72aabd",
    ),
    ("slope", "hybrid"): (
        12901, "01029d541138d6393122b387b6eebb00ee6fae2b1ea6e60ede6eef83f4522c33",
    ),
    ("slope", "domain-2"): (
        46629, "3dc09d9b90c59f5f93dec1f47984312579df0992a2119dc8af51ddf443c197c6",
    ),
    ("slope", "domain-4"): (
        103153, "0645d383bff119cb9c2f1d66e7450338e8d86e18309a97b97bd7235c8cbdfaac",
    ),
    ("rocks", "serial"): (
        464, "fc86b1af80eee7bd763b205cdf77846dd79e4b704531a17c790455a25d56bc53",
    ),
    ("rocks", "gpu"): (
        644, "8293a0a4b54dab9aae5b33d618a031371f37d704246f15ad1c54b18de0f83b37",
    ),
    ("rocks", "hybrid"): (
        547, "e2fe72be8d90641857f294bffac06629c1e609d2d065d865e3be0c2ac5b63ccb",
    ),
    ("rocks", "domain-2"): (
        1539, "2ed714754df7ec4063456c1868ad4ddfd682ae034d1d92186d4b50f7d4eea4f2",
    ),
    ("rocks", "domain-4"): (
        4327, "e13b06c4eb2eb55ce2c2b62bc8e87eb272eeba62d147aecc7516ffeab2124f18",
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


if __name__ == "__main__":
    print("GOLDEN = {")
    for model in ("slope", "rocks"):
        for preset in PRESETS:
            print(f"    ({model!r}, {preset!r}): {run_digest(model, preset)!r},")
    print("}")
