"""The four workloads: what each runs and how ``--seed`` shapes its inputs.

The program under test only ever sees generated inputs (a
:class:`~repro.core.blocks.BlockSystem`, controls, job specs); the seed
never reaches it directly.

Why the seed does not pick the slope mesh or jitter the physics:
``build_slope_model(seed=S)`` for S = 0, 1, 2 at ``joint_spacing=1.5``
gives three different problems (9.7-12.6 s wall, 0.278-0.292 modelled s
for the same three steps); a 0.25 degree friction jitter flips the
number of loop-2 retries (7 or 9); the rocks' gap and friction jitter
moved modelled time by 5 %. No regression bound could hold across such
seeds. Each model is therefore fixed and the seed permutes the block
numbering instead: the same physical problem in a different memory
layout (sort, gather, coalescing and partition inputs all change),
whose cost moves by about 1 %.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: The paper's six pipeline modules, in pipeline order.
STAGES = (
    "contact_detection",
    "diagonal_matrix_building",
    "nondiagonal_matrix_building",
    "equation_solving",
    "interpenetration_checking",
    "data_updating",
)

#: Joint-set realisation shared by both slope workloads (see module doc).
MESH_SEED = 0


@dataclass(frozen=True)
class EngineWorkload:
    """One engine workload: model size, preset and lap length.

    ``steps`` is the lap length; ``ref_steps`` the prefix of it that the
    serial reference re-runs (the whole lap where that is affordable).
    The ``quick_*`` sizes are what ``--quick`` (the harness's own tests)
    runs instead.
    """

    name: str
    preset: str
    dynamic: bool
    steps: int
    ref_steps: int
    quick_steps: int
    quick_ref_steps: int
    n_domains: int = 1
    #: Whether untraced runs can afford the serial reference too; where
    #: not, only the traced run is held to it.
    reference_every_run: bool = True

    def lap_steps(self, quick: bool) -> int:
        return self.quick_steps if quick else self.steps

    def reference_steps(self, quick: bool) -> int:
        return self.quick_ref_steps if quick else self.ref_steps


ENGINE_WORKLOADS = {
    w.name: w
    for w in (
        # 1089 blocks; step 0 alone is seven loop-2 attempts (six dt
        # halvings), i.e. seven assemblies-with-solves and about 8 s, so
        # one step is the lap. Its serial reference costs 14 s, more
        # than the laps themselves
        EngineWorkload("slope_static", "gpu", dynamic=False, steps=1,
                       ref_steps=1, quick_steps=2, quick_ref_steps=2,
                       reference_every_run=False),
        # 20 steps repeat exactly under renumbering (33 open-close
        # sweeps); by step 30 the rocks start to slide and rounding
        # decides the sweep count (73 to 79 over 50 steps, 7 % of cost)
        EngineWorkload("rocks_dynamic", "gpu", dynamic=True, steps=20,
                       ref_steps=5, quick_steps=6, quick_ref_steps=6),
        # step 0 is six attempts and nine tenths of a three-step lap;
        # the steps after it flip between one and three retries on
        # rounding-level changes, so the lap stops here
        EngineWorkload("domain_slope", "domain", dynamic=False, steps=1,
                       ref_steps=1, quick_steps=2, quick_ref_steps=2,
                       n_domains=4),
    )
}

SERVICE_WORKLOAD = "service_http"
#: A calibrated service lap still varies by 7 % (cv) from lap to lap, the
#: engine laps by 3-5 %: the median of three left 10-12 % between the
#: quartiles of ten runs, so the service runs five.
SERVICE_MIN_LAPS = 5

WORKLOADS = (*ENGINE_WORKLOADS, SERVICE_WORKLOAD)

_ENGINE_LAYERS = (
    "stage.", "engine.", "contact.", "assembly.", "primitives.", "spmv.",
    "solvers.", "gpu.", "meshing.", "obs.", "host.", "failed_share",
)
#: Per-layer metric prefixes each workload measures, as (measured,
#: except). Every other per-layer metric reads 0 on that workload: the
#: layer is not executed there, and a change to it predicts no change.
LAYERS_MEASURED = {
    "slope_static": (_ENGINE_LAYERS, ("engine.preset.",)),
    "rocks_dynamic": (_ENGINE_LAYERS, ("engine.preset.",)),
    "domain_slope": ((*_ENGINE_LAYERS, "domain."), ()),
    SERVICE_WORKLOAD: (("service.", "host.", "failed_share"), ()),
}


def measures(workload: str, metric: str) -> bool:
    """Whether per-layer ``metric`` is measured on ``workload``."""
    measured, excepted = LAYERS_MEASURED[workload]
    return metric.startswith(measured) and not metric.startswith(excepted)


def permute_blocks(system, rng):
    """The same block system with its blocks renumbered by ``rng``."""
    from repro import BlockSystem

    perm = rng.permutation(system.n_blocks)
    new_index = np.empty_like(perm)
    new_index[perm] = np.arange(perm.size)
    blocks = system.to_blocks()
    out = BlockSystem([blocks[i] for i in perm], system.joint_material)
    for block, x, y in system.fixed_points:
        out.fix_point(int(new_index[block]), x, y)
    return out


def build_system(name: str, seed: int, quick: bool = False):
    """The block system of engine workload ``name`` for ``seed``: a fixed
    model whose blocks the seed renumbers (see the module doc)."""
    from repro import JointMaterial, build_falling_rocks_model, build_slope_model

    if name == "slope_static":
        system = build_slope_model(
            joint_spacing=6.0 if quick else 1.5, seed=MESH_SEED
        )
    elif name == "domain_slope":
        system = build_slope_model(
            joint_spacing=8.0 if quick else 3.0, seed=MESH_SEED
        )
    elif name == "rocks_dynamic":
        rows, cols = (3, 8) if quick else (20, 40)
        system = build_falling_rocks_model(
            slope_height=70.0, slope_angle_deg=42.0, rock_size=2.0,
            n_rock_rows=rows, n_rock_cols=cols,
            joint_material=JointMaterial(friction_angle_deg=18.0),
        )
    else:
        raise ValueError(f"unknown engine workload {name!r}")
    rng = np.random.default_rng([seed, sorted(ENGINE_WORKLOADS).index(name)])
    return permute_blocks(system, rng)


def controls_for(name: str):
    """The paper-case controls of engine workload ``name``."""
    from repro import SimulationControls

    if ENGINE_WORKLOADS[name].dynamic:  # Case 2
        return SimulationControls(
            time_step=2e-3, dynamic=True, gravity=9.81, penalty_scale=50.0,
            preconditioner="bj", max_displacement_ratio=0.05,
        )
    return SimulationControls(  # Case 1
        time_step=2e-3, dynamic=False, gravity=9.81, penalty_scale=50.0,
        preconditioner="bj",
    )


def make_engine(preset: str, system, controls, *, n_domains: int = 1,
                tracer=None):
    """One of the four engine presets over ``system``."""
    if preset == "serial":
        from repro import SerialEngine

        return SerialEngine(system, controls, tracer=tracer)
    if preset == "gpu":
        from repro import GpuEngine

        return GpuEngine(system, controls, tracer=tracer)
    if preset == "hybrid":
        from repro import HybridEngine

        return HybridEngine(system, controls, tracer=tracer)
    if preset == "domain":
        from repro.engine.domain_engine import DomainEngine

        return DomainEngine(
            system, controls, n_domains=n_domains, tracer=tracer
        )
    raise ValueError(f"unknown preset {preset!r}")
