"""Physical oracles: what the paper's physics promises, each with a stated bound.

Bit-identity pins can only say "nothing was lost" while the trajectory
stays bit-equal. A change that moves the trajectory on purpose (a dt
controller, a contact rule, a warm start) needs a check on the physics
instead. Each row of :data:`ORACLES` is ``(name, check, stated bound,
planted trajectory defect)``: ``check(**overrides)`` runs a model and
returns ``None`` when the bound holds, else what broke it; the defect is
the overrides that plant a physically wrong trajectory. The tests read
the rows, so every row must pass as the code stands *and* fail on its
planted defect — a row that cannot fail does not land.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from repro.core.blocks import Block, BlockSystem
from repro.core.materials import BlockMaterial, JointMaterial
from repro.core.state import SimulationControls
from repro.engine.gpu_engine import GpuEngine
from repro.meshing.slope_models import build_falling_rocks_model

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
MAT = BlockMaterial(young=1e9)


def dyn_controls(**kw) -> SimulationControls:
    defaults = dict(
        time_step=1e-3, dynamic=True, gravity=9.81,
        penalty_scale=50.0, max_displacement_ratio=0.05,
    )
    defaults.update(kw)
    return SimulationControls(**defaults)


def free_fall(dynamic: bool = True) -> str | None:
    """One unconstrained block: the constant-acceleration scheme
    integrates uniform gravity exactly."""
    s = BlockSystem([Block(SQ, MAT)])
    c = dyn_controls(dynamic=dynamic, gravity=10.0, max_displacement_ratio=1.0)
    r = GpuEngine(s, c).run(steps=20)
    t = 20 * c.time_step
    dy, vy = -0.5 * 10.0 * t**2, -10.0 * t
    errors = {
        "y displacement": abs(r.displacements[0, 1] / dy - 1.0),
        "y velocity": abs(s.velocities[0, 1] / vy - 1.0),
    }
    bad = {k: e for k, e in errors.items() if not e <= 1e-9}
    if abs(r.displacements[0, 0]) > 1e-12:
        bad["x displacement"] = abs(r.displacements[0, 0])
    return f"relative errors {bad}" if bad else None


def _ramp(slope_deg: float, phi_deg: float) -> BlockSystem:
    th = math.radians(slope_deg)
    ramp = np.array([[0, 0], [10, 0], [10, 10 * math.tan(th)]])[::-1]
    c, s_ = math.cos(th), math.sin(th)
    rot = np.array([[c, -s_], [s_, c]])
    sq = (SQ - [0.5, 0]) @ rot.T
    center = np.array([5.0, 5 * math.tan(th)]) + rot @ [0, 0.001]
    system = BlockSystem(
        [Block(ramp, MAT), Block(sq + center, MAT)],
        JointMaterial(friction_angle_deg=phi_deg),
    )
    system.fix_block(0)
    return system


def incline(friction_angle_deg: float | None = None) -> str | None:
    """A block on a 30° incline slides iff tan θ > tan φ
    (``docs/physics.md`` §4): φ = 10° slides, φ = 50° holds."""
    for phi, slides in ((10.0, True), (50.0, False)):
        s = _ramp(30.0, phi if friction_angle_deg is None else friction_angle_deg)
        start = s.centroids[1].copy()
        GpuEngine(s, dyn_controls()).run(steps=150)
        moved = float(np.linalg.norm(s.centroids[1] - start))
        if slides and not moved > 0.01:
            return f"phi={phi}: moved {moved:.3g} m, expected to slide"
        if not slides and not moved < 0.005:
            return f"phi={phi}: moved {moved:.3g} m, expected to hold"
    return None


def rocks_penetration(penalty_factor: float = 1.0) -> str | None:
    """Penetration stays ≤ 0.1 % of the mean loose-block size at every
    accepted step of a short falling-rocks run past first impact
    (paper Figs 11/12)."""
    s = build_falling_rocks_model(n_rock_rows=2, n_rock_cols=3)
    c = SimulationControls(
        time_step=2e-3, dynamic=True,
        penalty_scale=SimulationControls().penalty_scale * penalty_factor,
    )
    r = GpuEngine(s, c).run(steps=90)
    # the lowest rocks start 0.075 m above the face: 2 m rocks, 0.05 m
    # gap, offset half a pitch plus the gap
    t_impact = math.sqrt(2 * 0.075 / c.gravity)
    elapsed = sum(st.dt for st in r.steps)
    assert elapsed > 1.2 * t_impact, (elapsed, t_impact)
    fixed = {b for b, _, _ in s.fixed_points}
    loose = [i for i in range(s.n_blocks) if i not in fixed]
    bound = 1e-3 * float(np.mean(np.sqrt(s.areas[loose])))
    over = [
        (st.step, st.max_penetration) for st in r.steps
        if st.max_penetration > bound
    ]
    return f"steps over {bound:.3g} m: {over[:5]}" if over else None


@dataclass(frozen=True)
class Oracle:
    name: str
    check: Callable[..., str | None]
    bound: str
    #: overrides of ``check`` that plant a physically wrong trajectory
    defect: dict


ORACLES = (
    Oracle(
        "free_fall", free_fall,
        "displacement ½gt² and velocity gt to 1e-9 relative, "
        "no lateral drift (20 steps)",
        # velocities are not carried between steps
        {"dynamic": False},
    ),
    Oracle(
        "incline_slides_iff_tan_theta_over_tan_phi", incline,
        "θ = 30°: φ = 10° moves > 10 mm, φ = 50° moves < 5 mm in 150 steps",
        {"friction_angle_deg": 0.0},
    ),
    Oracle(
        "rocks_penetration", rocks_penetration,
        "max penetration ≤ 0.1 % of the mean loose-block size at every "
        "accepted step (90 steps, past first impact)",
        # penalty × 0.1 peaks at 0.78 mm, inside the 2 mm bound; × 0.01
        # reaches 5.1 mm
        {"penalty_factor": 0.01},
    ),
)


def test_every_row_states_a_bound_and_plants_a_defect():
    assert len({o.name for o in ORACLES}) == len(ORACLES)
    for oracle in ORACLES:
        assert oracle.bound and oracle.defect, oracle.name


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda o: o.name)
def test_oracle_holds(oracle):
    assert oracle.check() is None


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda o: o.name)
def test_oracle_fails_on_its_planted_defect(oracle):
    assert oracle.check(**oracle.defect) is not None
