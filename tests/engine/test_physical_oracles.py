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

import functools
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


NEWMARK_PHI_DEG = 15.0
#: the box pulse starts after the 40 settling steps and lasts 0.1 s
NEWMARK_PULSE_S = (0.04, 0.14)


def _table_slip(base_acceleration, base_scale: float, steps: int) -> float:
    """Net horizontal slip of a unit block resting on a fixed flat
    φ = 15° table, over ``steps`` steps after 40 of settling, under the
    horizontal base acceleration ``base_scale * base_acceleration(t)``."""
    base = np.array([[-2, 0], [5, 0], [5, 1], [-2, 1.0]])
    s = BlockSystem(
        [Block(base, MAT), Block(SQ + np.array([1.0, 1.0]), MAT)],
        JointMaterial(friction_angle_deg=NEWMARK_PHI_DEG),
    )
    s.fix_block(0)
    engine = GpuEngine(s, dyn_controls(
        base_acceleration=lambda t: (base_scale * base_acceleration(t), 0.0)
    ))
    engine.run(steps=40)
    start = s.centroids[1, 0]
    engine.run(steps=steps)
    return float(s.centroids[1, 0] - start)


@functools.lru_cache(maxsize=None)
def newmark_pulse_slip(amp: float, base_scale: float) -> float:
    """Permanent slip on the table under a box pulse of ``amp`` × g
    (300 steps after settling). Cached, and keyed positionally, so the
    per-property tests of ``test_seismic.py`` rerun none of the row's
    models."""
    g, (t0, t1) = 9.81, NEWMARK_PULSE_S
    return abs(_table_slip(
        lambda t, a=amp * g: a if t0 <= t < t1 else 0.0, base_scale, 300
    ))


@functools.lru_cache(maxsize=None)
def newmark_sine_slip(base_scale: float) -> float:
    """Net slip under 0.4 g 5 Hz sine shaking, over two whole cycles."""
    return _table_slip(
        lambda t: 0.4 * 9.81 * math.sin(10 * math.pi * t), base_scale, 400
    )


def newmark_closed_form(amp: float) -> float:
    """Newmark's permanent slip for a box pulse of ``amp`` × g: zero at
    or below the yield acceleration a_y = g tan φ, else
    ½(a−a_y)T² + ((a−a_y)T)²/(2a_y)."""
    g, (t0, t1) = 9.81, NEWMARK_PULSE_S
    a_y = g * math.tan(math.radians(NEWMARK_PHI_DEG))
    excess = max(amp * g - a_y, 0.0) * (t1 - t0)
    return 0.5 * excess * (t1 - t0) + excess**2 / (2.0 * a_y)


def newmark(base_scale: float = 1.0) -> str | None:
    """Newmark's sliding block (EXPERIMENTS.md): on a φ = 15° table the
    block slips only while a horizontal base acceleration exceeds the
    yield acceleration g tan φ = 0.268 g, and a one-sided box pulse
    leaves :func:`newmark_closed_form`'s permanent slip."""
    for amp in (0.4, 0.8, 0.2):  # × g, for 0.1 s
        slip = newmark_pulse_slip(amp, base_scale)
        closed = newmark_closed_form(amp)
        if closed and not abs(slip / closed - 1.0) <= 0.1:
            return f"{amp} g pulse slipped {slip:.3g} m, closed form {closed:.3g} m"
        if not closed and not slip < 1e-3:
            return f"{amp} g pulse, below yield, slipped {slip:.3g} m"
    weak, strong = newmark_pulse_slip(0.4, base_scale), newmark_pulse_slip(0.8, base_scale)
    if not strong > weak:
        return f"0.8 g slipped {strong:.3g} m, not past 0.4 g's {weak:.3g} m"
    # symmetric shaking above yield: back and forth, no net slip
    sine = newmark_sine_slip(base_scale)
    return f"5 Hz 0.4 g shaking slipped {sine:.3g} m net" if abs(sine) >= 5e-3 else None


class Block0Penalty:
    """Planted defect that depends on block numbering: the contacts of
    block 0 get ``factor`` times their penalty (through the engines'
    stage-output seam, on the table handed to assembly)."""

    def __init__(self, factor: float) -> None:
        self.factor = factor

    def perturb(self, stage, payload, *, step, engine):
        if stage == "contact_detection":
            rows = (payload.block_i == 0) | (payload.block_j == 0)
            payload.pn[rows] *= self.factor
            payload.ps[rows] *= self.factor
        return payload


def renumbered(system: BlockSystem, rng) -> tuple[BlockSystem, np.ndarray]:
    """The same model with its blocks renumbered by ``rng`` (the recipe
    of the harness's ``permute_blocks``): block ``k`` of the result is
    block ``perm[k]`` of ``system``."""
    perm = rng.permutation(system.n_blocks)
    new_index = np.empty_like(perm)
    new_index[perm] = np.arange(perm.size)
    blocks = system.to_blocks()
    out = BlockSystem([blocks[i] for i in perm], system.joint_material)
    for block, x, y in system.fixed_points:
        out.fix_point(int(new_index[block]), x, y)
    return out, perm


@dataclass(frozen=True)
class RocksRun:
    system: BlockSystem
    #: block ``k`` of ``system`` is block ``perm[k]`` of the model as built
    perm: np.ndarray
    start: np.ndarray
    result: object
    loose: np.ndarray
    #: index of the first accepted step that ends past first impact
    impact: int


def rocks_run(
    *,
    penalty_factor: float = 1.0,
    gravity_sign: float = 1.0,
    block0_penalty: float = 1.0,
    renumber_seed: int | None = None,
) -> RocksRun:
    """The short falling-rocks run the rocks rows share: 2×3 rocks, 90
    steps at dt 2e-3, past first impact (paper Figs 11/12). The cache
    is keyed positionally: ``lru_cache`` keys on the keyword names
    passed, so rows overriding different keywords would each rerun the
    unperturbed model."""
    return _rocks_run(penalty_factor, gravity_sign, block0_penalty,
                      renumber_seed)


@functools.lru_cache(maxsize=None)
def _rocks_run(penalty_factor, gravity_sign, block0_penalty, renumber_seed):
    s = build_falling_rocks_model(n_rock_rows=2, n_rock_cols=3)
    perm = np.arange(s.n_blocks)
    if renumber_seed is not None:
        s, perm = renumbered(s, np.random.default_rng(renumber_seed))
    g = SimulationControls().gravity
    c = SimulationControls(
        time_step=2e-3, dynamic=True,
        penalty_scale=SimulationControls().penalty_scale * penalty_factor,
        # a ground acceleration a loads every block by -rho a: -2g turns
        # gravity's load upside down
        base_acceleration=None if gravity_sign == 1.0
        else (lambda t: (0.0, (gravity_sign - 1.0) * g)),
    )
    injector = None if block0_penalty == 1.0 else Block0Penalty(block0_penalty)
    start = s.centroids.copy()
    r = GpuEngine(s, c, fault_injector=injector).run(
        steps=90, snapshot_every=1
    )
    # the lowest rocks start 0.075 m above the face: 2 m rocks, 0.05 m
    # gap, offset half a pitch plus the gap
    t_impact = math.sqrt(2 * 0.075 / c.gravity)
    elapsed = np.cumsum([st.dt for st in r.steps])
    assert elapsed[-1] > 1.2 * t_impact, (elapsed[-1], t_impact)
    fixed = {b for b, _, _ in s.fixed_points}
    loose = np.array([i for i in range(s.n_blocks) if i not in fixed])
    impact = int(np.searchsorted(elapsed, t_impact))
    return RocksRun(s, perm, start, r, loose, impact)


def rocks_penetration(penalty_factor: float = 1.0) -> str | None:
    """Penetration stays ≤ 0.1 % of the mean loose-block size at every
    accepted step of a short falling-rocks run past first impact."""
    run = rocks_run(penalty_factor=penalty_factor)
    s = run.system
    bound = 1e-3 * float(np.mean(np.sqrt(s.areas[run.loose])))
    over = [
        (st.step, st.max_penetration) for st in run.result.steps
        if st.max_penetration > bound
    ]
    return f"steps over {bound:.3g} m: {over[:5]}" if over else None


def renumbering_invariance(block0_penalty: float = 1.0) -> str | None:
    """Numbering the blocks differently does not move them: the rocks
    run and the same model renumbered (seed 0) end with centroids that
    agree, mapped back, to 1e-5 of the largest centroid motion. The
    orderings sum in different orders, so CG stops at different
    iterates inside its tolerance: measured 5.1e-8 m against 0.144 m of
    motion on seeds 0 and 4, at most 1.2e-11 m on seeds 1-3 and 5, with
    the dt sequence unchanged on all six."""
    ref = rocks_run(block0_penalty=block0_penalty)
    other = rocks_run(block0_penalty=block0_penalty, renumber_seed=0)
    moved = float(np.abs(ref.system.centroids - ref.start).max())
    diff = float(np.abs(
        other.system.centroids - ref.system.centroids[other.perm]
    ).max())
    if diff <= 1e-5 * moved:
        return None
    return f"centroids differ by {diff:.3g} m against {moved:.3g} m of motion"


def rocks_descent(gravity_sign: float = 1.0) -> str | None:
    """Past first impact, the loose rocks' mass centre descends at every
    accepted step: the slope turns the fall, it does not reverse it."""
    run = rocks_run(gravity_sign=gravity_sign)
    steps = run.result.steps
    weight = run.system.areas[run.loose]  # one density
    # one snapshot after each accepted step (the run appends the final
    # state once more)
    y = np.array([
        weight @ centroids[run.loose, 1]
        for _, centroids in run.result.snapshots[: len(steps)]
    ]) / weight.sum()
    rises = [
        steps[k].step for k in range(run.impact + 1, len(steps))
        if not y[k] < y[k - 1]
    ]
    if rises:
        return f"mass centre rose at accepted steps {rises[:5]}"
    return None


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
        "newmark_sliding_block", newmark,
        "φ = 15°, 0.1 s box pulses: 0.4 g and 0.8 g slip within 10 % of "
        "Newmark's closed form, 0.8 g farther; 0.2 g (below yield) slips "
        "< 1 mm; 0.4 g 5 Hz sine shaking nets < 5 mm over two cycles",
        # measured: 2.4 % and 0.2 % off the closed form, 0.007 mm below
        # yield, 0.025 mm net under the sine; the defect drops the base
        # acceleration's load
        {"base_scale": 0.0},
    ),
    Oracle(
        "rocks_penetration", rocks_penetration,
        "max penetration ≤ 0.1 % of the mean loose-block size at every "
        "accepted step (90 steps, past first impact)",
        # penalty × 0.1 peaks at 0.78 mm, inside the 2 mm bound; × 0.01
        # reaches 5.1 mm
        {"penalty_factor": 0.01},
    ),
    Oracle(
        "renumbering_invariance", renumbering_invariance,
        "rocks run renumbered (seed 0): final centroids mapped back agree "
        "to 1e-5 of the largest centroid motion (90 steps)",
        # a penalty that depends on which block is number 0
        {"block0_penalty": 0.1},
    ),
    Oracle(
        "rocks_descent", rocks_descent,
        "past first impact the loose rocks' mass centre is lower at every "
        "accepted step than at the one before (90 steps)",
        # gravity's load with its sign flipped
        {"gravity_sign": -1.0},
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
