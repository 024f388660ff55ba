"""Whole-engine fuzzing: random small scenes must stay physical.

Catch-all invariants over randomly generated block scenes:
velocities stay finite, penetrations stay bounded, energy does not grow,
and the serial/GPU pipelines agree — across whatever contact topologies
the random generator produces.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.energy import total_energy
from repro.analysis.interpenetration import system_interpenetration_audit
from repro.core.blocks import Block, BlockSystem
from repro.core.materials import BlockMaterial, JointMaterial
from repro.core.state import SimulationControls
from repro.engine.gpu_engine import GpuEngine

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
MAT = BlockMaterial(young=1e9)


def random_scene(seed: int, n_loose: int) -> BlockSystem:
    """A fixed floor plus ``n_loose`` random non-overlapping squares."""
    rng = np.random.default_rng(seed)
    floor = Block(np.array([[-1, -1], [7, -1], [7, 0], [-1, 0.0]]), MAT)
    blocks = [floor]
    placed: list[np.ndarray] = []
    attempts = 0
    while len(placed) < n_loose and attempts < 200:
        attempts += 1
        size = rng.uniform(0.5, 1.0)
        th = rng.uniform(0, np.pi / 2)
        rot = np.array(
            [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
        )
        center = np.array([rng.uniform(0.5, 5.5), rng.uniform(0.8, 3.0)])
        poly = (SQ - 0.5) @ rot.T * size + center
        # keep scenes initially overlap-free (overlap resolution is
        # tested separately)
        if all(
            np.linalg.norm(center - c) > 1.3 for c in
            (p.mean(axis=0) for p in placed)
        ):
            placed.append(poly)
            blocks.append(Block(poly, MAT))
    system = BlockSystem(
        blocks, JointMaterial(friction_angle_deg=rng.uniform(10, 45))
    )
    system.fix_block(0)
    return system


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=12, deadline=None)
def test_fuzz_random_scenes_stay_physical(seed, n_loose):
    system = random_scene(seed, n_loose)
    controls = SimulationControls(
        time_step=1e-3, dynamic=True, gravity=9.81,
        max_displacement_ratio=0.05,
    )
    e0 = total_energy(system)
    engine = GpuEngine(system, controls)
    result = engine.run(steps=40)

    # 1. no NaN/inf anywhere
    assert np.isfinite(system.vertices).all()
    assert np.isfinite(system.velocities).all()
    assert np.isfinite(system.stresses).all()
    # 2. energy cannot grow (implicit scheme dissipates); absolute slack
    # only — the potential datum makes e0 negative for low scenes
    assert total_energy(system) <= e0 + max(1.0, 0.02 * abs(e0))
    # 3. no deep interpenetration survives
    audit = system_interpenetration_audit(system)
    assert audit.max_depth < 0.2
    # 4. per-step diagnostics sane
    for st_ in result.steps:
        assert st_.dt > 0
        assert np.isfinite(st_.max_displacement)


@given(st.integers(min_value=0, max_value=5_000))
@settings(max_examples=6, deadline=None)
def test_fuzz_pipeline_equivalence(seed):
    from repro.engine.serial_engine import SerialEngine

    controls = SimulationControls(
        time_step=1e-3, dynamic=True, gravity=9.81,
        max_displacement_ratio=0.05,
    )
    g = GpuEngine(random_scene(seed, 2), controls)
    s = SerialEngine(random_scene(seed, 2), controls)
    g.run(steps=15)
    s.run(steps=15)
    np.testing.assert_allclose(
        g.system.centroids, s.system.centroids, atol=1e-6
    )
