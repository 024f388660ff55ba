"""A system matrix of the slope model and its graph partitions."""

import pytest

from repro.core.state import SimulationControls
from repro.domain.partition import partition_blocks
from repro.engine.domain_engine import DomainEngine
from repro.meshing.slope_models import build_slope_model


@pytest.fixture(scope="session")
def slope_partitions():
    """``(matrix, {n_domains: labels})``: the last matrix one static step
    of the 117-block slope solves, and the engine's partitions of its
    blocks at 2, 4 and 8 domains."""
    system = build_slope_model(joint_spacing=5.0, seed=0)
    engine = DomainEngine(system, SimulationControls(
        time_step=2e-3, dynamic=False, gravity=9.81, penalty_scale=50.0,
        preconditioner="bj",
    ), n_domains=4)
    seen = []
    prepare = engine._solver_operand

    def recording(matrix):
        seen.append(matrix)
        return prepare(matrix)

    engine._solver_operand = recording
    engine.run(steps=1)
    labels = {
        n: partition_blocks(system, n, margin=engine.contact_threshold)[0]
        for n in (2, 4, 8)
    }
    return seen[-1], labels
