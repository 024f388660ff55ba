"""Seismic base loading: ``SimulationControls.base_acceleration`` reaches
the engine as a d'Alembert load at the simulated time.

The Newmark sliding-block benchmark, the standard validation of dynamic
DDA under base shaking, is the ``newmark_sliding_block`` row of
``tests/engine/test_physical_oracles.py``; :class:`TestNewmarkSlidingBlock`
asserts each of its properties by name, on the row's cached runs.
"""

import numpy as np
import pytest

from repro.core.blocks import Block, BlockSystem
from repro.core.materials import BlockMaterial
from repro.core.state import SimulationControls
from repro.engine.gpu_engine import GpuEngine
from test_physical_oracles import (
    newmark_closed_form,
    newmark_pulse_slip,
    newmark_sine_slip,
)

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
MAT = BlockMaterial(young=1e9)


class TestNewmarkSlidingBlock:
    """φ = 15° table (yield acceleration 0.268 g), 0.1 s box pulses; the
    bounds are the oracle row's."""

    def test_below_yield_acceleration_holds(self):
        assert newmark_closed_form(0.2) == 0.0
        assert newmark_pulse_slip(0.2, 1.0) < 1e-3

    def test_above_yield_matches_newmark_analytic(self):
        expected = newmark_closed_form(0.4)
        assert expected > 0.005
        assert newmark_pulse_slip(0.4, 1.0) == pytest.approx(expected, rel=0.1)

    def test_stronger_pulse_slides_farther(self):
        assert newmark_pulse_slip(0.8, 1.0) > newmark_pulse_slip(0.4, 1.0)

    def test_symmetric_sine_gives_no_net_slip(self):
        # symmetric shaking above yield slides back and forth with ~zero
        # net displacement over whole cycles
        assert abs(newmark_sine_slip(1.0)) < 5e-3

    def test_no_shaking_no_motion(self):
        # base_scale 0 is the row's planted defect: the pulse never loads
        assert newmark_pulse_slip(0.4, 0.0) < 1e-3


class TestBaseAccelerationPlumbing:
    def test_sim_time_advances(self):
        s = BlockSystem([Block(SQ, MAT)])
        c = SimulationControls(
            time_step=1e-3, dynamic=True, gravity=9.81,
            base_acceleration=lambda t: (0.0, 0.0),
        )
        e = GpuEngine(s, c)
        e.run(steps=10)
        assert e.sim_time == pytest.approx(10 * 1e-3, rel=0.3)

    def test_constant_horizontal_acceleration_on_free_block(self):
        # d'Alembert check: shaking the base at +a pushes a free block -a
        s = BlockSystem([Block(SQ, MAT)])
        c = SimulationControls(
            time_step=1e-3, dynamic=True, gravity=0.0,
            max_displacement_ratio=1.0,
            base_acceleration=lambda t: (2.0, 0.0),
        )
        e = GpuEngine(s, c)
        e.run(steps=10)
        t = 10 * 1e-3
        assert s.velocities[0, 0] == pytest.approx(-2.0 * t, rel=1e-9)

    def test_vertical_shaking_adds_to_gravity(self):
        s = BlockSystem([Block(SQ, MAT)])
        c = SimulationControls(
            time_step=1e-3, dynamic=True, gravity=10.0,
            max_displacement_ratio=1.0,
            base_acceleration=lambda t: (0.0, 5.0),
        )
        e = GpuEngine(s, c)
        e.run(steps=10)
        t = 10 * 1e-3
        assert s.velocities[0, 1] == pytest.approx(-15.0 * t, rel=1e-9)

    def test_non_callable_rejected(self):
        with pytest.raises(ValueError, match="callable"):
            SimulationControls(base_acceleration=3.0)
