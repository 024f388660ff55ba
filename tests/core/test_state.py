import pytest

from repro.core.state import SimulationControls


class TestSimulationControls:
    def test_defaults(self):
        c = SimulationControls()
        assert c.cg_max_iterations == 200  # the paper's re-step threshold
        assert not c.dynamic

    def test_invalid_time_step(self):
        with pytest.raises(ValueError):
            SimulationControls(time_step=0.0)

    def test_invalid_gravity(self):
        with pytest.raises(ValueError):
            SimulationControls(gravity=-9.8)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            SimulationControls(max_displacement_ratio=0.0)
        with pytest.raises(ValueError):
            SimulationControls(max_displacement_ratio=1.5)

    def test_invalid_penalty(self):
        with pytest.raises(ValueError):
            SimulationControls(penalty_scale=-1.0)

    def test_invalid_open_close(self):
        with pytest.raises(ValueError):
            SimulationControls(max_open_close_iterations=0)

    def test_invalid_preconditioner(self):
        with pytest.raises(ValueError, match="preconditioner"):
            SimulationControls(preconditioner="amg")

    def test_all_preconditioners_accepted(self):
        for p in ("bj", "ssor", "ilu"):
            assert SimulationControls(preconditioner=p).preconditioner == p
