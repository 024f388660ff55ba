import numpy as np
import pytest

from repro.assembly.contact_springs import LOCK, OPEN, SLIDE, spring_loads
from repro.contact.contact_set import VE, ContactSet
from repro.core.blocks import Block, BlockSystem, DOF
from repro.core.materials import JointMaterial
from repro.core.state import SimulationControls
from repro.contact.open_close import OpenCloseDriver
from repro.engine.physics import (
    contact_loads,
    contact_system,
    diagonal_system,
)
from oracles import update_contact_states_serial

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def update_contact_states(system, contacts, d, *, prev_normal_force=None):
    """One open–close sweep of a fresh driver: the vectorised rule."""
    driver = OpenCloseDriver.build(system, contacts)
    return driver.sweep(d, prev_normal_force)


def stacked_system(gap=0.01, joint=None):
    """Block 1 sitting `gap` above block 0 (wide base)."""
    base = np.array([[0, 0], [3, 0], [3, 1], [0, 1.0]])
    top = SQ + np.array([1.0, 1.0 + gap])
    return BlockSystem([Block(base), Block(top)], joint)


def contact_on_top(system, pn=1e9):
    """Two VE contacts: the top block's bottom corners on the base edge."""
    # base top edge CCW is (3,1)->(0,1): indices 2 -> 3; reversed = (3, 2)
    cs = ContactSet(
        block_i=np.array([1, 1]),
        block_j=np.array([0, 0]),
        vertex_idx=np.array([4, 5]),   # (1, 1+gap), (2, 1+gap)
        e1_idx=np.array([3, 3]),       # (0, 1)
        e2_idx=np.array([2, 2]),       # (3, 1)
        kind=np.array([VE, VE]),
    )
    cs.pn[:] = pn
    cs.ps[:] = pn
    # ratios along (0,1)->(3,1)
    cs.ratio[:] = [1.0 / 3.0, 2.0 / 3.0]
    return cs


class TestDiagonalSystem:
    def test_gravity_load(self):
        s = stacked_system()
        controls = SimulationControls(time_step=1e-3, gravity=10.0)
        _, _, f = diagonal_system(s, controls, 1e-3)
        rho = s.material_of(1).density
        # block 1 weight = rho * g * area (area 1)
        assert f[DOF + 1] == pytest.approx(-rho * 10.0 * 1.0)

    def test_diag_blocks_spd(self):
        s = stacked_system()
        controls = SimulationControls()
        idx, blocks, _ = diagonal_system(s, controls, 1e-3)
        for b in blocks:
            np.testing.assert_allclose(b, b.T, atol=1e-6)
            assert (np.linalg.eigvalsh(b) > 0).all()

    def test_fixed_points_stiffen(self):
        s = stacked_system()
        controls = SimulationControls()
        _, free_blocks, _ = diagonal_system(s, controls, 1e-3)
        s.fix_block(0)
        _, fixed_blocks, _ = diagonal_system(s, controls, 1e-3)
        assert np.trace(fixed_blocks[0]) > np.trace(free_blocks[0])

    def test_static_ignores_velocity(self):
        s = stacked_system()
        s.velocities[1, 0] = 5.0
        controls = SimulationControls(dynamic=False)
        _, _, f_static = diagonal_system(s, controls, 1e-3)
        s2 = stacked_system()
        _, _, f_zero = diagonal_system(s2, controls, 1e-3)
        np.testing.assert_allclose(f_static, f_zero)

    def test_dynamic_velocity_momentum(self):
        s = stacked_system()
        s.velocities[1, 0] = 5.0
        controls = SimulationControls(dynamic=True, gravity=0.0)
        _, _, f = diagonal_system(s, controls, 1e-3)
        rho = s.material_of(1).density
        assert f[DOF] == pytest.approx(2.0 * rho * 1.0 * 5.0 / 1e-3)

    def test_point_load(self):
        s = stacked_system()
        s.add_point_load(1, 1.5, 1.5, 7.0, 0.0)
        controls = SimulationControls(gravity=0.0)
        _, _, f = diagonal_system(s, controls, 1e-3)
        assert f[DOF] == pytest.approx(7.0)


class TestContactSystem:
    def test_open_contacts_contribute_nothing(self):
        s = stacked_system()
        cs = contact_on_top(s)
        cs.state[:] = OPEN
        d_idx, d_blk, rows, cols, blks, f = contact_system(
            s, cs, np.zeros(cs.m)
        )
        assert np.all(blks == 0.0)
        assert np.all(f == 0.0)

    def test_locked_contacts_couple_blocks(self):
        s = stacked_system()
        cs = contact_on_top(s)
        cs.state[:] = LOCK
        _, _, rows, cols, blks, _ = contact_system(s, cs, np.zeros(cs.m))
        assert rows.size == 2
        assert np.abs(blks).max() > 0

    def test_empty_contacts(self):
        s = stacked_system()
        out = contact_system(s, ContactSet.empty(), np.zeros(0))
        assert out[0].size == 0
        assert np.all(out[5] == 0.0)


class TestContactLoads:
    """The per-block sum of the contact loads is two ``np.add.at`` calls
    (every ``fi`` in table order, then every ``fj``), bit for bit."""

    @staticmethod
    def by_add_at(system, contacts, normal_force):
        geometry = contacts.spring_geometry(system)
        jm = system.joint_material
        friction = normal_force * jm.tan_phi + jm.cohesion * geometry.length
        _, _, fi, fj = spring_loads(
            geometry, contacts.state, contacts.pn, contacts.ps, friction,
            contacts.shear_sign,
        )
        f = np.zeros((system.n_blocks, DOF))
        np.add.at(f, contacts.block_i, fi)
        np.add.at(f, contacts.block_j, fj)
        return f.reshape(-1)

    @pytest.mark.parametrize("rows", [0, 1, 12, 40])
    @pytest.mark.parametrize("states", [(OPEN,), (LOCK,), (OPEN, LOCK, SLIDE)])
    def test_bit_equal_to_add_at(self, rows, states, rng):
        s = stacked_system(gap=0.0)
        # two blocks, up to 40 rows: every target repeats
        cs = contact_on_top(s).select(rng.integers(0, 2, size=rows))
        cs.state[:] = rng.choice(states, size=rows)
        cs.shear_sign[:] = rng.choice([-1.0, 1.0], size=rows)
        cs.normal_disp[:] = rng.normal(0.0, 1e-4, size=rows)
        normal_force = cs.pn * np.maximum(0.0, cs.normal_disp)
        _, _, f = contact_loads(s, cs, normal_force)
        expected = self.by_add_at(s, cs, normal_force)
        assert f.shape == (s.n_dof,)
        np.testing.assert_array_equal(f.view(np.uint64), expected.view(np.uint64))

    def test_built_once_per_table(self):
        """A step copies its detected table for every attempt: the first
        copy to sum loads builds the structure for the table and all its
        copies; another row set is another table."""
        s = stacked_system()
        cs = contact_on_top(s)
        first, second = cs.copy(), cs.copy()
        built = first.load_sum(s.n_blocks)
        assert first.load_sum(s.n_blocks) is built
        assert cs.load_sum(s.n_blocks) is built
        assert second.load_sum(s.n_blocks) is built
        assert cs.select(np.array([1, 0])).load_sum(s.n_blocks) is not built


class TestUpdateContactStates:
    def _solve_like_displacement(self, s, down=-1e-4):
        # top block moves down by |down|
        d = np.zeros(s.n_dof)
        d[DOF + 1] = down
        return d

    def test_penetration_closes_contact(self):
        s = stacked_system(gap=0.0)
        cs = contact_on_top(s)
        d = self._solve_like_displacement(s, down=-1e-4)
        upd = update_contact_states(s, cs, d)
        assert (upd.states != OPEN).all()
        assert upd.max_penetration == pytest.approx(1e-4)
        assert upd.changed == 2

    def test_separation_opens_contact(self):
        s = stacked_system(gap=0.0)
        cs = contact_on_top(s)
        cs.state[:] = LOCK
        d = self._solve_like_displacement(s, down=+1e-4)
        upd = update_contact_states(s, cs, d)
        assert (upd.states == OPEN).all()

    def test_shear_beyond_friction_slides(self):
        s = stacked_system(gap=0.0, joint=JointMaterial(friction_angle_deg=1.0))
        cs = contact_on_top(s)
        cs.state[:] = LOCK
        d = np.zeros(s.n_dof)
        d[DOF + 0] = 1e-4   # tangential motion
        d[DOF + 1] = -1e-6  # slight compression
        upd = update_contact_states(s, cs, d)
        assert (upd.states == SLIDE).all()
        assert (upd.shear_sign < 0).all() or (upd.shear_sign > 0).all()

    def test_high_friction_locks(self):
        s = stacked_system(gap=0.0, joint=JointMaterial(friction_angle_deg=80.0))
        cs = contact_on_top(s)
        d = np.zeros(s.n_dof)
        d[DOF + 0] = 1e-6
        d[DOF + 1] = -1e-4  # strong compression
        upd = update_contact_states(s, cs, d)
        assert (upd.states == LOCK).all()

    def test_serial_matches_vectorised(self, rng):
        s = stacked_system(gap=0.0, joint=JointMaterial(friction_angle_deg=20.0))
        cs = contact_on_top(s)
        cs.state[:] = [LOCK, OPEN]
        for _ in range(5):
            d = rng.normal(0, 1e-4, size=s.n_dof)
            a = update_contact_states(s, cs, d)
            b = update_contact_states_serial(s, cs, d)
            np.testing.assert_array_equal(a.states, b.states)
            np.testing.assert_allclose(a.shear_sign, b.shear_sign)
            np.testing.assert_allclose(a.normal_force, b.normal_force)
            assert a.changed == b.changed
            assert a.max_penetration == pytest.approx(b.max_penetration)

    def test_empty(self):
        s = stacked_system()
        upd = update_contact_states(s, ContactSet.empty(), np.zeros(s.n_dof))
        assert upd.changed == 0
