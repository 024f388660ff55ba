"""Stage contracts and health guards: every guard fires, and fires first.

:data:`PLANTED` holds one defect per contract :mod:`repro.engine.contracts`
raises and per health guard of :class:`~repro.engine.resilience.HealthMonitor`.
Each row corrupts the stage output its guard reads, once, in a live
:class:`GpuEngine` run, and the guard must be the first thing that
objects — at the row's level, while the level below raises no
:class:`ContractViolation` for the same defect. A new contract cannot
land without a row. The unit tests after the table drive the checkers
directly on hand-made artifacts.
"""

import inspect
import re
import time
from typing import Callable, NamedTuple

import numpy as np
import pytest

from repro.assembly.contact_springs import OPEN
from repro.contact.contact_set import VV2
from repro.core.blocks import Block, BlockSystem
from repro.core.materials import BlockMaterial
from repro.contact.open_close import StateUpdate
from repro.core.state import ResilienceControls, SimulationControls
from repro.engine import contracts as contracts_module
from repro.engine.chaos import FaultInjector
from repro.engine.contracts import (
    CONTRACT_LEVELS,
    ContractViolation,
    StageContracts,
)
from repro.engine.gpu_engine import GpuEngine
from repro.engine.resilience import OSCILLATION_STREAK, NumericalBlowup
from repro.engine.serial_engine import SerialEngine
from repro.meshing.slope_models import build_brick_wall
from repro.solvers.cg import CGResult

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
MAT = BlockMaterial(young=1e9)


def stacked() -> BlockSystem:
    base = np.array([[0, 0], [3, 0], [3, 1], [0, 1.0]])
    s = BlockSystem([Block(base, MAT), Block(SQ + np.array([1.0, 1.0]), MAT)])
    s.fix_block(0)
    return s


def controls(level="cheap", **res) -> SimulationControls:
    return SimulationControls(
        time_step=1e-3, dynamic=True, max_displacement_ratio=0.05,
        contract_level=level, resilience=ResilienceControls(**res),
    )


def engine_with_artifacts(level="full"):
    """An engine plus one step's worth of real stage artifacts."""
    eng = GpuEngine(stacked(), controls(level))
    contacts = eng._detect_contacts()
    diag_idx, diag_blocks, f_base = eng._build_diagonal()
    normal_force = contacts.pn * np.maximum(0.0, contacts.normal_disp)
    geometry = contacts.spring_geometry(eng.system)
    w, ws, f_c = eng._build_nondiagonal(contacts, normal_force, geometry)
    matrix = eng._assemble(
        np.concatenate([diag_idx, contacts.block_i, contacts.block_j]),
        diag_blocks, contacts, geometry, w, ws,
    )
    return eng, contacts, matrix, f_base + f_c


# ----------------------------------------------------------------------
# the planted-defect table
# ----------------------------------------------------------------------

#: Step whose stage output a row corrupts (earlier steps run clean, so
#: the guards that compare against the previous step have one).
PLANT_STEP = 2

#: The health guards, next to the contracts the source raises.
HEALTH_GUARDS = ("finite", "penetration", "energy", "oscillation")


class Row(NamedTuple):
    """One planted defect.

    ``plant(engine, payload)`` corrupts the output of ``stage`` in place
    or returns a replacement. Contact, matrix and solution outputs come
    through ``EngineBase._inject``, the state update from
    ``_check_interpenetration`` and the updated ``BlockSystem`` after
    ``_update_data``. A health guard's row runs at ``off``.
    """

    level: str
    stage: str
    plant: Callable
    #: steps the run lasts; the defect is planted on each from
    #: PLANT_STEP on when ``once`` is false
    steps: int = PLANT_STEP + 1
    once: bool = True


def _put(field, value, at=0):
    """Plant ``payload.<field>[at] = value(engine, payload)``."""
    def plant(engine, payload):
        getattr(payload, field)[at] = value(engine, payload)
    return plant


def _set(**values):
    """Plant scalar attributes of the payload."""
    def plant(engine, payload):
        for name, value in values.items():
            setattr(payload, name, value(engine, payload))
    return plant


def _const(value):
    return lambda engine, payload: value


def _rows(rows):
    """Select the payload's contact rows ``rows(payload)`` as a new table."""
    return lambda engine, contacts: contacts.select(rows(contacts))


def _deep_penetration(engine, update):
    """A sweep reporting 100x the threshold, and ending the attempt."""
    update.max_penetration = 100.0 * engine.contact_threshold
    update.significant_changes = 0


#: vertices of a bowtie with positive signed area, in brick units
BOWTIE = np.array([[0.0, 0.0], [1.0, 0.0], [0.25, 0.5], [0.75, 0.5]])


def _reshape_block(shape):
    """Rewrite block 1's polygon as ``shape(its vertices)``."""
    def plant(engine, system):
        lo, hi = system.offsets[1], system.offsets[2]
        system.vertices[lo:hi] = shape(system.vertices[lo:hi])
        system._refresh_cache()
    return plant


#: guard -> the defect that guard alone must catch first
PLANTED = {
    # ---- contact detection: the table handed to assembly ------------
    "block_index_range": Row("cheap", "contact_detection", _put(
        "block_i", lambda e, c: e.system.n_blocks)),
    "vertex_index_range": Row("cheap", "contact_detection", _put(
        "vertex_idx", lambda e, c: e.system.vertices.shape[0])),
    "kind_code": Row("cheap", "contact_detection", _put(
        "kind", _const(7), at=-1)),
    "kind_grouping": Row("cheap", "contact_detection", _put(
        "kind", _const(VV2))),
    "state_code": Row("cheap", "contact_detection", _put(
        "state", _const(9))),
    "duplicate_contact": Row("cheap", "contact_detection", _rows(
        lambda c: np.insert(np.arange(c.m), 0, 0))),
    "penalty_sign": Row("cheap", "contact_detection", _put(
        "pn", _const(-1.0))),
    "ratio_range": Row("cheap", "contact_detection", _put(
        "ratio", _const(1.5))),
    # a vertex of the edge's own block, an edge end on the vertex's:
    # every index in range and every key still unique
    "vertex_ownership": Row("full", "contact_detection", _put(
        "vertex_idx", lambda e, c: c.e1_idx[0])),
    "edge_ownership": Row("full", "contact_detection", _put(
        "e1_idx", lambda e, c: c.vertex_idx[0])),
    "lost_closed_contact": Row("full", "contact_detection", _rows(
        lambda c: np.flatnonzero(c.state == OPEN))),
    # ---- matrix assembly: the BlockMatrix handed to the solver -------
    "finite_diag": Row("cheap", "matrix_assembly", _put(
        "diag", _const(np.nan), at=(0, 0, 0))),
    "finite_offdiag": Row("cheap", "matrix_assembly", _put(
        "blocks", _const(np.inf), at=(0, 0, 0))),
    "spd_diagonal": Row("cheap", "matrix_assembly", _put(
        "diag", _const(-1.0), at=(0, 0, 0))),
    "symmetry": Row("cheap", "matrix_assembly", _put(
        "diag", lambda e, k: k.diag[0, 0, 1] + 1.0 + abs(k.diag[0]).max(),
        at=(0, 0, 1))),
    # ---- equation solving: the CGResult ------------------------------
    "finite_solution": Row("cheap", "equation_solving", _put(
        "x", _const(np.nan))),
    "finite_residual": Row("cheap", "equation_solving", _put(
        "residuals", _const(np.nan), at=-1)),
    # large but finite: only the recomputed residual can object
    "residual_mismatch": Row("full", "equation_solving", _put(
        "x", lambda e, r: r.x[0] + 1e6 * (1.0 + abs(r.x).max()))),
    # ---- interpenetration checking: the StateUpdate ------------------
    "shear_sign": Row("cheap", "interpenetration_checking", _put(
        "shear_sign", _const(0.5))),
    "normal_force_sign": Row("cheap", "interpenetration_checking", _put(
        "normal_force", _const(-1.0))),
    "finite_penetration": Row("cheap", "interpenetration_checking", _set(
        max_penetration=_const(np.nan))),
    "penetration_bound": Row(
        "full", "interpenetration_checking", _deep_penetration),
    # ---- data updating: the moved BlockSystem ------------------------
    "positive_area": Row("cheap", "data_updating", _reshape_block(
        lambda v: v[::-1].copy())),
    "simple_polygon": Row("full", "data_updating", _reshape_block(
        lambda v: v.min(axis=0) + BOWTIE)),
    # ---- health guards, after data updating --------------------------
    "finite": Row("off", "data_updating", _put(
        "velocities", _const(np.nan), at=(0, 0))),
    "penetration": Row("off", "interpenetration_checking", _deep_penetration),
    "energy": Row("off", "data_updating", _put(
        "velocities", lambda e, s: s.velocities[:, :2] + 1e3,
        at=(slice(None), slice(0, 2)))),
    # a streak: every sweep of OSCILLATION_STREAK steps keeps switching
    "oscillation": Row(
        "off", "interpenetration_checking",
        _set(significant_changes=lambda e, u: max(u.significant_changes, 1)),
        steps=PLANT_STEP + OSCILLATION_STREAK, once=False,
    ),
}


class Planter:
    """Plants one row into a live engine.

    It stands in for the fault injector (the ``_inject`` hook) and wraps
    the two stage methods whose outputs ``_inject`` does not see.
    """

    def __init__(self, engine, row: Row) -> None:
        self.row = row
        self.planted = 0
        engine.fault_injector = self
        check, update = engine._check_interpenetration, engine._update_data

        def check_interpenetration(contacts, d, normal_force):
            return self.perturb(
                "interpenetration_checking", check(contacts, d, normal_force),
                step=engine._current_step, engine=engine,
            )

        def update_data(d):
            update(d)
            self.perturb(
                "data_updating", engine.system,
                step=engine._current_step, engine=engine,
            )

        engine._check_interpenetration = check_interpenetration
        engine._update_data = update_data

    def perturb(self, stage, payload, *, step, engine):
        row = self.row
        if (
            stage != row.stage
            or step < PLANT_STEP
            or (row.once and self.planted)
        ):
            return payload
        self.planted += 1
        replaced = row.plant(engine, payload)
        return payload if replaced is None else replaced


def run_planted(guard: str, level: str):
    """Run the 3x3 wall at ``level`` with ``guard``'s defect planted.

    No checkpoint is taken, so the first failure ends the run: returns
    ``(error, result)``, exactly one of them ``None``.
    """
    row = PLANTED[guard]
    engine = GpuEngine(
        build_brick_wall(rows=3, cols=3),
        SimulationControls(time_step=1e-3, dynamic=True, contract_level=level),
    )
    planter = Planter(engine, row)
    try:
        with np.errstate(all="ignore"):  # non-finite on purpose
            result = engine.run(steps=row.steps)
    except Exception as err:  # the level below may fail in any way
        error, result = err, None
    else:
        error = None
    assert planter.planted, f"{guard}'s defect was never planted"
    return error, result


def raised_contract_names() -> set[str]:
    """Every contract name ``contracts.py`` raises, read from its source."""
    source = inspect.getsource(contracts_module)
    return set(re.findall(r'_fail\(\s*(?:stage|"\w+"),\s*"(\w+)"', source))


def test_every_guard_has_a_planted_defect():
    assert set(PLANTED) == raised_contract_names() | set(HEALTH_GUARDS)


@pytest.mark.parametrize("guard", sorted(PLANTED))
def test_planted_defect_is_caught_first_by_its_guard(guard):
    level = PLANTED[guard].level
    error, result = run_planted(guard, level)
    if guard == "finite":
        assert isinstance(error, NumericalBlowup) and error.guard == guard
    elif guard in HEALTH_GUARDS:  # the guards that warn
        assert error is None, error
        assert [w.guard for w in result.warnings] == [guard]
    else:
        assert isinstance(error, ContractViolation), error
        assert error.contract == guard
    if level == "off":
        return
    below = CONTRACT_LEVELS[CONTRACT_LEVELS.index(level) - 1]
    error, _ = run_planted(guard, below)
    assert not isinstance(error, ContractViolation), error


# ----------------------------------------------------------------------
# configuration plumbing
# ----------------------------------------------------------------------

def test_level_validation():
    with pytest.raises(ValueError, match="contract level"):
        StageContracts("paranoid")
    with pytest.raises(ValueError, match="contract_level"):
        SimulationControls(contract_level="paranoid")
    for level in CONTRACT_LEVELS:
        assert StageContracts(level).level == level


def test_engines_wire_contract_level():
    for cls in (SerialEngine, GpuEngine):
        eng = cls(stacked(), controls("full"))
        assert eng.contracts.level == "full"
        assert eng.contracts.contact_threshold == eng.contact_threshold


def test_off_level_is_noop():
    checker = StageContracts("off")
    # a blatantly corrupt artifact sails through at level "off"
    eng, contacts, matrix, _ = engine_with_artifacts()
    matrix.diag[0, 0, 0] = np.nan
    checker.check_matrix(matrix)
    assert not checker.violations


# ----------------------------------------------------------------------
# contact-table contracts
# ----------------------------------------------------------------------

def test_valid_contacts_pass_all_levels():
    eng, contacts, _, _ = engine_with_artifacts("full")
    eng.contracts.check_contacts(eng.system, contacts)
    assert not eng.contracts.violations


@pytest.mark.parametrize(
    "corrupt,contract",
    [
        (lambda c: c.block_i.__setitem__(0, 99), "block_index_range"),
        (lambda c: c.vertex_idx.__setitem__(0, -1), "vertex_index_range"),
        (lambda c: c.kind.__setitem__(0, 7), "kind_code"),
        (lambda c: c.state.__setitem__(0, 9), "state_code"),
        (lambda c: c.pn.__setitem__(0, -5.0), "penalty_sign"),
        (lambda c: c.ps.__setitem__(0, np.nan), "penalty_sign"),
        (lambda c: c.ratio.__setitem__(0, 1.5), "ratio_range"),
    ],
)
def test_corrupt_contacts_detected(corrupt, contract):
    eng, contacts, _, _ = engine_with_artifacts("cheap")
    corrupt(contacts)
    with pytest.raises(ContractViolation) as exc:
        eng.contracts.check_contacts(eng.system, contacts)
    assert exc.value.contract == contract
    assert exc.value.stage == "contact_detection"
    assert exc.value.recoverable
    assert eng.contracts.violations["contact_detection"] == 1


def test_duplicate_contact_detected():
    eng, contacts, _, _ = engine_with_artifacts("cheap")
    dup = contacts.select(np.concatenate([np.arange(contacts.m), [0]]))
    with pytest.raises(ContractViolation) as exc:
        eng.contracts.check_contacts(eng.system, dup)
    assert exc.value.contract == "duplicate_contact"


def test_ownership_checked_at_full_only():
    eng, contacts, _, _ = engine_with_artifacts("full")
    # point the contact vertex at a vertex of the *other* block
    wrong = int(eng.system.offsets[contacts.block_j[0]])
    contacts.vertex_idx[0] = wrong
    cheap = StageContracts("cheap", contact_threshold=eng.contact_threshold)
    # cheap only checks ranges — dedup may or may not trip, so skip it by
    # keeping keys unique: assert full catches ownership specifically
    with pytest.raises(ContractViolation) as exc:
        eng.contracts.check_contacts(eng.system, contacts)
    assert exc.value.contract in ("vertex_ownership", "duplicate_contact")


def test_lost_closed_contact_detected():
    eng = GpuEngine(stacked(), controls("full"))
    eng.run(steps=2)  # settle: the square rests closed on the base
    previous = eng._contacts
    assert previous.m > 0
    fresh = eng._detect_contacts()
    # passing unchanged is fine
    eng.contracts.check_contacts(eng.system, fresh, previous=previous)
    # now silently drop every contact: closed rows must be flagged
    from repro.contact.contact_set import ContactSet

    with pytest.raises(ContractViolation) as exc:
        eng.contracts.check_contacts(
            eng.system, ContactSet.empty(), previous=previous
        )
    assert exc.value.contract == "lost_closed_contact"
    assert exc.value.indices


# ----------------------------------------------------------------------
# matrix contracts
# ----------------------------------------------------------------------

def test_valid_matrix_passes():
    eng, _, matrix, _ = engine_with_artifacts("full")
    eng.contracts.check_matrix(matrix)
    assert not eng.contracts.violations


@pytest.mark.parametrize(
    "corrupt,contract",
    [
        (lambda k: k.diag.__setitem__((0, 0, 0), np.nan), "finite_diag"),
        (lambda k: k.diag.__setitem__((0, 0, 0), -1.0), "spd_diagonal"),
        (
            lambda k: k.diag.__setitem__(
                (0, 0, 1), k.diag[0, 0, 1] + 0.5 * abs(k.diag[0]).max() + 1.0
            ),
            "symmetry",
        ),
    ],
)
def test_corrupt_matrix_detected(corrupt, contract):
    eng, _, matrix, _ = engine_with_artifacts("cheap")
    corrupt(matrix)
    with pytest.raises(ContractViolation) as exc:
        eng.contracts.check_matrix(matrix)
    assert exc.value.contract == contract
    assert exc.value.stage == "matrix_assembly"


def test_corrupt_offdiag_detected():
    eng, _, matrix, _ = engine_with_artifacts("cheap")
    if matrix.blocks.size == 0:
        pytest.skip("no off-diagonal blocks in this configuration")
    matrix.blocks[0, 2, 3] = np.inf
    with pytest.raises(ContractViolation) as exc:
        eng.contracts.check_matrix(matrix)
    assert exc.value.contract == "finite_offdiag"


# ----------------------------------------------------------------------
# solution contracts
# ----------------------------------------------------------------------

def test_solution_checks():
    eng, _, matrix, rhs = engine_with_artifacts("full")
    n = rhs.size
    good = CGResult(
        x=np.zeros(n), iterations=1, converged=True, residuals=[1e-12]
    )
    # a zero solution against a nonzero rhs: true residual 1.0 vs
    # reported 1e-12 — the full-level cross-check must fire
    with pytest.raises(ContractViolation) as exc:
        eng.contracts.check_solution(matrix, rhs, good)
    assert exc.value.contract == "residual_mismatch"

    bad = CGResult(
        x=np.full(n, np.nan), iterations=1, converged=True, residuals=[1e-12]
    )
    cheap = StageContracts("cheap")
    with pytest.raises(ContractViolation) as exc:
        cheap.check_solution(matrix, rhs, bad)
    assert exc.value.contract == "finite_solution"


# ----------------------------------------------------------------------
# state-update contracts
# ----------------------------------------------------------------------

def _update(m, **over):
    base = dict(
        states=np.zeros(m, dtype=np.int64),
        shear_sign=np.ones(m),
        normal_force=np.zeros(m),
        changed=0,
        significant_changes=0,
        max_penetration=0.0,
    )
    base.update(over)
    return StateUpdate(**base)


def test_state_update_checks():
    eng, contacts, _, _ = engine_with_artifacts("full")
    m = contacts.m
    eng.contracts.check_state_update(contacts, _update(m))
    with pytest.raises(ContractViolation) as exc:
        eng.contracts.check_state_update(
            contacts, _update(m, states=np.full(m, 9, dtype=np.int64))
        )
    assert exc.value.contract == "state_code"
    with pytest.raises(ContractViolation) as exc:
        eng.contracts.check_state_update(
            contacts, _update(m, shear_sign=np.full(m, 0.5))
        )
    assert exc.value.contract == "shear_sign"
    with pytest.raises(ContractViolation) as exc:
        eng.contracts.check_state_update(
            contacts, _update(m, normal_force=np.full(m, -1.0))
        )
    assert exc.value.contract == "normal_force_sign"
    with pytest.raises(ContractViolation) as exc:
        eng.contracts.check_state_update(
            contacts,
            _update(m, max_penetration=100.0 * eng.contact_threshold),
        )
    assert exc.value.contract == "penetration_bound"


# ----------------------------------------------------------------------
# geometry contracts
# ----------------------------------------------------------------------

def test_geometry_checks():
    eng, *_ = engine_with_artifacts("full")
    eng.contracts.check_geometry(eng.system)
    # a non-finite vertex makes its block's area non-finite
    eng.system.vertices[0, 0] = np.nan
    eng.system._refresh_cache()
    with pytest.raises(ContractViolation) as exc:
        eng.contracts.check_geometry(eng.system)
    assert exc.value.contract == "positive_area"
    assert exc.value.indices == [0]


def test_geometry_self_intersection_detected():
    eng, *_ = engine_with_artifacts("full")
    # rewrite block 1 as a bowtie with positive signed area
    lo = int(eng.system.offsets[1])
    eng.system.vertices[lo:lo + 4] = np.array(
        [[0.0, 10.0], [2.0, 10.0], [0.5, 11.0], [1.5, 11.0]]
    )
    eng.system._refresh_cache()
    with pytest.raises(ContractViolation) as exc:
        eng.contracts.check_geometry(eng.system)
    assert exc.value.contract == "simple_polygon"
    assert exc.value.indices == [1]


# ----------------------------------------------------------------------
# end-to-end surfacing + overhead
# ----------------------------------------------------------------------

def test_violations_surface_in_result():
    injector = FaultInjector(["matrix_nan"], seed=1, start_step=1)
    eng = GpuEngine(
        stacked(),
        controls("cheap", checkpoint_every=1, max_rollbacks=5),
        fault_injector=injector,
    )
    result = eng.run(steps=3)
    assert injector.injected, "fault never fired"
    assert result.contract_violations.get("matrix_assembly", 0) >= 1
    assert result.rollbacks >= 1
    assert result.failure is None
    assert result.n_steps == 3


def test_clean_run_reports_no_violations():
    eng = GpuEngine(stacked(), controls("full", checkpoint_every=1))
    result = eng.run(steps=3)
    assert result.contract_violations == {}
    assert result.rollbacks == 0


@pytest.mark.slow
def test_cheap_contract_overhead_bounded():
    """`cheap` contracts must cost < 10% on the quickstart workload."""

    def run_once(level):
        eng = GpuEngine(build_brick_wall(rows=4, cols=6), controls(level))
        t0 = time.perf_counter()
        eng.run(steps=5)
        return time.perf_counter() - t0

    t_off = min(run_once("off") for _ in range(3))
    t_cheap = min(run_once("cheap") for _ in range(3))
    # 10% target with a small absolute floor for timer noise on tiny runs
    assert t_cheap <= 1.10 * t_off + 0.05, (
        f"cheap contracts cost {t_cheap:.3f}s vs {t_off:.3f}s baseline"
    )
