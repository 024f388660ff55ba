"""Stage contracts and health guards: every guard fires, and fires first.

:data:`planting.PLANTED` holds one defect per contract
:mod:`repro.engine.contracts` raises and per health guard of
:class:`~repro.engine.resilience.HealthMonitor`, plus one in the domain
engine's halo transfer. Each row corrupts the stage output its guard
reads, once, in a live run, and the guard must be the first thing that
objects — a contract's at ``full``, where contracts ``off`` raise no
:class:`ContractViolation` for the same defect, a health guard's with
contracts ``off``; with a checkpoint each step, the run rolls back past
every contract row's defect and ends. A new contract cannot land
without a row. The unit tests after the table drive the checkers
directly on hand-made artifacts.
"""

import inspect
import re
import time

import numpy as np
import pytest
from planting import HEALTH_GUARDS, PLANTED, Planter, guard_of

from repro.contact.open_close import StateUpdate
from repro.core.blocks import Block, BlockSystem
from repro.core.materials import BlockMaterial
from repro.core.state import ResilienceControls, SimulationControls
from repro.engine import contracts as contracts_module
from repro.engine.contracts import (
    CONTRACT_LEVELS,
    ContractViolation,
    StageContracts,
)
from repro.engine.gpu_engine import GpuEngine
from repro.engine.resilience import NumericalBlowup
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


def controls(level="full", **res) -> SimulationControls:
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
# the planted-defect table (tests/planting.py)
# ----------------------------------------------------------------------

def planted_run(name: str, level: str, engine=None, **resilience):
    """Run the 3x3 wall at ``level`` with row ``name``'s defect planted,
    on ``engine`` (default: the row's).

    Returns ``(error, result)``, exactly one of them ``None``: without a
    checkpoint (the default) the first failure ends the run.
    """
    row = PLANTED[name]
    engine = (engine or row.engine)(
        build_brick_wall(rows=3, cols=3),
        SimulationControls(
            time_step=1e-3, dynamic=True, contract_level=level,
            resilience=ResilienceControls(**resilience),
        ),
    )
    planter = Planter(engine, row)
    try:
        with np.errstate(all="ignore"):  # non-finite on purpose
            result = engine.run(steps=row.steps)
    except Exception as err:  # the level below may fail in any way
        error, result = err, None
    else:
        error = None
    assert planter.planted, f"{name}'s defect was never planted"
    return error, result


def level_of(name: str) -> str:
    """The contract level row ``name`` runs at: a health guard's row
    runs with contracts off."""
    return "off" if guard_of(name) in HEALTH_GUARDS else "full"


def raised_contract_names() -> set[str]:
    """Every contract name ``contracts.py`` raises, read from its source."""
    source = inspect.getsource(contracts_module)
    return set(re.findall(r'_fail\(\s*(?:stage|"\w+"),\s*"(\w+)"', source))


def test_every_guard_has_a_planted_defect():
    assert {guard_of(name) for name in PLANTED} == (
        raised_contract_names() | set(HEALTH_GUARDS)
    )


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_planted_defect_is_caught_first_by_its_guard(name):
    guard, level = guard_of(name), level_of(name)
    error, result = planted_run(name, level)
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
    error, _ = planted_run(name, "off")
    assert not isinstance(error, ContractViolation), error


def _recovery_cases():
    """Every contract row on the GPU and serial presets; the halo row
    on the two-domain engine it is planted in."""
    for name in sorted(PLANTED):
        if level_of(name) == "off":
            continue
        presets = (
            [("DomainEngine", PLANTED[name].engine)]
            if PLANTED[name].stage == "halo_exchange"
            else [("GpuEngine", GpuEngine), ("SerialEngine", SerialEngine)]
        )
        for label, engine in presets:
            yield pytest.param(name, engine, id=f"{name}-{label}")


@pytest.mark.parametrize("name, engine", _recovery_cases())
def test_planted_defect_is_rolled_back(name, engine):
    """With a checkpoint each step the violation rolls the run back,
    the retried step runs clean, and the run ends."""
    row = PLANTED[name]
    error, result = planted_run(
        name, "full", engine, checkpoint_every=1, max_rollbacks=3
    )
    assert error is None, error
    assert result.failure is None
    assert result.n_steps == row.steps
    assert result.rollbacks >= 1
    first = next(w for w in result.warnings if w.guard == "rollback")
    assert f":{guard_of(name)}]" in first.message, first.message


# ----------------------------------------------------------------------
# configuration plumbing
# ----------------------------------------------------------------------

def test_level_validation():
    assert CONTRACT_LEVELS == ("off", "full")
    for retired in ("paranoid", "cheap"):
        with pytest.raises(ValueError, match="contract level"):
            StageContracts(retired)
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
    eng, contacts, _, _ = engine_with_artifacts()
    corrupt(contacts)
    with pytest.raises(ContractViolation) as exc:
        eng.contracts.check_contacts(eng.system, contacts)
    assert exc.value.contract == contract
    assert exc.value.stage == "contact_detection"
    assert exc.value.recoverable
    assert eng.contracts.violations["contact_detection"] == 1


def test_duplicate_contact_detected():
    eng, contacts, _, _ = engine_with_artifacts()
    dup = contacts.select(np.concatenate([np.arange(contacts.m), [0]]))
    with pytest.raises(ContractViolation) as exc:
        eng.contracts.check_contacts(eng.system, dup)
    assert exc.value.contract == "duplicate_contact"


def test_ownership_checked_at_full_only():
    eng, contacts, _, _ = engine_with_artifacts("full")
    # point the contact vertex at a vertex of the *other* block: every
    # index stays in range, so only ownership (or dedup) can object
    wrong = int(eng.system.offsets[contacts.block_j[0]])
    contacts.vertex_idx[0] = wrong
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
    eng, _, matrix, _ = engine_with_artifacts()
    corrupt(matrix)
    with pytest.raises(ContractViolation) as exc:
        eng.contracts.check_matrix(matrix)
    assert exc.value.contract == contract
    assert exc.value.stage == "matrix_assembly"


def test_corrupt_offdiag_detected():
    eng, _, matrix, _ = engine_with_artifacts()
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
    with pytest.raises(ContractViolation) as exc:
        eng.contracts.check_solution(matrix, rhs, bad)
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
    eng = GpuEngine(
        stacked(), controls("full", checkpoint_every=1, max_rollbacks=5)
    )
    planter = Planter(eng, PLANTED["finite_diag"], step=1)
    result = eng.run(steps=3)
    assert planter.planted, "defect never planted"
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
def test_contract_overhead_bounded():
    """`full` contracts must cost < 10% on the quickstart workload."""

    def run_once(level):
        eng = GpuEngine(build_brick_wall(rows=4, cols=6), controls(level))
        t0 = time.perf_counter()
        eng.run(steps=5)
        return time.perf_counter() - t0

    # the levels alternate, so drift on a shared host reaches both
    laps = {"off": [], "full": []}
    for _ in range(3):
        for level, seconds in laps.items():
            seconds.append(run_once(level))
    t_off, t_full = min(laps["off"]), min(laps["full"])
    # 10% target with a small absolute floor for timer noise on tiny runs
    assert t_full <= 1.10 * t_off + 0.05, (
        f"full contracts cost {t_full:.3f}s vs {t_off:.3f}s baseline"
    )
