"""Planting a stage fault: one defect per runtime guard.

:data:`PLANTED` holds one defect per contract
:mod:`repro.engine.contracts` raises and per health guard of
:class:`~repro.engine.resilience.HealthMonitor`, plus one in the domain
engine's halo transfer. A :class:`Planter` plants a row into a live
engine through the engines' one fault seam — the ``fault_injector``
whose ``perturb`` ``EngineBase._inject`` and
``DomainEngine._halo_inject`` call at every stage boundary — and wraps
the two stage methods whose outputs that seam does not see. Nothing is
drawn at random: a row corrupts the same entry on every run. The one
fault outside a stage, a corrupted checkpoint file, is planted by
:func:`corrupt_checkpoint_file`.
"""

import functools
import struct
import zipfile
from typing import Callable, NamedTuple

import numpy as np

from repro.assembly.contact_springs import OPEN
from repro.contact.contact_set import VE, VV2
from repro.engine.domain_engine import DomainEngine
from repro.engine.gpu_engine import GpuEngine
from repro.engine.resilience import OSCILLATION_STREAK

#: Step whose stage output a row corrupts (earlier steps run clean, so
#: the guards that compare against the previous step have one).
PLANT_STEP = 2

#: The health guards, next to the contracts the source raises.
HEALTH_GUARDS = ("finite", "penetration", "energy", "oscillation")


class Row(NamedTuple):
    """One planted defect.

    ``plant(engine, payload)`` corrupts the output of ``stage`` in place
    or returns a replacement. Contact, matrix, solution and halo outputs
    come through the fault seam, the state update from
    ``_check_interpenetration`` and the updated ``BlockSystem`` after
    ``_update_data``. A contract's row runs at ``full``, a health
    guard's (:data:`HEALTH_GUARDS`) at ``off``.
    """

    stage: str
    plant: Callable
    #: steps the run lasts; the defect is planted on each from
    #: PLANT_STEP on when ``once`` is false
    steps: int = PLANT_STEP + 1
    once: bool = True
    #: the guard that must catch it first, when not the row's name
    guard: str = ""
    #: ``engine(system, controls)`` builds the engine it runs on
    engine: Callable = GpuEngine


def guard_of(name: str) -> str:
    """The guard that must catch row ``name`` first."""
    return PLANTED[name].guard or name


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


def _far_off(engine, x):
    """Move one solution entry far off, but keep it finite: only the
    recomputed residual can object."""
    x[0] += 1e6 * (1.0 + abs(x).max())


#: vertices of a bowtie with positive signed area, in brick units
BOWTIE = np.array([[0.0, 0.0], [1.0, 0.0], [0.25, 0.5], [0.75, 0.5]])


def _reshape_block(shape):
    """Rewrite block 1's polygon as ``shape(its vertices)``."""
    def plant(engine, system):
        lo, hi = system.offsets[1], system.offsets[2]
        system.vertices[lo:hi] = shape(system.vertices[lo:hi])
        system._refresh_cache()
    return plant


#: name (the guard, unless the row names another) -> the defect that
#: guard alone must catch first
PLANTED = {
    # ---- contact detection: the table handed to assembly ------------
    "block_index_range": Row("contact_detection", _put(
        "block_i", lambda e, c: e.system.n_blocks)),
    "vertex_index_range": Row("contact_detection", _put(
        "vertex_idx", lambda e, c: e.system.vertices.shape[0])),
    "kind_code": Row("contact_detection", _put(
        "kind", _const(7), at=-1)),
    "kind_grouping": Row("contact_detection", _put(
        "kind", _const(VV2))),
    "state_code": Row("contact_detection", _put(
        "state", _const(9))),
    "duplicate_contact": Row("contact_detection", _rows(
        lambda c: np.insert(np.arange(c.m), 0, 0))),
    "penalty_sign": Row("contact_detection", _put(
        "pn", _const(-1.0))),
    "ratio_range": Row("contact_detection", _put(
        "ratio", _const(1.5))),
    # a vertex of the edge's own block, an edge end on the vertex's:
    # every index in range and every key still unique
    "vertex_ownership": Row("contact_detection", _put(
        "vertex_idx", lambda e, c: c.e1_idx[0])),
    "edge_ownership": Row("contact_detection", _put(
        "e1_idx", lambda e, c: c.vertex_idx[0])),
    "lost_closed_contact": Row("contact_detection", _rows(
        lambda c: np.flatnonzero(c.state == OPEN))),
    # ---- matrix assembly: the BlockMatrix handed to the solver -------
    "finite_diag": Row("matrix_assembly", _put(
        "diag", _const(np.nan), at=(0, 0, 0))),
    "finite_offdiag": Row("matrix_assembly", _put(
        "blocks", _const(np.inf), at=(0, 0, 0))),
    "spd_diagonal": Row("matrix_assembly", _put(
        "diag", _const(-1.0), at=(0, 0, 0))),
    "symmetry": Row("matrix_assembly", _put(
        "diag", lambda e, k: k.diag[0, 0, 1] + 1.0 + abs(k.diag[0]).max(),
        at=(0, 0, 1))),
    # ---- equation solving: the CGResult ------------------------------
    "finite_solution": Row("equation_solving", _put(
        "x", _const(np.nan))),
    "finite_residual": Row("equation_solving", _put(
        "residuals", _const(np.nan), at=-1)),
    "residual_mismatch": Row("equation_solving", lambda e, r: _far_off(e, r.x)),
    # ---- halo exchange: the gathered solution of a two-domain solve --
    "halo_gather": Row(
        "halo_exchange", _far_off, guard="residual_mismatch",
        engine=functools.partial(DomainEngine, n_domains=2),
    ),
    # ---- interpenetration checking: the StateUpdate ------------------
    "shear_sign": Row("interpenetration_checking", _put(
        "shear_sign", _const(0.5))),
    "normal_force_sign": Row("interpenetration_checking", _put(
        "normal_force", _const(-1.0))),
    "finite_penetration": Row("interpenetration_checking", _set(
        max_penetration=_const(np.nan))),
    "penetration_bound": Row("interpenetration_checking", _deep_penetration),
    # ---- data updating: the moved BlockSystem ------------------------
    "positive_area": Row("data_updating", _reshape_block(
        lambda v: v[::-1].copy())),
    "simple_polygon": Row("data_updating", _reshape_block(
        lambda v: v.min(axis=0) + BOWTIE)),
    # ---- health guards, after data updating --------------------------
    "finite": Row("data_updating", _put(
        "velocities", _const(np.nan), at=(0, 0))),
    "penetration": Row("interpenetration_checking", _deep_penetration),
    "energy": Row("data_updating", _put(
        "velocities", lambda e, s: s.velocities[:, :2] + 1e3,
        at=(slice(None), slice(0, 2)))),
    # a streak: every sweep of OSCILLATION_STREAK steps keeps switching
    "oscillation": Row(
        "interpenetration_checking",
        _set(significant_changes=lambda e, u: max(u.significant_changes, 1)),
        steps=PLANT_STEP + OSCILLATION_STREAK, once=False,
    ),
}

#: Not in the table: one closed vertex-edge contact silently dropped
#: (``lost_closed_contact``'s row drops every closed one).
DROP_ONE_CLOSED = Row(
    "contact_detection",
    _rows(lambda c: np.delete(np.arange(c.m), np.flatnonzero(
        (c.state != OPEN) & (c.kind == VE))[:1])),
    guard="lost_closed_contact",
)


class Planter:
    """Plants one row into a live engine, from step ``step`` on.

    It is the engine's ``fault_injector`` (the seam ``_inject`` and the
    halo gather call) and wraps the two stage methods whose outputs the
    seam does not see. ``planted`` lists the steps it planted at.
    """

    def __init__(self, engine, row: Row, *, step: int = PLANT_STEP) -> None:
        self.row = row
        self.step = step
        self.planted: list[int] = []
        engine.fault_injector = self
        check, update = engine._check_interpenetration, engine._update_data

        def check_interpenetration(contacts, d, normal_force):
            return self.perturb(
                "interpenetration_checking", check(contacts, d, normal_force),
                step=engine.step, engine=engine,
            )

        def update_data(d, dt):
            update(d, dt)
            self.perturb(
                "data_updating", engine.system,
                step=engine.step, engine=engine,
            )

        engine._check_interpenetration = check_interpenetration
        engine._update_data = update_data

    def perturb(self, stage, payload, *, step, engine):
        row = self.row
        if (
            stage != row.stage
            or step < self.step
            or (row.once and self.planted)
        ):
            return payload
        self.planted.append(step)
        replaced = row.plant(engine, payload)
        return payload if replaced is None else replaced


def corrupt_checkpoint_file(path, member="vertices.npy"):
    """Flip the middle byte of one payload member's compressed data in a
    persisted checkpoint (bit rot, a torn write). The byte is found
    through the member's :class:`zipfile.ZipInfo`, so the flip lands in
    the payload whatever the file's layout."""
    data = bytearray(path.read_bytes())
    if not data:
        raise ValueError(f"{path}: empty file")
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    # the local header: 30 fixed bytes, then the name and extra field
    name_len, extra_len = struct.unpack_from("<HH", data, info.header_offset + 26)
    start = info.header_offset + 30 + name_len + extra_len
    data[start + info.compress_size // 2] ^= 0xFF
    path.write_bytes(bytes(data))
