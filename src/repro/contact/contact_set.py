"""The contact table: a struct-of-arrays batch of contact candidates.

Every contact couples a *vertex* of block ``i`` with a directed *edge* of
block ``j`` (VV contacts are resolved to an effective edge by the narrow
phase). The edge is stored in the outside-positive orientation required by
:mod:`repro.assembly.contact_springs` — i.e. reversed relative to block
``j``'s CCW boundary.

Geometry is referenced by *global vertex indices* into the block system's
flattened vertex array, so the table stays valid as the data-updating
module moves the vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.assembly.contact_springs import OPEN, SpringGeometry
from repro.core.blocks import BlockSystem
from repro.primitives.scatter import GatherSegmentSum
from repro.util.validation import check_array

#: Contact kinds (the paper's first/second classification outcomes).
VE, VV1, VV2 = 0, 1, 2

KIND_NAMES = ("VE", "VV1", "VV2")

#: The six index columns (int64) and the seven state columns' dtype and
#: default, in field order.
_INDEX_FIELDS = ("block_i", "block_j", "vertex_idx", "e1_idx", "e2_idx", "kind")
_DEFAULTS = {
    "state": (np.int64, OPEN), "prev_state": (np.int64, OPEN),
    "ratio": (np.float64, 0.5), "shear_sign": (np.float64, 1.0),
    "pn": (np.float64, 0.0), "ps": (np.float64, 0.0),
    "normal_disp": (np.float64, 0.0),
}
_COLUMNS = (*_INDEX_FIELDS, *_DEFAULTS)


@dataclass
class ContactSet:
    """``m`` contacts in struct-of-arrays layout.

    Attributes
    ----------
    block_i / block_j:
        Owning blocks of the vertex / the edge.
    vertex_idx:
        Global index of the contact vertex ``P1``.
    e1_idx / e2_idx:
        Global indices of the contact edge endpoints in the
        outside-positive orientation (``E1 -> E2``).
    kind:
        VE / VV1 / VV2 code.
    state / prev_state:
        Open–close state now and at the previous converged step.
    ratio:
        Contact point position along the edge, in ``[0, 1]``.
    shear_sign:
        ±1 sliding direction (meaningful in the SLIDE state).
    pn / ps:
        Normal and shear penalty stiffnesses.
    normal_disp:
        Normal compression memory carried across steps by contact
        transfer (:func:`repro.engine.physics.store_normal_force`).
    """

    block_i: np.ndarray
    block_j: np.ndarray
    vertex_idx: np.ndarray
    e1_idx: np.ndarray
    e2_idx: np.ndarray
    kind: np.ndarray
    state: np.ndarray = field(default=None)  # type: ignore[assignment]
    prev_state: np.ndarray = field(default=None)  # type: ignore[assignment]
    ratio: np.ndarray = field(default=None)  # type: ignore[assignment]
    shear_sign: np.ndarray = field(default=None)  # type: ignore[assignment]
    pn: np.ndarray = field(default=None)  # type: ignore[assignment]
    ps: np.ndarray = field(default=None)  # type: ignore[assignment]
    normal_disp: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        m = np.asarray(self.block_i).shape[0]
        for name in _INDEX_FIELDS:
            value = check_array(name, getattr(self, name), dtype=np.int64, shape=(m,))
            setattr(self, name, value)
        # a default is made only for a field left None
        for name, (dtype, fill) in _DEFAULTS.items():
            value = getattr(self, name)
            setattr(self, name, np.full(m, fill, dtype=dtype) if value is None
                    else check_array(name, value, dtype=dtype, shape=(m,)))
        if m and np.any(self.block_i == self.block_j):  # lint: sync-ok[validation-gate] -- rejects self-contacts at construction
            raise ValueError("self-contact (block_i == block_j) is not allowed")
        self._load_sum: dict = {}  # shared with every copy: see load_sum

    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of contacts."""
        return self.block_i.shape[0]

    @classmethod
    def empty(cls) -> "ContactSet":
        """A contact set with zero rows."""
        return cls(*(np.zeros(0, dtype=np.int64) for _ in _INDEX_FIELDS))

    def geometry(
        self, system: BlockSystem
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Current coordinates ``(P1, E1, E2, Ci, Cj)`` from the system."""
        v = system.vertices
        c = system.centroids
        return (
            v[self.vertex_idx],
            v[self.e1_idx],
            v[self.e2_idx],
            c[self.block_i],
            c[self.block_j],
        )

    def spring_geometry(self, system: BlockSystem) -> SpringGeometry:
        """The table's spring linearisation at the system's current
        coordinates — valid until data updating moves the vertices."""
        p1, e1, e2, ci, cj = self.geometry(system)
        return SpringGeometry.build(p1, e1, e2, self.ratio, ci, cj)

    def load_sum(self, n_blocks: int) -> GatherSegmentSum:
        """Sums ``(2m, k)`` per-contact loads — on ``block_i``, then on
        ``block_j`` — into ``(n_blocks, k)`` per-block totals, bit for bit
        as two ``np.add.at`` calls would. Built on first use by the table
        or any :meth:`copy` of it, for all of them: endpoints never change."""
        if not self._load_sum:
            ends = np.concatenate([self.block_i, self.block_j])
            self._load_sum["sum"] = GatherSegmentSum.scatter(ends, n_blocks)
        return self._load_sum["sum"]

    def keys(self, n_vertices: int) -> np.ndarray:
        """Unique transfer keys ``(vertex, e1, e2)`` packed into int64.

        Two contacts match across steps iff their contact data (the paper:
        "if their contact data are the same") — i.e. same vertex and edge
        indices — match.
        """
        nv = np.int64(n_vertices)
        return (self.vertex_idx * nv + self.e1_idx) * nv + self.e2_idx

    def minor_block(self) -> np.ndarray:
        """The smaller block id per contact (the paper's transfer sort key)."""
        return np.minimum(self.block_i, self.block_j)

    def select(self, idx: np.ndarray) -> "ContactSet":
        """Row subset (gather) as a new contact set."""
        return ContactSet(*(getattr(self, name)[idx] for name in _COLUMNS))

    def copy(self) -> "ContactSet":
        """Deep copy of the 13 columns, unvalidated (they were when this
        set was made); the :meth:`load_sum` structure is shared."""
        out = object.__new__(ContactSet)
        for name in _COLUMNS:
            setattr(out, name, getattr(self, name).copy())
        out._load_sum = self._load_sum
        return out
