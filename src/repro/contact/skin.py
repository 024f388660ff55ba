"""Contact candidates that outlive a step: a skin-kept broad phase and
narrow-phase rows.

The paper re-runs the all-pairs broad phase and the narrow phase's
candidate cull every step. Between two steps the blocks barely move, so
:class:`KeptCandidates` runs both at a margin widened by a *skin* and
keeps the result until the vertices have moved half a skin (Chrono
DEM-Engine's contact margin; Washizawa & Nakahara's rebuild-on-exhausted-
skin rule):

* **pairs** — :func:`~repro.contact.broad_phase.broad_phase_pairs` at
  ``threshold + skin`` on the reference boxes; each step
  :func:`~repro.contact.broad_phase.overlapping_pairs` takes the exact
  list from that superset with the same four tests at ``threshold``, in
  the same order;
* **rows** — :func:`~repro.contact.narrow_phase.cull_rows` of the exact
  list's :class:`~repro.contact.narrow_phase.CandidatePlan` at ``reach +
  skin`` on the reference vertices, run again only when the plan is.

Both stay supersets while :meth:`KeptCandidates.holds` (the bound is
argued at :data:`~repro.contact.narrow_phase.CULL_SLACK_ULPS`), so every
contact table is the one a fresh detection finds. The ledger still
prices the paper's per-step kernels — the tiled broad phase with this
step's exact hit count, the distance judgment over every candidate row —
so it does not move either; only the host's wall clock does. The kind
split and the transfer's pricing sort outlive a step too, behind exact
gates on what they read (:class:`~repro.gpu.kernel.KeptLaunches`).
"""

from __future__ import annotations

import numpy as np

from repro.contact.broad_phase import (
    broad_phase_pairs,
    overlapping_pairs,
    record_broad_phase,
)
from repro.contact.contact_set import ContactSet
from repro.contact.narrow_phase import (
    CULL_SLACK_ULPS,
    CandidatePlan,
    coordinate_magnitude,
    cull_reach,
    cull_rows,
    narrow_phase,
)
from repro.core.blocks import BlockSystem
from repro.geometry.tolerances import Tolerances
from repro.gpu.kernel import KeptLaunches, VirtualDevice
from repro.obs.metrics import MetricsRegistry

#: The skin as a fraction of the contact threshold.
SKIN_FACTOR = 0.5


class KeptCandidates:
    """The broad-phase pairs and narrow-phase rows one engine keeps.

    :meth:`detect` is the whole narrow-phase table of a step. It counts
    ``contact.skin_reuse`` when the kept superset still holds,
    ``contact.skin_rebuilds`` when it was found again, and
    ``contact.candidate_plan_reuse`` when the exact pair list is the one
    the kept :class:`CandidatePlan` was built for. The skin gate reads only
    the current and the reference vertices, so a rollback or a restored
    checkpoint needs no hook: it is one more motion.
    """

    def __init__(self, threshold: float, metrics: MetricsRegistry) -> None:
        self.threshold = threshold
        self.skin = SKIN_FACTOR * threshold
        self.metrics = metrics
        #: the vertices, block topology, reach and coordinate magnitude
        #: the superset was found at (``None`` until the first step)
        self.reference: np.ndarray | None = None
        self.offsets: np.ndarray | None = None
        self.reach = 0.0
        self.magnitude = 0.0
        #: the pair superset at ``threshold + skin``
        self.pairs_i = self.pairs_j = np.zeros(0, dtype=np.int64)
        #: the exact list's plan and its rows culled at ``reach + skin``
        #: on the reference vertices (``None`` once either changes)
        self.plan: CandidatePlan | None = None
        self.rows: np.ndarray | None = None
        #: the kind split and transfer sort (int32 labels, permutation, minor
        #: blocks: 12 bytes a contact row); hits count ``contact.detection_reuse``
        reuse = metrics.counter("contact.detection_reuse")
        self.split, self.transfer = KeptLaunches(reuse), KeptLaunches(reuse)

    def holds(self, system: BlockSystem, reach: float) -> bool:
        """Whether the kept superset still holds for ``system``:
        ``2 max|v - v_ref| + max(reach - reach_ref, 0) + slack < skin``
        over the same block topology (:data:`CULL_SLACK_ULPS`)."""
        if self.reference is None:
            return False
        if not np.array_equal(system.offsets, self.offsets):  # lint: sync-ok[skin-gate] -- the kept candidates' topology check, once a step
            return False
        vertices = system.vertices
        travel = float(np.max(np.abs(vertices - self.reference)))  # lint: sync-ok[skin-gate] -- the one scalar a step that decides whether the kept candidates hold
        scale = (
            max(coordinate_magnitude(vertices), self.magnitude)
            + self.threshold + self.skin
        )
        slack = CULL_SLACK_ULPS * np.finfo(np.float64).eps * scale
        return 2.0 * travel + max(reach - self.reach, 0.0) + slack < self.skin

    def detect(
        self,
        system: BlockSystem,
        device: VirtualDevice | None,
        *,
        tol: Tolerances,
    ) -> tuple[int, ContactSet]:
        """This step's broad-phase pair count and narrow-phase table,
        recording the paper's per-step kernels on ``device``."""
        threshold = self.threshold
        reach = cull_reach(system.vertices, threshold)
        if self.holds(system, reach):
            self.metrics.inc("contact.skin_reuse")
        else:
            self.metrics.inc("contact.skin_rebuilds")
            self.reference = system.vertices.copy()
            self.offsets = system.offsets.copy()
            self.reach = reach
            self.magnitude = coordinate_magnitude(system.vertices)
            self.pairs_i, self.pairs_j = broad_phase_pairs(
                system.aabbs, threshold + self.skin
            )
            self.rows = None
        i, j = overlapping_pairs(
            system.aabbs, threshold, self.pairs_i, self.pairs_j
        )
        if device is not None:
            record_broad_phase(device, system.n_blocks, i.size)
        plan = self.plan
        if plan is not None and plan.matches(system, i, j):
            self.metrics.inc("contact.candidate_plan_reuse")
        else:
            plan = self.plan = CandidatePlan.build(system, i, j)
            self.rows = None
        if self.rows is None:
            self.rows = cull_rows(
                self.reference, plan, self.reach + self.skin
            ).astype(np.int32)
        return i.size, narrow_phase(
            system, i, j, threshold, device,
            tol=tol, candidates=plan, rows=self.rows, split=self.split,
        )
