"""Stage contracts: toggleable post-condition checks at pipeline seams.

Every stage of the DDA pipeline hands a well-defined artefact to the
next — a contact table, an assembled stiffness matrix, a solution
vector, an open–close state update, updated geometry. A bug (or a
planted defect; see ``tests/engine/test_contracts.py``) in one stage surfaces
many stages later as a mysterious solver breakdown or a drifting block.
This module pins the hand-over invariants down as *contracts* checked at
the stage boundary, so corruption is caught where it enters.

Two levels, wired through ``SimulationControls.contract_level``:

``off``
    No checks (the default; zero overhead).
``full``
    Every contract: O(m)/O(n) vectorised scans (index ranges, dedup,
    finite entries, sign constraints, state-code validity) and the
    cross-checks (contact ownership, the lost-closed-contact scan
    against the previous step's table, true-residual verification of
    the solver's reported convergence, penetration bounds, and polygon
    simplicity after the geometry update). On the brick wall and the
    rocks lap the whole set costs what the scans alone cost, within
    the run-to-run spread (``docs/robustness.md``).

A violated contract raises :class:`ContractViolation` — a *recoverable*
:class:`~repro.engine.resilience.SimulationError`, so the engine's
checkpoint/rollback machinery treats it exactly like any other fatal
step failure. Per-stage violation counts accumulate in
:attr:`StageContracts.violations` and are surfaced on
:class:`~repro.engine.results.SimulationResult`.

A contract stays only while it catches a defect nothing else catches
first: ``tests/engine/test_contracts.py`` plants one per contract and
health guard in a live run, and ``docs/robustness.md`` says what catches
the defects of the deleted ones (the ``ContactSet`` and ``BlockMatrix``
constructors, ``positive_area`` and the ``finite`` health guard).
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from repro.core.state import CONTRACT_LEVELS
from repro.engine.resilience import (
    PENETRATION_FACTOR,
    SimulationError,
    StepContext,
)

#: Residual check: the true relative residual may exceed the
#: solver's reported one by at most this factor.
RESIDUAL_SLACK = 1e3

#: Stage names used in violation bookkeeping (match the module names of
#: the paper's pipeline / the engines' timing regions).
STAGES = (
    "contact_detection",
    "matrix_assembly",
    "equation_solving",
    "interpenetration_checking",
    "data_updating",
    # virtual stage of the domain-decomposed engine's halo transfers:
    # the gathered solution buffer passes the fault seam here;
    # detection happens at the equation_solving contract
    "halo_exchange",
)


class ContractViolation(SimulationError):
    """A stage post-condition failed.

    Attributes
    ----------
    stage:
        Pipeline stage whose output violated its contract (one of
        :data:`STAGES`).
    contract:
        Short machine-readable name of the violated invariant.
    indices:
        Offending row/block indices (possibly empty).
    """

    recoverable: bool = True

    def __init__(
        self,
        stage: str,
        contract: str,
        message: str,
        *,
        indices: Sequence[int] = (),
        context: StepContext | None = None,
    ) -> None:
        idx = list(int(i) for i in indices)
        tail = f" (indices {idx[:8]})" if idx else ""
        super().__init__(f"[{stage}:{contract}] {message}{tail}", context)
        self.stage = stage
        self.contract = contract
        self.indices = idx


class StageContracts:
    """Post-condition checker for the five pipeline stages.

    One instance lives on each engine; ``level`` selects how much is
    verified at every stage boundary. All checks are pure reads — a
    passing check leaves every artefact untouched.
    """

    def __init__(
        self,
        level: str = "off",
        *,
        contact_threshold: float = 0.0,
    ) -> None:
        if level not in CONTRACT_LEVELS:
            raise ValueError(
                f"contract level must be one of {CONTRACT_LEVELS}, got {level!r}"
            )
        self.level = level
        self.contact_threshold = float(contact_threshold)
        #: per-stage violation counts (accumulated across runs; the run
        #: loop diffs against a snapshot to report per-run counts)
        self.violations: Counter[str] = Counter()

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.level != "off"

    def _fail(
        self,
        stage: str,
        contract: str,
        message: str,
        *,
        indices: Sequence[int] = (),
        context: StepContext | None = None,
    ) -> None:
        self.violations[stage] += 1
        raise ContractViolation(
            stage, contract, message, indices=indices, context=context
        )

    # ------------------------------------------------------------------
    # stage 1: contact detection
    # ------------------------------------------------------------------
    def check_contacts(
        self,
        system,
        contacts,
        *,
        previous=None,
        context: StepContext | None = None,
    ) -> None:
        """Contact-table consistency after detection + transfer + init.

        Index ranges, kind/state codes, kinds grouped in VE/VV1/VV2
        order, deduplicated transfer keys, finite non-negative
        penalties, ratio in [0, 1], vertex/edge ownership and the
        lost-closed-contact scan — a previously *closed* VE contact
        whose vertex still sits well inside the detection threshold
        must reappear against the same block (dropping it silently
        loses a spring and the stored contact forces).
        """
        if not self.enabled:
            return
        from repro.assembly.contact_springs import LOCK, OPEN
        from repro.contact.contact_set import VV2

        stage = "contact_detection"
        m = contacts.m
        n = system.n_blocks
        nv = system.vertices.shape[0]
        if m == 0:
            # an empty table still has to answer for contacts it lost
            self._check_lost_closed(system, contacts, previous, context)
            return
        for name in ("block_i", "block_j"):
            arr = getattr(contacts, name)
            bad = np.flatnonzero((arr < 0) | (arr >= n))
            if bad.size:
                self._fail(
                    stage, "block_index_range",
                    f"{name} out of range [0, {n})",
                    indices=bad, context=context,
                )
        for name in ("vertex_idx", "e1_idx", "e2_idx"):
            arr = getattr(contacts, name)
            bad = np.flatnonzero((arr < 0) | (arr >= nv))
            if bad.size:
                self._fail(
                    stage, "vertex_index_range",
                    f"{name} out of range [0, {nv})",
                    indices=bad, context=context,
                )
        bad = np.flatnonzero((contacts.kind < 0) | (contacts.kind > VV2))
        if bad.size:
            self._fail(
                stage, "kind_code", "kind not one of VE/VV1/VV2",
                indices=bad, context=context,
            )
        if np.any(np.diff(contacts.kind) < 0):
            self._fail(
                stage, "kind_grouping",
                "contacts not grouped in VE/VV1/VV2 order "
                "(the classification layout the uniform kernels assume)",
                indices=np.flatnonzero(np.diff(contacts.kind) < 0),
                context=context,
            )
        bad = np.flatnonzero((contacts.state < OPEN) | (contacts.state > LOCK))
        if bad.size:
            self._fail(
                stage, "state_code", "state not one of OPEN/SLIDE/LOCK",
                indices=bad, context=context,
            )
        keys = contacts.keys(nv)
        uniq, counts = np.unique(keys, return_counts=True)
        if uniq.size != m:
            dup_keys = uniq[counts > 1]
            bad = np.flatnonzero(np.isin(keys, dup_keys))
            self._fail(
                stage, "duplicate_contact",
                "duplicate (vertex, e1, e2) transfer keys "
                "(double-counted springs)",
                indices=bad, context=context,
            )
        for name in ("pn", "ps"):
            arr = getattr(contacts, name)
            bad = np.flatnonzero(~np.isfinite(arr) | (arr < 0.0))
            if bad.size:
                self._fail(
                    stage, "penalty_sign",
                    f"{name} must be finite and >= 0",
                    indices=bad, context=context,
                )
        bad = np.flatnonzero(
            ~np.isfinite(contacts.ratio)
            | (contacts.ratio < -1e-12)
            | (contacts.ratio > 1.0 + 1e-12)
        )
        if bad.size:
            self._fail(
                stage, "ratio_range", "edge ratio outside [0, 1]",
                indices=bad, context=context,
            )
        owner = system.block_of_vertex()
        bad = np.flatnonzero(owner[contacts.vertex_idx] != contacts.block_i)
        if bad.size:
            self._fail(
                stage, "vertex_ownership",
                "contact vertex not owned by block_i",
                indices=bad, context=context,
            )
        bad = np.flatnonzero(
            (owner[contacts.e1_idx] != contacts.block_j)
            | (owner[contacts.e2_idx] != contacts.block_j)
        )
        if bad.size:
            self._fail(
                stage, "edge_ownership",
                "contact edge endpoints not owned by block_j",
                indices=bad, context=context,
            )
        self._check_lost_closed(system, contacts, previous, context)

    def _check_lost_closed(self, system, contacts, previous, context) -> None:
        """Closed contacts cannot vanish while still touching."""
        if previous is None or previous.m == 0 or self.contact_threshold <= 0:
            return
        from repro.assembly.contact_springs import OPEN
        from repro.contact.contact_set import VE
        from repro.geometry.distance import point_segment_distance

        cand = np.flatnonzero((previous.state != OPEN) & (previous.kind == VE))
        if cand.size == 0:
            return
        p = system.vertices[previous.vertex_idx[cand]]
        a = system.vertices[previous.e1_idx[cand]]
        b = system.vertices[previous.e2_idx[cand]]
        dist, t = point_segment_distance(p, a, b)
        # well inside the threshold and well away from the edge ends, so
        # neither a legitimate separation nor a nearest-edge/VV
        # reclassification can explain the disappearance
        must_survive = (
            (dist < 0.5 * self.contact_threshold) & (t > 0.15) & (t < 0.85)
        )
        if not must_survive.any():
            return
        new_pairs = set(
            zip(contacts.vertex_idx.tolist(), contacts.block_j.tolist())
        )
        lost = [
            int(cand[k])
            for k in np.flatnonzero(must_survive)
            if (
                int(previous.vertex_idx[cand[k]]),
                int(previous.block_j[cand[k]]),
            )
            not in new_pairs
        ]
        if lost:
            self._fail(
                "contact_detection", "lost_closed_contact",
                "closed contact still within half the detection threshold "
                "vanished from the new contact table",
                indices=lost, context=context,
            )

    # ------------------------------------------------------------------
    # stage 2: matrix assembly
    # ------------------------------------------------------------------
    def check_matrix(self, matrix, *, context: StepContext | None = None) -> None:
        """Assembled-matrix conformance.

        Finite entries, positive diagonal entries of every diagonal
        block (an SPD necessary condition), symmetric diagonal blocks
        (the stored-upper-triangle format makes global symmetry
        equivalent to diagonal-block symmetry). The block structure and
        the off-diagonal coordinates are the constructor's to check.
        """
        if not self.enabled:
            return
        stage = "matrix_assembly"
        d = matrix.diag
        bad = np.flatnonzero(~np.isfinite(d).all(axis=(1, 2)))
        if bad.size:
            self._fail(
                stage, "finite_diag",
                "non-finite entries in diagonal blocks",
                indices=bad, context=context,
            )
        if matrix.blocks.size:
            bad = np.flatnonzero(~np.isfinite(matrix.blocks).all(axis=(1, 2)))
            if bad.size:
                self._fail(
                    stage, "finite_offdiag",
                    "non-finite entries in off-diagonal blocks",
                    indices=bad, context=context,
                )
        diag_entries = np.einsum("kii->ki", d)
        bad = np.flatnonzero((diag_entries <= 0.0).any(axis=1))
        if bad.size:
            self._fail(
                stage, "spd_diagonal",
                "non-positive diagonal entry in a diagonal block "
                "(matrix cannot be SPD)",
                indices=bad, context=context,
            )
        asym = np.abs(d - d.transpose(0, 2, 1)).max(axis=(1, 2))
        scale = np.abs(d).max(axis=(1, 2))
        bad = np.flatnonzero(asym > 1e-8 * np.maximum(scale, 1e-300))
        if bad.size:
            self._fail(
                stage, "symmetry",
                "asymmetric diagonal block (global K loses symmetry; "
                "CG assumes a symmetric operator)",
                indices=bad, context=context,
            )

    # ------------------------------------------------------------------
    # stage 3: equation solving
    # ------------------------------------------------------------------
    def check_solution(
        self,
        matrix,
        rhs: np.ndarray,
        res,
        *,
        context: StepContext | None = None,
    ) -> None:
        """Solution-vector sanity after a *converged* solve.

        Finite solution and finite reported residuals; then the true
        relative residual ``|rhs - K d| / |rhs|`` must lie within
        :data:`RESIDUAL_SLACK` of the reported one — a solver reporting
        convergence on a corrupted solution is exactly the silent
        failure contracts exist to catch.
        """
        if not self.enabled:
            return
        stage = "equation_solving"
        bad = np.flatnonzero(~np.isfinite(res.x))
        if bad.size:
            self._fail(
                stage, "finite_solution",
                "non-finite entries in the solution vector",
                indices=bad, context=context,
            )
        reported = float(res.residuals[-1]) if res.residuals else 0.0
        if not np.isfinite(reported):
            self._fail(
                stage, "finite_residual",
                f"reported residual is {reported}", context=context,
            )
        rhs_norm = float(np.linalg.norm(rhs))
        if rhs_norm == 0.0:
            return
        actual = float(np.linalg.norm(rhs - matrix.matvec(res.x))) / rhs_norm
        bound = RESIDUAL_SLACK * max(reported, 1e-14)
        if actual > bound and actual > 1e-6:
            self._fail(
                stage, "residual_mismatch",
                f"true relative residual {actual:.3e} exceeds "
                f"{RESIDUAL_SLACK:g}x the reported {reported:.3e}",
                context=context,
            )

    # ------------------------------------------------------------------
    # stage 4: interpenetration checking (open–close)
    # ------------------------------------------------------------------
    def check_state_update(
        self,
        contacts,
        update,
        *,
        context: StepContext | None = None,
    ) -> None:
        """Open–close state-update consistency.

        State codes valid, sliding signs in {-1, +1}, normal forces
        finite and non-negative, penetration finite and bounded by
        :data:`~repro.engine.resilience.PENETRATION_FACTOR` times the
        detection threshold (deeper means the spring update lost the
        contact physics).
        """
        if not self.enabled:
            return
        from repro.assembly.contact_springs import LOCK, OPEN

        stage = "interpenetration_checking"
        bad = np.flatnonzero((update.states < OPEN) | (update.states > LOCK))
        if bad.size:
            self._fail(
                stage, "state_code",
                "updated state not one of OPEN/SLIDE/LOCK",
                indices=bad, context=context,
            )
        bad = np.flatnonzero(np.abs(np.abs(update.shear_sign) - 1.0) > 1e-12)
        if bad.size:
            self._fail(
                stage, "shear_sign", "sliding direction must be +-1",
                indices=bad, context=context,
            )
        bad = np.flatnonzero(
            ~np.isfinite(update.normal_force) | (update.normal_force < 0.0)
        )
        if bad.size:
            self._fail(
                stage, "normal_force_sign",
                "contact normal force must be finite and >= 0",
                indices=bad, context=context,
            )
        max_pen = float(update.max_penetration)
        if not np.isfinite(max_pen) or max_pen < 0.0:
            self._fail(
                stage, "finite_penetration",
                f"max penetration is {max_pen}", context=context,
            )
        if (
            self.contact_threshold > 0
            and max_pen > PENETRATION_FACTOR * self.contact_threshold
        ):
            self._fail(
                stage, "penetration_bound",
                f"max penetration {max_pen:.3e} exceeds "
                f"{PENETRATION_FACTOR:g}x the contact threshold",
                context=context,
            )

    # ------------------------------------------------------------------
    # stage 5: data updating
    # ------------------------------------------------------------------
    def check_geometry(
        self, system, *, context: StepContext | None = None
    ) -> None:
        """Geometry sanity after the data-updating stage.

        Strictly positive finite block areas (a sign flip means a block
        inverted; a non-finite vertex makes its area non-finite), and
        every block polygon simple (non-self-intersecting).
        """
        if not self.enabled:
            return
        stage = "data_updating"
        bad = np.flatnonzero(
            ~np.isfinite(system.areas) | (system.areas <= 0.0)
        )
        if bad.size:
            self._fail(
                stage, "positive_area",
                "block area non-positive after update (block inverted "
                "or collapsed)",
                indices=bad, context=context,
            )
        from repro.geometry.tolerances import Tolerances
        from repro.util.validation import non_simple_blocks

        tol = Tolerances.from_points(system.vertices, rel=1e-12)
        bad = np.flatnonzero(
            non_simple_blocks(
                system.vertices, system.offsets, eps_area=tol.eps_area
            )
        )
        if bad.size:
            self._fail(
                stage, "simple_polygon",
                "block polygon self-intersects after update",
                indices=[int(bad[0])], context=context,
            )
