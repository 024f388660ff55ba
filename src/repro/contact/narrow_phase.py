"""Narrow-phase contact detection: distance judgment, angle judgment,
VE / VV1 / VV2 classification.

For every broad-phase pair (A, B) the candidate rows are all (vertex of A,
edge of B) couples in both directions. The pipeline then follows the
paper's two classifications:

1. **distance judgment** — rows whose vertex–segment distance exceeds the
   contact threshold are abandoned; survivors with an interior projection
   are VE candidates, the rest become vertex–vertex (VV) candidates
   against the nearest edge endpoint;
2. **angle judgment** — VV candidates whose corner geometries cannot touch
   are abandoned; survivors split into VV1 (a pair of antiparallel edges —
   effectively vertex-on-edge) and VV2 (true corner–corner), and each VV
   contact is resolved to an *effective entrance edge* of the target block
   so every downstream kernel sees the uniform vertex-vs-edge form.

Each judgment is one vectorised kernel; the classification split uses the
radix-sort partition primitive, and the result table stores the contacts
grouped by kind in successive array segments, exactly as the paper's
framework requires ("valid data will be stored in a successive array").
The split's permutation and priced sort are kept while the kind labels
repeat (:func:`kind_split`); the judgments run every call.

The candidate rows are a pure function of the pair lists and the block
topology, so they are expanded once into a :class:`CandidatePlan` that
the engines keep across steps behind an exact gate
(:meth:`CandidatePlan.matches`). The modelled distance-judgment kernel
still judges every row, as the paper's does; the host measures only the
rows a conservative two-level bounding-box cull (:func:`cull_rows`)
cannot rule out (see :data:`CULL_SLACK_ULPS` for why a culled row can
never be ``near``). A caller may cull once at a wider reach and hand the
kept rows to many calls (:mod:`repro.contact.skin`).

Simplification vs Shi's full narrow phase (documented in DESIGN.md): the
angle judgment uses the antiparallel-edge and entrance-edge rules only;
Shi's additional sector-overlap tests for concave corners are not needed
for the convex blocks the generators produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.contact.contact_set import ContactSet, VV1, VV2
from repro.core.blocks import BlockSystem
from repro.geometry.distance import point_segment_distance
from repro.geometry.tolerances import Tolerances
from repro.gpu.counters import KernelCounters
from repro.gpu.kernel import KeptLaunches, VirtualDevice
from repro.gpu.memory import coalesced_transactions, gather_transactions
from repro.gpu.warp import WARP_SIZE
from repro.primitives.compact import partition_by_label
from repro.primitives.scatter import segment_max, segment_min
from repro.util.validation import check_array, check_positive

#: Projection-parameter band treated as "interior of the edge" for VE.
T_INTERIOR = 0.05

#: Angle tolerance (degrees) for the VV1 antiparallel-edge judgment.
VV1_ANGLE_TOL_DEG = 3.0

#: The cull keeps a row when its vertex lies inside the edge's bounding
#: box inflated by ``reach = threshold + slack``, with ``slack`` this many
#: ulps of ``M + threshold`` (``M`` the largest coordinate magnitude).
#: A culled row cannot pass ``dist < threshold`` *in the arithmetic of*
#: :func:`~repro.geometry.distance.point_segment_distance`. Take the
#: vertex right of the box, ``p_x > fl(hi + reach)`` with
#: ``hi = max(a_x, b_x)``, and ``u = eps / 2``:
#:
#: * ``fl(hi + reach) >= hi + reach - u (M + reach)``;
#: * ``closest = a + t * ab`` with ``t`` clipped to ``[0, 1]`` exactly:
#:   three roundings (``b - a``, ``t * ab``, the sum) move ``closest_x``
#:   at most ``6 u M`` beyond ``hi``;
#: * ``dx = fl(p_x - closest_x)`` loses a factor ``1 - u`` and
#:   ``hypot(dx, dy) >= |dx|`` up to one more ulp,
#:
#: so ``dist >= reach - 7 u M - 4 u reach``, which stays at or above
#: ``threshold`` once ``slack >= 7 u M + 6 u (threshold + slack)``; 16 ulps
#: (``32 u``) of ``M + threshold`` is more than three times that. The
#: other three sides are symmetric, and the block AABB contains every
#: edge box exactly (``min`` / ``max`` do not round), so level 1 only ever
#: drops rows level 2 would drop.
#:
#: The same slack bounds the rounding of the skin gate
#: (:meth:`repro.contact.skin.KeptCandidates.holds`): rows culled at
#: ``R = fl(reach_ref + skin)`` on reference vertices ``v_ref`` keep
#: every row the cull at ``reach`` keeps on ``v``, and pairs found at
#: margin ``fl(threshold + skin)`` on the reference boxes keep every pair
#: found at ``threshold``, while ``2 d + max(reach - reach_ref, 0) +
#: slack < skin`` in floating point, with ``d = max fl(|v - v_ref|)``,
#: ``M`` the larger coordinate magnitude of ``v`` and ``v_ref``, ``T = M
#: + threshold + skin`` and ``slack`` this many ulps of ``T``. In exact
#: arithmetic a vertex and a box side (a ``min`` / ``max`` of vertices)
#: each move at most ``d' = max |v - v_ref| <= d (1 + 2u)``, so a kept
#: test ``p <= fl(hi + reach)`` gives ``p_ref - hi_ref <= reach + 2 d' +
#: u (M + reach)``, and ``p_ref <= fl(hi_ref + R)`` holds once that is
#: at most ``R - u (M + R)``. The roundings add up to ``u (10 M + 4
#: threshold + 2 skin)`` (``2 d' - 2 d <= 8 u M``; the pair test loses
#: less), and evaluating the gate itself at most ``3 u T`` more:
#: ``13 u T``, under the ``32 u T`` of the slack. A NaN makes ``d`` NaN
#: and the gate false.
CULL_SLACK_ULPS = 16


def cull_reach(vertices: np.ndarray, threshold: float) -> float:
    """``threshold`` plus the cull's slack (:data:`CULL_SLACK_ULPS`) at
    the scale of ``vertices``."""
    return threshold + CULL_SLACK_ULPS * np.finfo(np.float64).eps * (
        coordinate_magnitude(vertices) + threshold
    )


def coordinate_magnitude(vertices: np.ndarray) -> float:
    """The largest ``|coordinate|`` of ``vertices``, NaNs left out (so
    one bad vertex does not move the scale everyone else is culled at)."""
    return np.max(np.abs(vertices), where=~np.isnan(vertices), initial=0.0)


def _expand_candidates(
    system: BlockSystem, pairs_i: np.ndarray, pairs_j: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All (vertex, edge) rows for both directions of every pair.

    Returns ``(vblock, eblock, v_idx, e_local, dpair)`` where ``e_local``
    is the edge index within its block and ``dpair`` the directed-pair id.
    """
    counts = np.diff(system.offsets)
    vb = np.concatenate([pairs_i, pairs_j])
    eb = np.concatenate([pairs_j, pairs_i])
    rows = counts[vb] * counts[eb]
    # expansion size is a host-side allocation parameter
    total = int(rows.sum())  # lint: sync-ok[alloc-size] -- expansion size is a host-side allocation parameter
    if total == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z.copy(), z.copy(), z.copy(), z.copy()
    dpair = np.repeat(np.arange(vb.size, dtype=np.int64), rows)
    start = np.zeros(vb.size + 1, dtype=np.int64)
    np.cumsum(rows, out=start[1:])
    local = np.arange(total, dtype=np.int64) - start[dpair]
    n_e = counts[eb][dpair]
    v_local = local // n_e
    e_local = local % n_e
    v_idx = system.offsets[vb][dpair] + v_local
    return vb[dpair], eb[dpair], v_idx, e_local, dpair


def _edge_endpoint_indices(
    system: BlockSystem, eblock: np.ndarray, e_local: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Global indices of CCW edge ``e_local`` of each ``eblock``."""
    counts = np.diff(system.offsets)
    a = system.offsets[eblock] + e_local
    b = system.offsets[eblock] + (e_local + 1) % counts[eblock]
    return a, b


@dataclass(frozen=True)
class CandidatePlan:
    """The candidate rows of one pair list, expanded once.

    A *slot* is one (directed pair, vertex) couple. Its rows — the
    vertex against every edge of the target block, in edge order — are
    consecutive and rows ascend with slots, so the rows of a slot are
    exactly the rows that compete for "nearest edge wins". Row ``r`` of
    slot ``s = slot_of_row[r]`` measures vertex ``slot_vertex[s]``
    against the edge that starts at vertex ``r + edge_shift[s]``. Per
    row the plan keeps those 4 bytes; everything else is per slot, per
    vertex or per pair.

    The plan depends on the pair lists and ``system.offsets`` only, never
    on coordinates: :meth:`matches` compares all three exactly, so a kept
    plan can only cost a rebuild, never a wrong contact table.
    """

    #: what the plan was built for (the gate)
    pairs_i: np.ndarray
    pairs_j: np.ndarray
    offsets: np.ndarray
    #: ``(V,)`` per vertex: its CCW successor and predecessor (edge ``k``
    #: runs from vertex ``k`` to ``next_vertex[k]``) and its block
    next_vertex: np.ndarray
    prev_vertex: np.ndarray
    vertex_block: np.ndarray
    #: ``(S,)`` per slot: global vertex index, the target block, and the
    #: target block's first vertex minus the slot's first row
    slot_vertex: np.ndarray
    slot_eblock: np.ndarray
    edge_shift: np.ndarray
    #: ``(total,)`` per row: the owning slot, int32
    slot_of_row: np.ndarray
    #: number of candidate rows
    total: int
    #: read transactions of the distance-judgment kernel's three gathers
    #: (vertex, edge start, edge end) over all ``total`` rows
    txn_read: float

    @classmethod
    def build(
        cls, system: BlockSystem, pairs_i: np.ndarray, pairs_j: np.ndarray
    ) -> "CandidatePlan":
        """Validate the pair lists and expand their candidate rows.

        Raises :class:`ValueError` naming the first offending pair when
        an id lies outside ``0 <= i < j < n_blocks`` or a pair repeats
        (a repeated pair would double its contacts).
        """
        pairs_i = check_array("pairs_i", pairs_i, dtype=np.int64, ndim=1)
        pairs_j = check_array(
            "pairs_j", pairs_j, dtype=np.int64, shape=(pairs_i.shape[0],)
        )
        n = system.n_blocks
        key = pairs_i * np.int64(n) + pairs_j
        order = np.argsort(key, kind="stable")
        repeats = np.zeros(key.size, dtype=bool)
        repeats[order[1:]] = key[order[1:]] == key[order[:-1]]
        bad = np.flatnonzero(
            (pairs_i < 0) | (pairs_i >= pairs_j) | (pairs_j >= n) | repeats
        )
        if bad.size:  # lint: sync-ok[input-validation] -- pair lists are rejected on the host, once per plan
            k = bad[0]
            raise ValueError(
                f"pair {k} is ({pairs_i[k]}, {pairs_j[k]}): block ids must "
                f"satisfy 0 <= i < j < n_blocks = {n} and no pair may repeat"
            )
        offsets = system.offsets
        next_vertex = np.arange(1, offsets[-1] + 1, dtype=np.int64)
        next_vertex[offsets[1:] - 1] = offsets[:-1]
        prev_vertex = np.empty_like(next_vertex)
        prev_vertex[next_vertex] = np.arange(next_vertex.size)
        _, eblock, v_idx, e_local, _ = _expand_candidates(
            system, pairs_i, pairs_j
        )
        total = v_idx.size
        a_idx, b_idx = _edge_endpoint_indices(system, eblock, e_local)
        txn_read = (
            float(gather_transactions(v_idx, 16))
            + float(gather_transactions(a_idx, 16))
            + float(gather_transactions(b_idx, 16))
        )
        # a slot's rows are consecutive: it opens wherever edge 0 comes up
        is_open = e_local == 0
        opens = np.flatnonzero(is_open)
        slot_eblock = eblock[opens]
        # the plan outlives the step, so its one per-row array is as
        # narrow as its range allows: 4 bytes a row
        slot_of_row = (np.cumsum(is_open) - 1).astype(np.int32)
        return cls(
            pairs_i=pairs_i.copy(),
            pairs_j=pairs_j.copy(),
            offsets=offsets.copy(),
            next_vertex=next_vertex,
            prev_vertex=prev_vertex,
            vertex_block=system.block_of_vertex(),
            slot_vertex=v_idx[opens],
            slot_eblock=slot_eblock,
            edge_shift=offsets[slot_eblock] - opens,
            slot_of_row=slot_of_row,
            total=total,
            txn_read=txn_read,
        )

    def matches(
        self, system: BlockSystem, pairs_i: np.ndarray, pairs_j: np.ndarray
    ) -> bool:
        """Exact gate: the same pair lists over the same block topology.

        Three integer array comparisons, and *total* — the rows are a
        function of nothing else, and the lists the plan holds were
        validated when it was built, so a hit needs no second look.
        """
        return bool(
            np.array_equal(pairs_i, self.pairs_i)
            and np.array_equal(pairs_j, self.pairs_j)
            and np.array_equal(system.offsets, self.offsets)
        )


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal ``keys``."""
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return first


def _inside(p: np.ndarray, box: np.ndarray) -> np.ndarray:
    """Rows of ``(N, 2)`` points inside their ``(N, 4)`` boxes
    ``(x_lo, y_lo, x_hi, y_hi)``, borders included. A NaN on either
    side reads as outside."""
    x, y = p[:, 0], p[:, 1]
    return (
        (x >= box[:, 0]) & (y >= box[:, 1])
        & (x <= box[:, 2]) & (y <= box[:, 3])
    )


def _angle_between(
    d1: np.ndarray,
    d2: np.ndarray,
    floor: float = 1e-300,
    norms: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Angle in radians between paired direction vectors (rows).

    Pairs whose norm product falls below ``floor`` (degenerate direction
    from coincident vertices) return ``pi/2`` — maximally non-parallel,
    so they can never pass an antiparallel-edge judgment. ``norms`` are
    the rows' ``(|d1|, |d2|)`` when the caller already has them.
    """
    if norms is None:
        norms = np.linalg.norm(d1, axis=1), np.linalg.norm(d2, axis=1)
    prod = norms[0] * norms[1]
    cosv = np.einsum("ij,ij->i", d1, d2) / np.maximum(prod, floor)
    cosv = np.where(prod <= floor, 0.0, cosv)
    return np.arccos(np.clip(cosv, -1.0, 1.0))


def cull_rows(
    vertices: np.ndarray, plan: CandidatePlan, reach: float
) -> np.ndarray:
    """The rows of ``plan`` whose vertex lies within ``reach`` of the
    target block's box (level 1, one test per slot) and of its own
    edge's box (level 2), ascending.

    NaN coordinates are kept out of the block boxes, so one bad vertex
    culls only its own rows, as its NaN distance does.
    """
    known = ~np.isnan(vertices)
    box = np.concatenate(
        [
            segment_min(np.where(known, vertices, np.inf), plan.offsets[:-1])
            - reach,
            segment_max(np.where(known, vertices, -np.inf), plan.offsets[:-1])
            + reach,
        ],
        axis=1,
    )
    p_slot = vertices[plan.slot_vertex]
    slot_in = _inside(p_slot, box[plan.slot_eblock])
    rows = np.flatnonzero(slot_in[plan.slot_of_row])
    p_next = vertices[plan.next_vertex]
    edge_box = np.concatenate(
        [
            np.minimum(vertices, p_next) - reach,
            np.maximum(vertices, p_next) + reach,
        ],
        axis=1,
    )
    slot = plan.slot_of_row[rows]
    edge_in = _inside(p_slot[slot], edge_box[rows + plan.edge_shift[slot]])
    return rows[edge_in]


def kind_split(kind: np.ndarray, device: VirtualDevice | None, kept=None) -> np.ndarray:
    """The permutation grouping ``kind`` VE, VV1, VV2 (int32), reused from
    ``kept`` while the labels (kept as int32), device and region repeat."""
    return (kept or KeptLaunches()).run(
        device, lambda: partition_by_label(kind, 3, device)[0].astype(np.int32),
        kind.astype(np.int32),
    )


def narrow_phase(
    system: BlockSystem,
    pairs_i: np.ndarray,
    pairs_j: np.ndarray,
    threshold: float,
    device: VirtualDevice | None = None,
    *,
    tol: Tolerances | None = None,
    candidates: CandidatePlan | None = None,
    rows: np.ndarray | None = None,
    split: KeptLaunches | None = None,
) -> ContactSet:
    """Detect and classify contacts for the given broad-phase pairs.

    Parameters
    ----------
    system:
        The block system (current geometry).
    pairs_i, pairs_j:
        Broad-phase survivor pairs, ``0 <= i < j < n_blocks``, no pair
        twice (:class:`ValueError` otherwise).
    threshold:
        Contact distance ``rho``: candidates farther than this are
        abandoned.
    device:
        Optional virtual device for the kernel cost ledger.
    tol:
        Scale-relative tolerances for degeneracy judgments (zero-length
        edges, coincident vertices). Derived from the system's bounding
        box when omitted.
    candidates:
        The :class:`CandidatePlan` of these pair lists, when the caller
        kept one (the engines do, across steps); built on the spot when
        omitted. A plan built for other lists is a :class:`ValueError`.
    rows:
        Ascending rows of ``candidates`` to measure, a superset of the
        rows :func:`cull_rows` keeps at :func:`cull_reach` (a cull at a
        wider reach, kept across steps); that cull when omitted.
    split:
        The kind split kept across calls (:func:`kind_split`).

    The distance judgment is charged for every candidate row — the
    modelled kernel judges them all — while the host gathers and measures
    only the rows that survive two bounding-box tests at
    ``reach = threshold + slack`` (:data:`CULL_SLACK_ULPS`): the vertex
    against the target block's box, one test per slot, then against its
    own edge's box. Neither test can drop a row the judgment would keep,
    so the table, and every ledger record, is the un-culled one's.

    Returns
    -------
    ContactSet
        Contacts grouped by kind (all VE rows first, then VV1, then VV2),
        with edges stored outside-positive (reversed CCW) and fresh OPEN
        states (use :func:`repro.contact.transfer.transfer_contacts` to
        inherit the previous step's states).
    """
    check_positive("threshold", threshold)
    if candidates is None:
        candidates = CandidatePlan.build(system, pairs_i, pairs_j)
    elif not candidates.matches(system, pairs_i, pairs_j):
        raise ValueError(
            "candidates was built for other pair lists or another block "
            "topology; rebuild it with CandidatePlan.build"
        )
    plan = candidates
    if tol is None:
        tol = Tolerances.from_points(system.vertices)
    eps_len = tol.eps_length
    total = plan.total
    if total == 0:
        return ContactSet.empty()

    verts = system.vertices
    nxt = plan.next_vertex
    if rows is None:
        rows = cull_rows(verts, plan, cull_reach(verts, threshold))
    slot = plan.slot_of_row[rows]
    a_idx = rows + plan.edge_shift[slot]

    # ---- distance judgment (kernel 1) -------------------------------
    pa = verts[a_idx]
    pb = verts[nxt[a_idx]]
    dist, t = point_segment_distance(verts[plan.slot_vertex[slot]], pa, pb)
    # zero-length edges (coincident consecutive vertices) can never be a
    # contact entrance edge; abandon those candidates outright
    edge_len = np.hypot(pb[:, 0] - pa[:, 0], pb[:, 1] - pa[:, 1])
    near = (dist < threshold) & (edge_len > eps_len)
    n_near = int(np.count_nonzero(near))  # lint: sync-ok[empty-batch] -- the near count prices the launch and decides the early-out
    if device is not None:
        device.launch(
            "narrow_distance_judgment",
            KernelCounters(
                flops=14.0 * total,
                global_bytes_read=total * 6 * 8,
                global_bytes_written=total * 2 * 8,
                global_txn_read=plan.txn_read,
                global_txn_written=coalesced_transactions(total, 16),
                threads=total,
                warps=max(1, total // WARP_SIZE),
                branch_regions=max(1, total // WARP_SIZE),
                # a sum of 0/1 is exact: this is near.mean() over all rows
                divergent_branch_regions=max(1, total // WARP_SIZE)
                * min(1.0, 2.0 * (n_near / total)),
            ),
        )
    if n_near == 0:
        return ContactSet.empty()

    # ---- one contact per slot (directed pair, vertex): nearest edge
    # wins, ties to the lowest edge. Survivors ascend by row, hence by
    # slot: a slot's survivors are one run, and its winner is the first
    # row of the run at the run's minimum -------------------------------
    keep = np.flatnonzero(near)
    slot_k, dist_k = slot[keep], dist[keep]
    runs = np.flatnonzero(_run_starts(slot_k))
    nearest = segment_min(dist_k, runs)
    at_min = np.flatnonzero(
        dist_k == np.repeat(nearest, np.diff(runs, append=keep.size))
    )
    # cull -> near -> winner, composed before any column is gathered
    best = keep[at_min[_run_starts(slot_k[at_min])]]

    slot = slot[best]
    v_idx, eblock = plan.slot_vertex[slot], plan.slot_eblock[slot]
    vblock = plan.vertex_block[v_idx]
    a_idx = a_idx[best]
    b_idx = nxt[a_idx]
    t = t[best]
    m = v_idx.size

    interior = (t > T_INTERIOR) & (t < 1.0 - T_INTERIOR)

    # ---- angle judgment / VV resolution (kernel 2) -------------------
    # VV candidates: resolve against the nearest endpoint's two edges.
    vv = np.flatnonzero(~interior)
    kind = np.zeros(m, dtype=np.int64)
    # effective (CCW) edge endpoints; start with the VE edge
    eff_a, eff_b = a_idx.copy(), b_idx.copy()
    drop = np.zeros(m, dtype=bool)
    if vv.size:  # lint: sync-ok[empty-batch] -- vertex-vertex fixup only for non-empty selections
        w_idx = np.where(t[vv] < 0.5, a_idx[vv], b_idx[vv])
        w_prev, w_next = plan.prev_vertex[w_idx], nxt[w_idx]
        v_prev, v_next = plan.prev_vertex[v_idx[vv]], nxt[v_idx[vv]]
        pw = verts[w_idx]
        pv = verts[v_idx[vv]]
        # candidate edges of B at w (CCW): incoming (w_prev -> w),
        # outgoing (w -> w_next)
        d_in = pw - verts[w_prev]
        d_out = verts[w_next] - pw
        # edges of A at v
        dv_in = pv - verts[v_prev]
        dv_out = verts[v_next] - pv
        # VV1 judgment: any A-edge antiparallel to any B-edge; degenerate
        # directions (coincident adjacent vertices) read as pi/2, never VV1
        angle_floor = eps_len * eps_len
        ang_tol = math.radians(VV1_ANGLE_TOL_DEG)
        # four directions, four norms: negation is exact, |-d| = |d|
        n_in, n_out, nv_in, nv_out = (
            np.linalg.norm(d, axis=1) for d in (d_in, d_out, dv_in, dv_out)
        )
        neg_in, neg_out = -d_in, -d_out
        ang = np.stack(
            [
                _angle_between(dv_in, neg_in, angle_floor, (nv_in, n_in)),
                _angle_between(dv_in, neg_out, angle_floor, (nv_in, n_out)),
                _angle_between(dv_out, neg_in, angle_floor, (nv_out, n_in)),
                _angle_between(dv_out, neg_out, angle_floor, (nv_out, n_out)),
            ],
            axis=1,
        )
        best_combo = np.argmin(ang, axis=1)
        is_vv1 = ang[np.arange(vv.size), best_combo] < ang_tol
        # entrance-edge selection: signed outside distance of v against
        # each candidate edge (outside-positive = right of the CCW edge)
        def outside(p, q1, q2):
            cross = (q2[:, 0] - q1[:, 0]) * (p[:, 1] - q1[:, 1]) - (
                q2[:, 1] - q1[:, 1]
            ) * (p[:, 0] - q1[:, 0])
            ln = np.hypot(q2[:, 0] - q1[:, 0], q2[:, 1] - q1[:, 1])
            return -cross / np.maximum(ln, eps_len)

        out_in = outside(pv, verts[w_prev], pw)
        out_out = outside(pv, pw, verts[w_next])
        # VV1: the B edge antiparallel to the matched A edge
        # (combos 0, 1 matched dv_in against d_in / d_out respectively)
        vv1_edge_is_in = np.isin(best_combo, (0, 2))
        # VV2: the edge the vertex is most outside of (entrance edge)
        vv2_edge_is_in = out_in >= out_out
        use_in = np.where(is_vv1, vv1_edge_is_in, vv2_edge_is_in)
        eff_a[vv] = np.where(use_in, w_prev, w_idx)
        eff_b[vv] = np.where(use_in, w_idx, w_next)
        kind[vv] = np.where(is_vv1, VV1, VV2)
        # angle-judgment abandon: the vertex is far outside both candidate
        # edges (no contact possible within the threshold)
        drop[vv] = np.maximum(out_in, out_out) > threshold
        # abandon VV contacts whose resolved entrance edge is degenerate
        # (zero length): downstream spring kernels need a real direction
        eff_len = np.hypot(
            verts[eff_b[vv]][:, 0] - verts[eff_a[vv]][:, 0],
            verts[eff_b[vv]][:, 1] - verts[eff_a[vv]][:, 1],
        )
        drop[vv] |= eff_len <= eps_len
        # dedupe corner-corner (VV2) duplicates found from both directions:
        # keep the orientation with the smaller vertex-block id. VV1 rows
        # are kept in both directions — edge-on-edge contact genuinely
        # carries two contact points (one per facing corner), as in DDA.
        drop[vv] |= (vblock[vv] > eblock[vv]) & ~is_vv1
    if device is not None:
        device.launch(
            "narrow_angle_judgment",
            KernelCounters(
                flops=40.0 * max(1, vv.size),
                global_bytes_read=vv.size * 12 * 8,
                global_bytes_written=vv.size * 4 * 8,
                global_txn_read=float(
                    gather_transactions(v_idx[vv], 16)
                )
                * 3.0
                if vv.size
                else 0.0,
                global_txn_written=coalesced_transactions(vv.size, 32),
                threads=max(1, vv.size),
                warps=max(1, vv.size // WARP_SIZE),
                branch_regions=2.0 * max(1, vv.size // WARP_SIZE),
                divergent_branch_regions=float(max(1, vv.size // WARP_SIZE)),
            ),
        )

    keep2 = ~drop
    vblock, eblock, v_idx = vblock[keep2], eblock[keep2], v_idx[keep2]
    eff_a, eff_b, kind = eff_a[keep2], eff_b[keep2], kind[keep2]
    m = v_idx.size
    if m == 0:
        return ContactSet.empty()

    # ratio along the *reversed* (outside-positive) edge E1=b, E2=a
    pa2, pb2 = verts[eff_a], verts[eff_b]
    _, t_ccw = point_segment_distance(verts[v_idx], pa2, pb2)
    ratio = 1.0 - t_ccw

    # ---- third step of the framework: group by kind ------------------
    perm = kind_split(kind, device, split)
    return ContactSet(
        block_i=vblock[perm],
        block_j=eblock[perm],
        vertex_idx=v_idx[perm],
        e1_idx=eff_b[perm],  # reversed orientation: outside-positive
        e2_idx=eff_a[perm],
        kind=kind[perm],
        ratio=ratio[perm],
    )
