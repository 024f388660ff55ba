"""Reference implementation the narrow-phase tests compare against.

:func:`narrow_phase_oracle` is the narrow phase as it stood before the
candidate plan and the two-level cull (commit 6b30bd1): every call
expands every (vertex, edge) row of every pair, gathers all of them and
runs the point-segment kernel on all of them. No engine runs it; it is
kept, unedited but for the name, as the independent implementation the
culling narrow phase is held to bit for bit — every ``ContactSet``
column and every ledger record (``tests/contact/test_candidate_plan.py``).
It does not validate its pair lists: a repeated pair doubles its
contacts and an out-of-range id is an ``IndexError`` from a fancy
index, which is what ``CandidatePlan.build`` now rejects up front.
"""

from __future__ import annotations

import math

import numpy as np

from repro.contact.contact_set import ContactSet, VV1, VV2
from repro.core.blocks import BlockSystem
from repro.geometry.distance import point_segment_distance
from repro.geometry.tolerances import Tolerances
from repro.gpu.counters import KernelCounters
from repro.gpu.kernel import VirtualDevice
from repro.gpu.memory import coalesced_transactions, gather_transactions
from repro.gpu.warp import WARP_SIZE
from repro.primitives.compact import partition_by_label
from repro.util.validation import check_array, check_positive

#: Projection-parameter band treated as "interior of the edge" for VE.
T_INTERIOR = 0.05

#: Angle tolerance (degrees) for the VV1 antiparallel-edge judgment.
VV1_ANGLE_TOL_DEG = 3.0


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


def _adjacent_vertex_indices(
    system: BlockSystem, v_idx: np.ndarray, vblock: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Global indices of each vertex's CCW predecessor and successor."""
    counts = np.diff(system.offsets)
    off = system.offsets[vblock]
    local = v_idx - off
    prev = off + (local - 1) % counts[vblock]
    nxt = off + (local + 1) % counts[vblock]
    return prev, nxt


def _angle_between(
    d1: np.ndarray, d2: np.ndarray, floor: float = 1e-300
) -> np.ndarray:
    """Angle in radians between paired direction vectors (rows).

    Pairs whose norm product falls below ``floor`` (degenerate direction
    from coincident vertices) return ``pi/2`` — maximally non-parallel,
    so they can never pass an antiparallel-edge judgment.
    """
    n1 = np.linalg.norm(d1, axis=1)
    n2 = np.linalg.norm(d2, axis=1)
    prod = n1 * n2
    cosv = np.einsum("ij,ij->i", d1, d2) / np.maximum(prod, floor)
    cosv = np.where(prod <= floor, 0.0, cosv)
    return np.arccos(np.clip(cosv, -1.0, 1.0))


def narrow_phase_oracle(
    system: BlockSystem,
    pairs_i: np.ndarray,
    pairs_j: np.ndarray,
    threshold: float,
    device: VirtualDevice | None = None,
    *,
    vv1_angle_tol_deg: float = VV1_ANGLE_TOL_DEG,
    tol: Tolerances | None = None,
) -> ContactSet:
    """Detect and classify contacts for the given broad-phase pairs.

    Parameters
    ----------
    system:
        The block system (current geometry).
    pairs_i, pairs_j:
        Broad-phase survivor pairs, ``i < j``.
    threshold:
        Contact distance ``rho``: candidates farther than this are
        abandoned.
    device:
        Optional virtual device for the kernel cost ledger.
    tol:
        Scale-relative tolerances for degeneracy judgments (zero-length
        edges, coincident vertices). Derived from the system's bounding
        box when omitted.

    Returns
    -------
    ContactSet
        Contacts grouped by kind (all VE rows first, then VV1, then VV2),
        with edges stored outside-positive (reversed CCW) and fresh OPEN
        states (use :func:`repro.contact.transfer.transfer_contacts` to
        inherit the previous step's states).
    """
    check_positive("threshold", threshold)
    pairs_i = check_array("pairs_i", pairs_i, dtype=np.int64, ndim=1)
    pairs_j = check_array("pairs_j", pairs_j, dtype=np.int64, shape=(pairs_i.shape[0],))
    if tol is None:
        tol = Tolerances.from_points(system.vertices)
    eps_len = tol.eps_length
    vblock, eblock, v_idx, e_local, dpair = _expand_candidates(
        system, pairs_i, pairs_j
    )
    total = v_idx.size
    if total == 0:
        return ContactSet.empty()

    a_idx, b_idx = _edge_endpoint_indices(system, eblock, e_local)
    verts = system.vertices
    p1 = verts[v_idx]
    pa = verts[a_idx]
    pb = verts[b_idx]

    # ---- distance judgment (kernel 1) -------------------------------
    dist, t = point_segment_distance(p1, pa, pb)
    # zero-length edges (coincident consecutive vertices) can never be a
    # contact entrance edge; abandon those candidates outright
    edge_len = np.hypot(pb[:, 0] - pa[:, 0], pb[:, 1] - pa[:, 1])
    near = (dist < threshold) & (edge_len > eps_len)
    if device is not None:
        device.launch(
            "narrow_distance_judgment",
            KernelCounters(
                flops=14.0 * total,
                global_bytes_read=total * 6 * 8,
                global_bytes_written=total * 2 * 8,
                global_txn_read=float(gather_transactions(v_idx, 16))
                + float(gather_transactions(a_idx, 16))
                + float(gather_transactions(b_idx, 16)),
                global_txn_written=coalesced_transactions(total, 16),
                threads=total,
                warps=max(1, total // WARP_SIZE),
                branch_regions=max(1, total // WARP_SIZE),
                divergent_branch_regions=max(1, total // WARP_SIZE)
                * min(1.0, 2.0 * float(near.mean())),
            ),
        )
    keep = np.flatnonzero(near)
    if keep.size == 0:  # lint: sync-ok[empty-batch] -- early-out when no candidate pairs survive
        return ContactSet.empty()
    vblock, eblock, v_idx = vblock[keep], eblock[keep], v_idx[keep]
    e_local, dpair = e_local[keep], dpair[keep]
    a_idx, b_idx = a_idx[keep], b_idx[keep]
    dist, t = dist[keep], t[keep]

    # ---- one contact per (directed pair, vertex): nearest edge wins --
    group = dpair * np.int64(verts.shape[0]) + v_idx
    order = np.lexsort((dist, group))
    g_sorted = group[order]
    first = np.ones(g_sorted.size, dtype=bool)
    first[1:] = g_sorted[1:] != g_sorted[:-1]
    best = order[first]

    vblock, eblock, v_idx = vblock[best], eblock[best], v_idx[best]
    e_local = e_local[best]
    a_idx, b_idx = a_idx[best], b_idx[best]
    dist, t = dist[best], t[best]
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
        w_prev, w_next = _adjacent_vertex_indices(system, w_idx, eblock[vv])
        v_prev, v_next = _adjacent_vertex_indices(system, v_idx[vv], vblock[vv])
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
        ang_tol = math.radians(vv1_angle_tol_deg)
        ang = np.stack(
            [
                _angle_between(dv_in, -d_in, angle_floor),
                _angle_between(dv_in, -d_out, angle_floor),
                _angle_between(dv_out, -d_in, angle_floor),
                _angle_between(dv_out, -d_out, angle_floor),
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

    contacts = ContactSet(
        block_i=vblock,
        block_j=eblock,
        vertex_idx=v_idx,
        e1_idx=eff_b,  # reversed orientation: outside-positive
        e2_idx=eff_a,
        kind=kind,
        ratio=ratio,
    )
    # ---- third step of the framework: group by kind ------------------
    perm, _ = partition_by_label(contacts.kind, 3, device)
    return contacts.select(perm)
