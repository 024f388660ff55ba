"""Contact initialisation: per-contact parameter setup.

Sets the penalty stiffnesses and refreshes the geometric parameters of
every contact at the start of a step. The paper provides two versions of
this stage and measures them with Nsight (Section III.A):

* :func:`initialize_contacts_classified` — the proposed framework: one
  uniform kernel per kind (VE / VV1 / VV2), running on the successive
  array segments the classification produced. Warps see uniform data, so
  branch divergence is (nearly) zero.
* :func:`initialize_contacts_unclassified` — the baseline: a single
  kernel that switches on the kind per thread. Functionally identical,
  but warps mix kinds and diverge — this is the 11.18 % divergence /
  ~20 µs case analysis reproduced by the ablation benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.contact.contact_set import ContactSet, VE, VV1, VV2
from repro.core.blocks import BlockSystem
from repro.geometry.distance import point_segment_distance
from repro.gpu.counters import KernelCounters
from repro.gpu.kernel import VirtualDevice
from repro.gpu.memory import coalesced_transactions
from repro.gpu.warp import WARP_SIZE, multiway_divergence_stats
from repro.util.validation import check_positive

#: Flop cost of initialising each kind: T-matrix construction, edge
#: projection/ratio, penalty and parameter setup. VE is the cheapest
#: path; VV kinds re-derive their effective entrance edge (angle tests,
#: adjacent-edge gathers).
_KIND_FLOPS = {VE: 180.0, VV1: 260.0, VV2: 340.0}


def _refresh(system: BlockSystem, contacts: ContactSet, penalty_scale: float) -> None:
    """Every contact's edge ratio from the current vertices, and its
    penalty stiffness: scale x the mean Young's modulus of its two blocks
    (DDA convention: shear penalty = normal penalty). Row by row, so one
    call over the table computes what one call per kind would."""
    v = system.vertices
    contacts.ratio[:] = point_segment_distance(
        v[contacts.vertex_idx], v[contacts.e1_idx], v[contacts.e2_idx]
    )[1]
    young = np.array([m.young for m in system.materials])[system.material_id]
    contacts.pn[:] = contacts.ps[:] = penalty_scale * 0.5 * (
        young[contacts.block_i] + young[contacts.block_j]
    )


def initialize_contacts_classified(
    system: BlockSystem,
    contacts: ContactSet,
    penalty_scale: float,
    device: VirtualDevice | None = None,
) -> ContactSet:
    """Initialise contacts with one uniform kernel per kind.

    Takes a ``ContactSet`` of 1-D per-contact arrays and returns an
    initialised copy of the same shape. Assumes (and exploits) the
    kind-grouped layout the narrow phase produced; each kind's kernel is
    divergence-free.
    """
    check_positive("penalty_scale", penalty_scale)
    out = contacts.copy()
    _refresh(system, out, penalty_scale)
    if device is None:
        return out
    sizes = np.bincount(out.kind, minlength=3).tolist()  # lint: sync-ok[launch-config] -- the host sizes the per-kind launches
    for kind, n in enumerate(sizes):  # VE, VV1, VV2
        if n:  # a modelled launch for a non-empty batch only
            device.launch(
                f"contact_init_{('VE', 'VV1', 'VV2')[kind]}",
                KernelCounters(
                    flops=_KIND_FLOPS[kind] * n,
                    global_bytes_read=n * 10 * 8,
                    global_bytes_written=n * 4 * 8,
                    global_txn_read=coalesced_transactions(n, 80),
                    global_txn_written=coalesced_transactions(n, 32),
                    threads=n,
                    warps=max(1, (n + WARP_SIZE - 1) // WARP_SIZE),
                    # same ~18 conditional regions, all uniform per kernel
                    branch_regions=18.0
                    * max(1, (n + WARP_SIZE - 1) // WARP_SIZE),
                    divergent_branch_regions=0.0,  # uniform data per kernel
                ),
            )
    return out


def initialize_contacts_unclassified(
    system: BlockSystem,
    contacts: ContactSet,
    penalty_scale: float,
    device: VirtualDevice | None = None,
    *,
    shuffle_seed: int | None = None,
) -> ContactSet:
    """Initialise contacts with one divergent do-everything kernel.

    Takes a ``ContactSet`` of 1-D per-contact arrays and returns an
    initialised copy of the same shape. The baseline of the paper's case analysis: a single launch whose
    threads branch on the contact kind. The divergence cost is measured
    from the *actual* kind layout — pass ``shuffle_seed`` to model an
    unsorted contact array (the state before the classification framework
    was introduced).
    """
    check_positive("penalty_scale", penalty_scale)
    out = contacts.copy()
    _refresh(system, out, penalty_scale)
    if device is not None and out.m:
        kinds = out.kind
        if shuffle_seed is not None:
            rng = np.random.default_rng(shuffle_seed)
            kinds = rng.permutation(kinds)
        stats = multiway_divergence_stats(kinds, 3)
        n = out.m
        # every thread pays the maximum path; divergent warps serialize
        per_thread = max(_KIND_FLOPS.values())
        device.launch(
            "contact_init_unclassified",
            KernelCounters(
                flops=per_thread * n,
                wasted_lane_flops=per_thread * stats.wasted_lanes,
                global_bytes_read=n * 10 * 8,
                global_bytes_written=n * 4 * 8,
                global_txn_read=coalesced_transactions(n, 80),
                global_txn_written=coalesced_transactions(n, 32),
                threads=n,
                warps=stats.warps,
                # Nsight counts every conditional region: the init kernel
                # executes ~18 per warp (bounds checks, clamps, parameter
                # switches); only the ~2 kind-dependent ones can diverge.
                branch_regions=float(stats.warps) * 18.0,
                divergent_branch_regions=float(stats.divergent_warps) * 2.0,
            ),
        )
    return out
