"""Ownership maps, ghost lists, and the metered halo exchange.

The distributed solve keeps one DOF segment per domain (the blocks that
domain owns, in ascending global order). Every stored off-diagonal
entry ``(i, j)`` of the global matrix couples two blocks; when they
live in different domains each side needs the other's DOF during SpMV,
so those blocks become *ghosts*: replicated read-only copies refreshed
by one halo exchange per CG iteration.

All data movement between the per-domain
:class:`~repro.gpu.kernel.VirtualDevice` ledgers is metered through
``pcie_*`` kernel launches on a dedicated transfer profile (the same
idiom as the hybrid engine's host<->device transfers), and the byte
totals accumulate into the ``domain.halo_bytes`` metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.assembly.global_matrix import BS
from repro.gpu.counters import KernelCounters
from repro.gpu.device import DeviceProfile
from repro.gpu.kernel import RoutedVirtualDevice

#: Effective PCIe 3.0 x16 bandwidth per direction, bytes/s.
PCIE_BANDWIDTH = 12e9

#: One-way PCIe/NVLink-free transfer latency, seconds.
PCIE_LATENCY = 8e-6

#: Inter-device transfer profile: PCIe 3.0 x16 peer-to-peer.
TRANSFER = DeviceProfile(
    name="PCIe 3.0 x16 P2P",
    kind="gpu",
    peak_flops_dp=1e18,      # transfers do no arithmetic
    mem_bandwidth=PCIE_BANDWIDTH,
    shared_throughput=0.0,
    texture_bandwidth=PCIE_BANDWIDTH,
    transaction_bytes=128,
    launch_overhead=PCIE_LATENCY,
    warp_size=1,
    num_sms=1,
    efficiency=1.0,
)


def make_domain_devices(n_domains: int, profile: DeviceProfile) -> list:
    """One routed device per domain (scalar count ``n_domains``).

    ``pcie_*`` launches are priced on :data:`TRANSFER`; everything else
    on the domain's compute ``profile``.
    """
    return [
        RoutedVirtualDevice(profile, routes={"pcie_": TRANSFER})
        for _ in range(n_domains)
    ]


@dataclass(frozen=True)
class DomainMap:
    """Block ownership across domains.

    Attributes
    ----------
    labels:
        ``(n_blocks,)`` int64 owning domain per block.
    n_domains:
        Domain count (scalar).
    owned:
        Per-domain ``(n_d,)`` ascending global block ids.
    local:
        ``(n_blocks,)`` local index of each block within its owner.
    """

    labels: np.ndarray
    n_domains: int
    owned: tuple
    local: np.ndarray

    @classmethod
    def from_labels(cls, labels: np.ndarray, n_domains: int) -> "DomainMap":
        """Build the map from ``(n_blocks,)`` labels."""
        owned = tuple(
            np.flatnonzero(labels == d) for d in range(n_domains)
        )
        local = np.empty(labels.size, dtype=np.int64)
        for d in range(n_domains):
            local[owned[d]] = np.arange(owned[d].size, dtype=np.int64)
        return cls(labels, n_domains, owned, local)


@dataclass(frozen=True)
class ExchangePlan:
    """Ghost lists and send lists for one matrix sparsity pattern.

    Attributes
    ----------
    ghosts:
        Per-domain sorted ``(g_d,)`` global ids of ghost blocks.
    slots:
        Per-domain ``(n_blocks,)`` map from global block id to the slot
        in that domain's extended vector (owned first, then ghosts;
        ``-1`` where absent).
    sends:
        Directed transfers ``(src, dst, (k,) global ids)`` — the owned
        blocks ``src`` ships to ``dst`` every exchange.
    """

    ghosts: tuple
    slots: tuple
    sends: tuple


def build_exchange_plan(
    dmap: DomainMap, rows: np.ndarray, cols: np.ndarray
) -> ExchangePlan:
    """Plan the exchange for ``(m,)`` off-diagonal coordinate arrays.

    A domain's ghosts are the off-domain partners of its owned blocks
    over the stored entries: the up-phase SpMV reads ``x[col]`` for
    owned rows, the low-phase reads ``x[row]`` for owned cols.
    """
    labels = dmap.labels
    row_lab = labels[rows] if rows.size else rows
    col_lab = labels[cols] if cols.size else cols
    ghosts, slots, sends = [], [], []
    for d in range(dmap.n_domains):
        if rows.size:
            need = np.concatenate([
                cols[(row_lab == d) & (col_lab != d)],
                rows[(col_lab == d) & (row_lab != d)],
            ])
        else:
            need = np.empty(0, dtype=np.int64)
        ghost = np.unique(need)
        own = dmap.owned[d]
        slot = np.full(labels.size, -1, dtype=np.int64)
        slot[own] = np.arange(own.size, dtype=np.int64)
        slot[ghost] = own.size + np.arange(ghost.size, dtype=np.int64)
        ghosts.append(ghost)
        slots.append(slot)
        ghost_lab = labels[ghost]
        for src in range(dmap.n_domains):
            ids = ghost[ghost_lab == src] if ghost.size else ghost  # lint: sync-ok[empty-batch] -- per-source ghost selection, empty exchange skipped
            if ids.size:
                sends.append((src, d, ids))
    return ExchangePlan(tuple(ghosts), tuple(slots), tuple(sends))


def ghost_contacts(
    dmap: DomainMap, block_i: np.ndarray, block_j: np.ndarray
) -> tuple[tuple, int]:
    """Per-domain contact lists with cut contacts duplicated.

    ``block_i``/``block_j`` are the ``(m,)`` contact endpoints. Returns
    ``(per_domain, n_cut)``: ``per_domain[d]`` holds the ascending
    indices of contacts touching domain ``d`` (a contact crossing a
    boundary appears on both owners — the ghost-contact duplication the
    projection charges for), and ``n_cut`` is the scalar count of
    crossing contacts.
    """
    lab_i = dmap.labels[block_i]
    lab_j = dmap.labels[block_j]
    per_domain = tuple(
        np.flatnonzero((lab_i == d) | (lab_j == d))
        for d in range(dmap.n_domains)
    )
    n_cut = int(np.count_nonzero(lab_i != lab_j))  # lint: sync-ok[partition-stats] -- scalar partition statistic
    return per_domain, n_cut


@dataclass
class HaloExchanger:
    """Moves boundary DOF segments between per-domain devices.

    Owns the per-solve communication: ``scatter`` splits a global
    ``(n_dof,)`` vector into per-domain owned segments, ``exchange``
    refreshes ghost values (one call per CG iteration), ``gather``
    collects owned segments back into global order, and ``allreduce``
    meters the latency-bound scalar reductions. With one domain no
    transfer is charged (the data never leaves the device). ``inject``
    is the chaos hook applied to the gathered solution buffer.

    Everything an exchange or an all-reduce charges depends on the plan
    alone, so it is priced here, once: per device the ``pcie_allreduce``
    record and the ``pcie_halo_send`` / ``pcie_halo_recv`` records in
    ``plan.sends`` order, the exchange's byte total, and per send the
    source rows and target slots. The calls then only record.
    """

    dmap: DomainMap
    plan: ExchangePlan
    devices: list
    metrics: object = None
    inject: object = None
    _dof: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n_domains = self.dmap.n_domains
        self._dof = tuple(
            (self.dmap.owned[d][:, None] * BS
             + np.arange(BS, dtype=np.int64)).reshape(-1)
            for d in range(n_domains)
        )
        self._allreduce = [self._price(d, "pcie_allreduce", 8.0)
                           for d in range(n_domains)]
        self._exchange: list[list] = [[] for _ in range(n_domains)]
        self._moves: list[tuple] = []
        self._halo_bytes = 0.0
        for src, dst, ids in self.plan.sends:
            nbytes = float(ids.size * BS * 8)
            self._exchange[src] += self._price(src, "pcie_halo_send", nbytes)
            self._exchange[dst] += self._price(dst, "pcie_halo_recv", nbytes)
            self._halo_bytes += nbytes
            self._moves.append(
                (src, self.dmap.local[ids], dst, self.plan.slots[dst][ids])
            )

    # ------------------------------------------------------------------
    def _price(self, d: int, name: str, nbytes: float) -> tuple:
        """Device ``d``'s ledger entry for one ``nbytes`` transfer, priced
        (a 0- or 1-tuple for :meth:`VirtualDevice.record`)."""
        if self.dmap.n_domains == 1:
            return ()  # a single device: nothing crosses a PCIe boundary
        return (self.devices[d].price(
            name,
            KernelCounters(
                global_bytes_read=float(nbytes),
                global_txn_read=float(nbytes) / 128.0,
            ),
            module="halo_exchange",
        ),)

    # ------------------------------------------------------------------
    def scatter(self, x: np.ndarray) -> list:
        """Split ``(n_dof,)`` into per-domain owned ``(n_d*6,)`` segments."""
        segments = []
        for d in range(self.dmap.n_domains):
            seg = x[self._dof[d]]
            self.devices[d].record(
                self._price(d, "pcie_scatter_owned", seg.nbytes)
            )
            segments.append(seg)
        return segments

    def gather(self, segments: list, *, solution: bool = False) -> np.ndarray:
        """Collect owned segments into the ``(n_dof,)`` global vector.

        With ``solution=True`` the chaos hook sees the assembled buffer
        (the ``halo_corrupt`` fault corrupts exactly this transfer).
        """
        out = np.empty(self.dmap.labels.size * BS)
        for d in range(self.dmap.n_domains):
            out[self._dof[d]] = segments[d]
            self.devices[d].record(
                self._price(d, "pcie_gather_owned", segments[d].nbytes)
            )
        if solution and self.inject is not None:
            out = self.inject(out)
        return out

    def exchange(self, segments: list) -> list:
        """Refresh ghosts: per-domain extended ``(n_ext_d*6,)`` vectors.

        The owned segment fills the front of each extended vector;
        every planned send copies boundary DOF from owner to ghost slot,
        metered on both devices and in ``domain.halo_bytes``.
        """
        extended = []
        for d in range(self.dmap.n_domains):
            own = self.dmap.owned[d]
            ghost = self.plan.ghosts[d]
            ext = np.empty((own.size + ghost.size) * BS)
            ext[: own.size * BS] = segments[d]
            extended.append(ext)
        for src, rows, dst, slots in self._moves:
            extended[dst].reshape(-1, BS)[slots] = (
                segments[src].reshape(-1, BS)[rows]
            )
        self.record(self._exchange)
        if self.metrics is not None and self._moves:
            self.metrics.inc("domain.halo_bytes", self._halo_bytes)
        return extended

    def allreduce(self) -> None:
        """Meter one latency-bound all-reduce of one double."""
        self.record(self._allreduce)

    def record(self, priced: list) -> None:
        """Append ``priced[d]`` (priced records) to device ``d``'s ledger."""
        for device, records in zip(self.devices, priced):
            device.record(records)
