"""Ownership maps, ghost lists, and the metered halo exchange.

Each domain owns a set of blocks (ascending global order). Every stored
off-diagonal entry ``(i, j)`` of the global matrix couples two blocks;
when they live in different domains each side needs the other's DOF
during SpMV, so those blocks become *ghosts*: replicated read-only
copies refreshed by one halo exchange per CG iteration.

The devices' extended vectors are held as **one stacked vector** laid
out ``owned_0, ghosts_0, owned_1, ghosts_1, ...`` — a layout the
:class:`ExchangePlan` owns (``ext_ids`` / ``offsets`` / ``slots``) — and
the canonical ``(n_dof,)`` vector *is* every owner's resident segment,
so an exchange is a single gather ``v.reshape(n, 6)[plan.ext_ids]``;
the planned sends only price. They are metered as ``pcie_*`` launches
on a dedicated transfer profile, less what each device's independent
work hides (:meth:`HaloExchanger.overlapped`), and their bytes
accumulate into the ``domain.halo_bytes`` metric.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

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
        ``(n_domains, n_blocks)`` slot of each global block in each
        domain's range of the stacked extended vector (owned first,
        then ghosts; ``-1`` where absent).
    sends:
        Directed transfers ``(src, dst, (k,) global ids)`` — the owned
        blocks ``src`` ships to ``dst`` every exchange.
    ext_ids:
        ``(n_ext,)`` global block id each stacked slot holds:
        ``owned_0, ghosts_0, owned_1, ghosts_1, ...``.
    offsets:
        ``(n_domains+1,)`` bounds of each domain's slot range.
    """

    ghosts: tuple
    slots: np.ndarray
    sends: tuple
    ext_ids: np.ndarray
    offsets: np.ndarray


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
    ghosts, ext_ids, sends = [], [], []
    slots = np.full((dmap.n_domains, labels.size), -1, dtype=np.int64)
    offsets = np.zeros(dmap.n_domains + 1, dtype=np.int64)
    for d in range(dmap.n_domains):
        if rows.size:
            need = np.concatenate([
                cols[(row_lab == d) & (col_lab != d)],
                rows[(col_lab == d) & (row_lab != d)],
            ])
        else:
            need = np.empty(0, dtype=np.int64)
        ghost = np.unique(need)
        held = np.concatenate([dmap.owned[d], ghost])
        offsets[d + 1] = offsets[d] + held.size
        slots[d, held] = np.arange(offsets[d], offsets[d + 1])
        ghosts.append(ghost)
        ext_ids.append(held)
        ghost_lab = labels[ghost]
        for src in range(dmap.n_domains):
            ids = ghost[ghost_lab == src] if ghost.size else ghost  # lint: sync-ok[empty-batch] -- per-source ghost selection, empty exchange skipped
            if ids.size:
                sends.append((src, d, ids))
    return ExchangePlan(
        tuple(ghosts), slots, tuple(sends), np.concatenate(ext_ids), offsets
    )


@dataclass
class HaloExchanger:
    """Meters the boundary DOF the per-domain devices trade.

    Owns the per-solve communication: ``scatter`` distributes a global
    ``(n_dof,)`` vector to its owners, ``exchange`` refreshes ghost
    values (one call per CG iteration), ``gather`` collects the owned
    segments back, and ``allreduce`` meters the latency-bound scalar
    reductions. With one domain no transfer is charged. ``inject`` is
    the fault seam applied to the gathered solution buffer.

    The canonical vector is every owner's resident segment, so
    ``scatter`` and ``gather`` move nothing and ``exchange`` is one
    gather into the stacked extended vector. What they charge depends
    on the plan alone and is priced here, once — the ``pcie_halo_send``
    / ``pcie_halo_recv`` records in ``plan.sends`` order, in full until
    :meth:`overlapped` hides part of them; the calls then only record.
    """

    dmap: DomainMap
    plan: ExchangePlan
    devices: list
    metrics: object = None
    inject: object = None

    def __post_init__(self) -> None:
        domains = range(self.dmap.n_domains)
        owned = [float(own.size * BS * 8) for own in self.dmap.owned]
        self._allreduce = {words: [
            self._price(d, "pcie_allreduce", 8.0 * words) for d in domains
        ] for words in (1, 2)}
        self._scatter = [self._price(d, "pcie_scatter_owned", owned[d])
                         for d in domains]
        self._gather = [self._price(d, "pcie_gather_owned", owned[d])
                        for d in domains]
        self._exchange: list[tuple] = [() for _ in domains]
        self._halo_bytes = 0.0
        for src, dst, ids in self.plan.sends:
            nbytes = float(ids.size * BS * 8)
            self._exchange[src] += self._price(src, "pcie_halo_send", nbytes)
            self._exchange[dst] += self._price(dst, "pcie_halo_recv", nbytes)
            self._halo_bytes += nbytes

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
    def scatter(self, x: np.ndarray) -> np.ndarray:
        """Meter the distribution of ``(n_dof,)`` ``x`` to its owners."""
        self.record(self._scatter)
        return x

    def gather(self, x: np.ndarray, *, solution: bool = False) -> np.ndarray:
        """Meter the collection of the owned segments of ``(n_dof,)`` ``x``.

        With ``solution=True`` the ``inject`` hook (the engines' fault
        seam) sees the buffer the caller receives.
        """
        self.record(self._gather)
        if solution and self.inject is not None:
            x = self.inject(x)
        return x

    def exchange(self, v: np.ndarray) -> np.ndarray:
        """Refresh ghosts: the stacked extended ``(n_ext*6,)`` vector of
        canonical ``(n_dof,)`` ``v``.

        Every slot reads its block from the owner's resident segment;
        each planned send is metered on both devices and in
        ``domain.halo_bytes``.
        """
        ext = v.reshape(-1, BS)[self.plan.ext_ids].reshape(-1)
        self.record(self._exchange)
        if self.metrics is not None and self.plan.sends:
            self.metrics.inc("domain.halo_bytes", self._halo_bytes)
        return ext

    def overlapped(self, hidden: list) -> "HaloExchanger":
        """This exchanger with device ``d``'s transfers overlapping
        ``hidden[d]`` seconds of its own work. Posted in plan order, they
        complete one after another: what completes within ``hidden[d]``
        costs nothing, the rest is waited on — ``max(0, halo - hidden)``
        per exchange, every record keeping its bytes."""
        other = copy.copy(self)
        other._exchange = []
        for records, budget in zip(self._exchange, hidden):
            exposed = []
            for r in records:
                cover = min(r.seconds, budget)
                budget -= cover
                exposed.append(r._replace(seconds=r.seconds - cover))
            other._exchange.append(tuple(exposed))
        return other

    def allreduce(self, words: int = 1) -> None:
        """Meter one latency-bound all-reduce of ``words`` (1, 2) doubles."""
        self.record(self._allreduce[words])

    def record(self, priced: list) -> None:
        """Append ``priced[d]`` (priced records) to device ``d``'s ledger."""
        for device, records in zip(self.devices, priced):
            device.record(records)
