"""Domain-decomposed engine: the executable multi-device path.

:class:`DomainEngine` runs the serial pipeline's physics stage for
stage — detection, assembly, interpenetration checking and updating are
exactly :class:`~repro.engine.serial_engine.SerialEngine`'s — but the
equation solve is distributed across ``n_domains`` per-domain
:class:`~repro.gpu.kernel.VirtualDevice` ledgers:

1. at construction the blocks are partitioned once via
   :func:`repro.domain.partition.partition_blocks` (spectral order of
   the broad-phase AABB graph, spatial-stripe fallback);
2. per sparsity pattern, :func:`repro.domain.halo.build_exchange_plan`
   lists the ghosts and lays out the stacked extended vector and
   :func:`repro.domain.assembly.split_matrix` re-points the global SpMV
   kernel into it; the sweeps of an attempt (same pattern, new values)
   re-read the payloads only;
3. the solve is the one :func:`repro.solvers.cg.pcg` loop over a
   :class:`repro.domain.solve.DistributedOperand` (one halo exchange
   hidden behind the interior product and one stacked SpMV per
   iteration; ordered all-reduces, ``r·r`` with ``r·z``), reached
   through the one solver hook,
   :meth:`~repro.engine.base.EngineBase._solver_operand`.

Every reduction runs in canonical block order, so results are
**bit-identical** to the serial engine at every domain count (the
``tests/domain`` pin), while the ledgers record what the decomposition
would cost: halo bytes (``domain.halo_bytes``), cut contacts
(``domain.cut_contacts``), imbalance (``domain.imbalance``). Contracts,
the fault seam (which also sees the gathered solution, stage
``halo_exchange``), spans and metrics apply unchanged through
:class:`EngineBase`; its stage measurement adds the busiest domain
ledger's seconds, halo exchange included, to ``equation_solving``.
"""

from __future__ import annotations

import numpy as np

from repro import domain
from repro.assembly.global_matrix import BlockMatrix
from repro.contact.contact_set import ContactSet
from repro.core.blocks import BlockSystem
from repro.core.state import SimulationControls
from repro.domain.assembly import split_matrix
from repro.domain.halo import (
    DomainMap,
    HaloExchanger,
    build_exchange_plan,
    make_domain_devices,
)
from repro.domain.solve import DistributedOperand
from repro.engine.serial_engine import SerialEngine
from repro.gpu.device import DeviceProfile


class DomainEngine(SerialEngine):
    """Serial pipeline with a domain-decomposed distributed solve."""

    def __init__(
        self,
        system: BlockSystem,
        controls: SimulationControls | None = None,
        profile: DeviceProfile | None = None,
        n_domains: int = 2,
        fault_injector=None,
        tracer=None,
        metrics=None,
    ) -> None:
        super().__init__(
            system, controls, profile, fault_injector,
            tracer=tracer, metrics=metrics,
        )
        self.n_domains = int(n_domains)
        self.labels, self.partition_stats = domain.partition_blocks(
            system, self.n_domains, margin=self.contact_threshold
        )
        self.dmap = DomainMap.from_labels(self.labels, self.n_domains)
        self.domain_devices = make_domain_devices(
            self.n_domains, self.device.profile
        )
        self._parallel_ledgers = tuple(self.domain_devices)
        self.metrics.counter("domain.halo_bytes")
        self.metrics.gauge("domain.imbalance").set(
            self.partition_stats.imbalance
        )
        self.metrics.gauge("domain.cut_fraction").set(
            self.partition_stats.cut_fraction
        )

    # ------------------------------------------------------------------
    # partition-aware stage overrides
    # ------------------------------------------------------------------
    def _detect_contacts(self) -> ContactSet:
        contacts = super()._detect_contacts()
        cut = self.labels[contacts.block_i] != self.labels[contacts.block_j]
        self.metrics.gauge("domain.cut_contacts").set(float(np.count_nonzero(cut)))  # lint: sync-ok[partition-stats] -- scalar partition statistic
        return contacts

    # ------------------------------------------------------------------
    # distributed solve (the solver hook)
    # ------------------------------------------------------------------
    def _halo_inject(self, buffer: np.ndarray) -> np.ndarray:
        """Fault seam over the gathered solution transfer buffer."""
        return self._inject("halo_exchange", buffer, self._current_step)

    def _solver_operand(self, matrix: BlockMatrix):
        """``matrix`` split across the domain devices — every ladder rung
        iterates over the same split. Exchange plan, exchanger
        (everything the plan fixes priced there), split and priced SpMV
        are built once per sparsity pattern: like the single-device
        structure, the last operand is kept, and while the pattern
        matches exactly (every open–close sweep of an attempt after the
        first) only the payloads are re-read. A stale one can only cost
        a rebuild, never a wrong product."""
        kept = self._solver_structure
        if kept is not None and kept.split.matches(matrix, self.dmap):
            operand = kept.with_values(matrix)
        else:
            plan = build_exchange_plan(self.dmap, matrix.rows, matrix.cols)
            exchanger = HaloExchanger(
                self.dmap, plan, self.domain_devices,
                metrics=self.metrics, inject=self._halo_inject,
            )
            operand = DistributedOperand(
                split_matrix(matrix, self.dmap, plan), exchanger
            )
        self._solver_structure = operand
        return operand

    # ------------------------------------------------------------------
    @property
    def halo_bytes(self) -> float:
        """Total halo-exchange bytes metered so far (scalar)."""
        return float(self.metrics.counter("domain.halo_bytes").value)

    def domain_device_times(self) -> list:
        """Per-domain modelled device seconds (length ``n_domains``)."""
        return [dev.total_time for dev in self.domain_devices]
