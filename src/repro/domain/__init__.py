"""Executable multi-device domain decomposition.

The paper's stated next step ("applying these efforts to ... multiple
GPUs") as a runnable path: :mod:`repro.domain.partition` splits blocks
across ``n_domains`` virtual devices with a graph partition over the contact
topology; :mod:`repro.domain.halo` builds ownership maps, ghost lists
and the metered halo-exchange step; :mod:`repro.domain.assembly`
extracts per-domain submatrices (local block matrix + boundary coupling
entries) from the globally assembled :class:`~repro.assembly
.global_matrix.BlockMatrix`; and :mod:`repro.domain.solve` runs a
distributed preconditioned CG (all-reduced dot products, one ghost
exchange per iteration) that is bit-identical to the single-device
:func:`repro.solvers.cg.pcg` for the block-local preconditioners.

The engine-facing entry point is
:class:`repro.engine.domain_engine.DomainEngine`.
"""

from repro.domain.partition import PartitionStats, partition_blocks

__all__ = ["PartitionStats", "partition_blocks"]
