"""Executable multi-device domain decomposition.

The paper's stated next step ("applying these efforts to ... multiple
GPUs") as a runnable path: :mod:`repro.domain.partition` splits blocks
across ``n_domains`` virtual devices with a graph partition over the contact
topology; :mod:`repro.domain.halo` builds ownership maps, ghost lists
and the metered halo-exchange step; :mod:`repro.domain.assembly`
extracts per-domain submatrices (local block matrix + boundary coupling
entries) from the globally assembled :class:`~repro.assembly
.global_matrix.BlockMatrix`; and :mod:`repro.domain.solve` is the
distributed operand of the one PCG loop, :func:`repro.solvers.cg.pcg`
(all-reduced dot products, one ghost exchange per iteration) — bit-
identical to the single-device solve for every registry preconditioner.

The engine-facing entry point is
:class:`repro.engine.domain_engine.DomainEngine`.
"""

from repro.domain.partition import PartitionStats, partition_blocks

__all__ = ["PartitionStats", "partition_blocks"]
