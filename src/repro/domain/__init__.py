"""Executable multi-device domain decomposition.

The paper's stated next step ("applying these efforts to ... multiple
GPUs") as a runnable path: :mod:`repro.domain.partition` splits blocks
across ``n_domains`` virtual devices with a graph partition over the contact
topology; :mod:`repro.domain.halo` builds ownership maps, ghost lists,
the layout of the stacked extended vector and the metered halo exchange
(one gather into that vector); :mod:`repro.domain.assembly` splits the
globally assembled :class:`~repro.assembly.global_matrix.BlockMatrix`
across the domains as one stacked kernel — the global HSBCSR operator
reading each row's operands from its owner's slots, two compiled
products at any domain count; and :mod:`repro.domain.solve` is the
distributed operand of the one PCG loop, :func:`repro.solvers.cg.pcg`
(one ghost exchange per iteration, hidden behind the interior product;
``r·r`` and ``r·z`` in one all-reduce) — bit-identical to the
single-device solve for every registry preconditioner.

The engine-facing entry point is
:class:`repro.engine.domain_engine.DomainEngine`.
"""

from repro.domain.partition import PartitionStats, partition_blocks

__all__ = ["PartitionStats", "partition_blocks"]
