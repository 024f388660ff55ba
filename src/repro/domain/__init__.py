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

__all__ = ["PartitionStats", "partition_blocks"]


def __getattr__(name: str):
    # PEP 562, as repro.meshing exports Voronoi: the partitioner brings
    # scipy.sparse.csgraph and scipy.linalg, which only a DomainEngine needs
    if name in __all__:
        from repro.domain import partition

        return getattr(partition, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
