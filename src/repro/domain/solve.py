"""The distributed solve: an operand of the one PCG loop.

There is no second CG loop. :func:`repro.solvers.cg.pcg` iterates over
an operand, and :class:`DistributedOperand` is the multi-device one —
same early returns, same breakdown test, same residual series — with
three distributed substitutions:

* the SpMV is one ghost (halo) exchange — a gather into the stacked
  extended vector — and the stacked kernel of
  :func:`repro.domain.assembly.split_matrix`, whose rows come out in
  canonical block order: two compiled products at any domain count;
* every scalar reduction (the two CG dot products and the residual
  norm) is computed as an *ordered* reduction over the canonical
  global vector — the deterministic all-reduce — and metered as a
  latency-bound ``pcie_allreduce`` on every device;
* vector updates are metered per domain at their local lengths.

Every launch a solve charges has a size fixed by the split and the
exchange plan, so each is priced once (:meth:`VirtualDevice.price` — at
the exchanger's, the preconditioner's or the operand's construction)
and the loop only records the shared records: same ledger, record for
record, without per-iteration pricing. An operand outlives its solve:
:meth:`DistributedOperand.with_values` re-reads the payloads of a matrix
with the same sparsity pattern and shares everything else.

Because the canonical-order reductions see bit-identical operand
arrays and the distributed SpMV is bit-identical on owned rows, the
whole iteration — and therefore the returned solution, iteration
count, and residual series — equals the single-device solve exactly
for the block-local preconditioners (``none``/``jacobi``/``bj``) and
for the gathered cross-domain ones (``ssor``/``ilu``/``neumann``).
"""

from __future__ import annotations

import copy

import numpy as np

from repro.assembly.global_matrix import BS, BlockMatrix
from repro.domain.assembly import DomainSplit, price_spmv
from repro.domain.halo import HaloExchanger
from repro.solvers.cg import _vector_ops_counters
from repro.solvers.preconditioners import IdentityPreconditioner, Preconditioner

#: Preconditioners whose application is block-local, hence identical
#: per domain: distributing them costs no communication.
BLOCK_LOCAL = ("none", "jacobi", "bj")


def _price_vector_ops(
    exchanger: HaloExchanger, name: str, lengths: list, ops: int
) -> list:
    """Per device, the priced ``name`` launch of ``ops`` fused passes over
    ``lengths[d]`` — what :meth:`HaloExchanger.record` appends."""
    return [
        (device.price(
            name, _vector_ops_counters(n, ops), module="equation_solving"
        ),)
        for device, n in zip(exchanger.devices, lengths)
    ]


class DistributedPreconditioner:
    """A single-device preconditioner running inside the distributed solve.

    Block-local bases (``none``/``jacobi``/``bj``) apply independently
    per domain — numerically unchanged, metered at local lengths. Cross-
    domain bases (``ssor``/``ilu``/``neumann``) are applied gathered:
    the canonical vector is collected, the base applied once, and the
    result redistributed — metered as a full gather+scatter per
    application. Either way the returned values are bit-identical to
    the base's single-device application.
    """

    def __init__(self, base: Preconditioner, exchanger: HaloExchanger) -> None:
        self.base = base
        self.exchanger = exchanger
        self.name = base.name
        n_loc = [own.size * BS for own in exchanger.dmap.owned]
        if base.name in BLOCK_LOCAL:
            self._cost = _price_vector_ops(
                exchanger, "precond_apply_local", n_loc, 2
            )
        else:
            self._cost = [
                exchanger._price(d, "pcie_precond_gather", n * 8)
                + exchanger._price(d, "pcie_precond_scatter", n * 8)
                for d, n in enumerate(n_loc)
            ]

    def apply(self, r: np.ndarray, device=None) -> np.ndarray:
        """Apply to ``(n_dof,)`` and return the same shape."""
        z = self.base.apply(r, None)
        self.exchanger.record(self._cost)
        return z


class DistributedOperand:
    """The multi-device counterpart of :class:`repro.solvers.cg
    .DeviceOperand` (same attributes, same six calls).

    ``split`` is the :class:`~repro.domain.assembly.DomainSplit` of ``A``
    and ``exchanger`` the :class:`~repro.domain.halo.HaloExchanger` over
    the same plan. ``device`` is ``None``: a single-device preconditioner
    is built and applied unmetered, and :meth:`wrap` charges what running
    it across the domains costs.
    """

    device = None

    def __init__(self, split: DomainSplit, exchanger: HaloExchanger) -> None:
        self.split = split
        self.exchanger = exchanger
        self.n_dof = exchanger.dmap.labels.size * BS
        n_local = [own.size for own in exchanger.dmap.owned]
        m = (split.m_up + split.m_low).tolist()  # lint: sync-ok[alloc-size] -- per-domain entry counts size the priced launches, once per pattern
        self._spmv = [
            price_spmv(m_d, n_d, device)
            for m_d, n_d, device in zip(m, n_local, exchanger.devices)
        ]
        self._vector_ops = _price_vector_ops(
            exchanger, "cg_vector_ops", [n * BS for n in n_local], 5
        )

    def with_values(self, matrix: BlockMatrix) -> "DistributedOperand":
        """The operand of a ``matrix`` its split
        :meth:`~repro.domain.assembly.DomainSplit.matches`: exchanger,
        priced records and index arrays shared, payloads re-read."""
        other = copy.copy(self)
        other.split = self.split.with_values(matrix)
        return other

    def wrap(self, preconditioner=None):
        """A :class:`Preconditioner` metered per domain
        (:class:`DistributedPreconditioner`)."""
        if preconditioner is None:
            preconditioner = IdentityPreconditioner()
        return DistributedPreconditioner(preconditioner, self.exchanger)

    def begin(self, b: np.ndarray, x: np.ndarray) -> None:
        """Initial distribution of the ``(n_dof,)`` operands to the
        domain devices."""
        self.exchanger.scatter(b)
        self.exchanger.scatter(x)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Distributed ``A @ v``: ``(n_dof,)``, one halo exchange, then
        every domain's rows in one call of the stacked kernel."""
        y = self.split.op(self.exchanger.exchange(v))
        self.exchanger.record(self._spmv)
        return y

    def reduced(self) -> None:
        """One ordered (deterministic all-reduce) scalar per reduction."""
        self.exchanger.allreduce()

    def vector_ops(self) -> None:
        self.exchanger.record(self._vector_ops)

    def finish(self, x: np.ndarray) -> np.ndarray:
        """Gather the ``(n_dof,)`` solution — the transfer the
        ``halo_corrupt`` chaos fault corrupts."""
        return self.exchanger.gather(x, solution=True)
