"""The distributed solve: an operand of the one PCG loop.

:func:`repro.solvers.cg.pcg` iterates over an operand, and
:class:`DistributedOperand` is the multi-device one. The host computes
exactly what one device does; the ledgers meter the schedule a
multi-device CG runs:

* the SpMV posts one halo exchange, multiplies the interior rows and
  the diagonal while it is in flight, then the boundary rows — a device
  pays only the transfers its interior product does not cover;
* ``r·r`` and ``r·z`` share one two-word all-reduce after ``z = M r``
  (pipelined order: a passing convergence test leaves that application
  in flight, metered but not computed); ``p·Ap`` and ``b·b`` are their
  own; every reduction is ordered over the canonical vector;
* vector updates are metered per domain at their local lengths.

Every launch has a size fixed by the split and the exchange plan, so it
is priced once and the loop only records the shared records;
:meth:`DistributedOperand.with_values` shares them across matrices with
the same sparsity pattern. The distributed SpMV is bit-identical on
owned rows and the reductions see the same arrays, so solution,
iteration count and residual series equal the single-device solve for
every registry preconditioner.
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
#: per domain: distributing them costs no communication (``none`` is
#: the identity ``pcg`` applies when given no preconditioner).
BLOCK_LOCAL = ("none", "bj")


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

    Block-local bases (``none``/``bj``) apply independently per domain
    — numerically unchanged, metered at local lengths. Cross-domain
    bases (``ssor``/``ilu``) are applied gathered:
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
        self.metered()
        return z

    def metered(self) -> None:
        """Charge one application on every domain, as :meth:`apply` does."""
        self.exchanger.record(self._cost)


class DistributedOperand:
    """The multi-device counterpart of :class:`repro.solvers.cg
    .DeviceOperand` (same attributes, same seven calls).

    ``split`` is the :class:`~repro.domain.assembly.DomainSplit` of ``A``
    and ``exchanger`` the :class:`~repro.domain.halo.HaloExchanger` over
    the same plan. ``device`` is ``None``: a single-device preconditioner
    is built and applied unmetered, and :meth:`wrap` charges what running
    it across the domains costs.
    """

    device = None

    def __init__(self, split: DomainSplit, exchanger: HaloExchanger) -> None:
        self.split = split
        self.n_dof = exchanger.dmap.labels.size * BS
        self._spmv, hidden = price_spmv(split, exchanger.devices)
        self.exchanger = exchanger.overlapped(hidden)
        self._vector_ops = _price_vector_ops(exchanger, "cg_vector_ops", [
            own.size * BS for own in exchanger.dmap.owned
        ], 5)

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
        """Distributed ``A @ v``: ``(n_dof,)``, one halo exchange (what
        the interior product leaves of it metered), then every domain's
        rows in one call of the stacked kernel."""
        y = self.split.op(self.exchanger.exchange(v))
        self.exchanger.record(self._spmv)
        return y

    def reduced(self, words: int = 1) -> None:
        """One ordered (deterministic) all-reduce of ``words`` scalars."""
        self.exchanger.allreduce(words)

    def converged(self, preconditioner) -> None:
        """Charge the application and fused all-reduce a passing test
        leaves in flight (the host skips the application: its result is
        never read). One device overlaps nothing and speculates nothing."""
        if self.exchanger.dmap.n_domains > 1:
            preconditioner.metered()
            self.reduced(2)

    def vector_ops(self) -> None:
        self.exchanger.record(self._vector_ops)

    def finish(self, x: np.ndarray) -> np.ndarray:
        """Gather the ``(n_dof,)`` solution — the transfer the
        engines' fault seam sees."""
        return self.exchanger.gather(x, solution=True)
