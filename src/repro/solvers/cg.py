"""Preconditioned conjugate gradients on the HSBCSR SpMV.

The driver mirrors the paper's solver setup:

* the system matrix is the half-stored :class:`BlockMatrix`, multiplied
  through the HSBCSR kernel (so every CG iteration exercises the format
  the paper proposes);
* the initial guess is the previous step's solution ("the equation
  solution of the previous step is the initial value of the PCG iterative
  step"), and within a step the previous open–close sweep's;
* iteration count is capped at 200; DDA reacts to non-convergence by
  shrinking the physical time step, which the engine implements;
* the loop is the only one: what differs between one device and several
  (where the SpMV runs, what a reduction costs, how the solution comes
  back) sits behind the operand it iterates over
  (:class:`DeviceOperand`); on one device a launch ends where the host
  reads a scalar, four launches per block-Jacobi iteration.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from repro.assembly.global_matrix import BS, BlockMatrix
from repro.gpu.counters import KernelCounters
from repro.gpu.kernel import PricedLaunches, VirtualDevice
from repro.gpu.memory import coalesced_transactions, streamed
from repro.gpu.warp import WARP_SIZE
from repro.solvers.preconditioners import (
    BlockJacobiPreconditioner,
    IdentityPreconditioner,
    Preconditioner,
)
from repro.spmv.hsbcsr import HSBCSRMatrix, spmv_launches
from repro.util.validation import check_array


@dataclass
class CGResult:
    """Outcome of one PCG solve.

    Attributes
    ----------
    x:
        The solution (best iterate).
    iterations:
        CG iterations performed.
    converged:
        Whether the relative residual dropped below the tolerance.
    residuals:
        Relative residual after each iteration (length ``iterations``),
        the series plotted in the paper's Fig. 5.
    breakdown:
        ``True`` when the solve stopped because ``p^T A p <= 0`` — the
        matrix is not SPD along the search direction. The engine's
        fallback ladder distinguishes this from a plain iteration-cap
        non-convergence.
    """

    x: np.ndarray
    iterations: int
    converged: bool
    residuals: list[float] = field(default_factory=list)
    breakdown: bool = False


def _vector_ops_counters(n: int, ops: int) -> KernelCounters:
    """``ops`` fused axpy/dot-style passes over length-``n`` vectors."""
    return KernelCounters(
        flops=2.0 * n * ops,
        global_bytes_read=2.0 * n * 8 * ops,
        global_bytes_written=1.0 * n * 8 * ops,
        global_txn_read=ops * coalesced_transactions(2 * n, 8),
        global_txn_written=ops * coalesced_transactions(n, 8),
        threads=n * ops,
        warps=max(1, n * ops // WARP_SIZE),
    )


def _dot(n: int) -> KernelCounters:
    """A dot product inside a launch that holds one operand: the other is
    read once."""
    return KernelCounters(flops=2.0 * n, global_bytes_read=8.0 * n,
                          global_txn_read=coalesced_transactions(n, 8))


class DeviceOperand:
    """What :func:`pcg` iterates over on one device: the HSBCSR SpMV.

    An operand is every place a solve depends on *where* it runs —
    ``n_dof`` (scalar unknown count), ``device`` (what preconditioners
    are built and applied on; ``None`` = unmetered) and the seven calls
    below — so the iteration is written once. The multi-device operand
    is :class:`repro.domain.solve.DistributedOperand`.

    A launch ends exactly where the host reads a scalar: an iteration is
    ``cg_direction``, the SpMV's two stages (``p·Ap`` in the second), then
    ``cg_update`` (``x += αp``, ``r −= αAp``, ``r·r``; for block-local
    block-Jacobi ``z = M r`` and ``r·z`` too). Any other preconditioner
    records its application after it, ``r·z`` in its last launch. The
    initial residual is the SpMV and the update kernel.
    """

    def __init__(self, h: HSBCSRMatrix, device: VirtualDevice | None) -> None:
        self.h = h
        self.device = device
        self.n_dof = n = h.n * BS
        if device is not None:
            stage1, (name, stage2) = spmv_launches(h).launches
            self._iteration = PricedLaunches(  # p = z + βp, then the SpMV
                ("cg_direction", streamed(2 * n, n, 2.0 * n, n)),
                stage1,
                (name, stage2 + _dot(n)),
            )

    def wrap(self, preconditioner: Preconditioner | None) -> Preconditioner:
        """The preconditioner as this operand applies it (identity if
        omitted); prices the solve's update kernel."""
        if preconditioner is None:
            preconditioner = IdentityPreconditioner()
        if self.device is None:
            return preconditioner
        n, applied = self.n_dof, copy.copy(preconditioner)
        # two axpys and r·r (x p r Ap in, x r out); block-Jacobi adds its
        # 6x6 block per six unknowns, z = M r and r·z, reading back neither
        if isinstance(preconditioner, BlockJacobiPreconditioner):
            update = streamed((4 + BS) * n, 3 * n, (8.0 + 2 * BS) * n, n)
            applied.launches = PricedLaunches()
        else:
            update = streamed(4 * n, 2 * n, 6.0 * n, n)
            if preconditioner.launches.launches:
                *head, (name, last) = preconditioner.launches.launches
                applied.launches = PricedLaunches(*head, (name, last + _dot(n)))
        self._update = PricedLaunches(("cg_update", update))
        # the next product's launches: the initial residual's, then an
        # iteration's (matvec)
        spmv = spmv_launches(self.h).launches
        self._next = PricedLaunches(*spmv, *self._update.launches)
        return applied

    def begin(self, b: np.ndarray, x: np.ndarray) -> None:
        """Place the ``(n_dof,)`` right-hand side and first iterate."""

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``A @ v`` for ``(n_dof,)`` float64 ``v`` (:func:`pcg` checked it)."""
        y = self.h.op(v)
        if self.device is not None:
            self._next.record(self.device)
            self._next = self._iteration
        return y

    def reduced(self, words: int = 1) -> None:
        """One reduction of ``words`` scalars reached the host."""

    def converged(self, preconditioner: Preconditioner) -> None:
        """The convergence test passed; one device has nothing in flight."""

    def vector_ops(self) -> None:
        """Charge one iteration's update kernel."""
        if self.device is not None:
            self._update.record(self.device)

    def finish(self, x: np.ndarray) -> np.ndarray:
        """The ``(n_dof,)`` solution as the caller receives it."""
        return x


def pcg(
    a: BlockMatrix | HSBCSRMatrix | DeviceOperand,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    preconditioner: Preconditioner | None = None,
    *,
    tol: float = 1e-8,
    max_iterations: int = 200,
    device: VirtualDevice | None = None,
    metrics=None,
) -> CGResult:
    """Solve ``A x = b`` by preconditioned conjugate gradients.

    Parameters
    ----------
    a:
        The symmetric positive-definite system, half-stored. A
        :class:`BlockMatrix` is converted to HSBCSR once up front and
        solved on ``device``; an operand (anything with
        :class:`DeviceOperand`'s attributes and calls) is iterated over
        as it is — the loop is the same one.
    b:
        Right-hand side, shape ``(6 n,)``.
    x0:
        Warm-start iterate of the same shape (the engines pass the sweep
        or step before's solution); zero if omitted.
    preconditioner:
        Any :class:`Preconditioner`; identity if omitted. The operand
        decides how it is applied (:meth:`DeviceOperand.wrap`).
    tol:
        Relative-residual convergence tolerance (``||r|| / ||b||``).
    max_iterations:
        Iteration cap (the paper's 200).
    device:
        Optional virtual device for a matrix ``a``; SpMV, preconditioner
        applications, and vector work are all recorded. An operand
        carries its own.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; the solve
        records its iteration count on the ``cg.iterations`` histogram
        and bumps ``cg.breakdowns`` / ``cg.non_convergence`` counters.
    """
    if isinstance(a, BlockMatrix):
        a = HSBCSRMatrix.from_block_matrix(a)
    if isinstance(a, HSBCSRMatrix):
        a = DeviceOperand(a, device)
    elif device is not None:
        raise ValueError("an operand carries its own device; pass device=None")
    n = a.n_dof
    b = check_array("b", b, dtype=np.float64, shape=(n,))
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    m = a.wrap(preconditioner)
    residuals: list[float] = []

    def done(x, iterations, converged, breakdown=False) -> CGResult:
        if metrics is not None:
            metrics.histogram("cg.iterations").observe(iterations)
            if breakdown:
                metrics.inc("cg.breakdowns")
            elif not converged:
                metrics.inc("cg.non_convergence")
        return CGResult(a.finish(x), iterations, converged, residuals, breakdown)

    x = np.zeros(n) if x0 is None else check_array("x0", x0, dtype=np.float64,
                                                   shape=(n,)).copy()
    a.begin(b, x)
    # CG's scalar coefficients live on the host by design (on several
    # devices each reduction is an ordered all-reduce `reduced` meters;
    # r·r and r·z share one, z = M r running before the convergence test
    # that `converged` ends). Norms use the fused-dot form sqrt(v @ v),
    # bitwise-identical to np.linalg.norm on contiguous float64
    b_norm = math.sqrt(float(b @ b))  # lint: sync-ok[cg-convergence] -- one fused-dot scalar per iteration
    a.reduced()
    if b_norm == 0.0:
        return done(np.zeros(n), 0, True)

    r = b - a.matvec(x)
    rel = math.sqrt(float(r @ r)) / b_norm  # lint: sync-ok[cg-convergence] -- one fused-dot scalar per iteration
    if rel < tol:
        a.converged(m)
        return done(x, 0, True)

    z = m.apply(r, a.device)
    p = z.copy()
    step = np.empty(n)  # alpha * p, then alpha * ap: no per-iteration array
    rz = float(r @ z)  # lint: sync-ok[cg-convergence] -- one fused-dot scalar per iteration
    a.reduced(2)
    for it in range(1, max_iterations + 1):
        ap = a.matvec(p)
        pap = float(p @ ap)  # lint: sync-ok[cg-convergence] -- one fused-dot scalar per iteration
        a.reduced()
        if pap <= 0.0:
            # matrix not SPD along p (defensive): report breakdown
            return done(x, it, False, breakdown=True)
        alpha = rz / pap
        x += np.multiply(p, alpha, out=step)
        r -= np.multiply(ap, alpha, out=step)
        a.vector_ops()
        # one device prices the host's in-place passes as launches that
        # end where the host reads a scalar (DeviceOperand)
        rel = math.sqrt(float(r @ r)) / b_norm  # lint: sync-ok[cg-convergence] -- one fused-dot scalar per iteration
        residuals.append(rel)
        if rel < tol:
            a.converged(m)
            return done(x, it, True)
        z = m.apply(r, a.device)
        rz_new = float(r @ z)  # lint: sync-ok[cg-convergence] -- one fused-dot scalar per iteration
        a.reduced(2)
        beta = rz_new / rz
        p *= beta  # p = z + beta * p, in place (p never aliases z)
        p += z
        rz = rz_new
    return done(x, max_iterations, False)
