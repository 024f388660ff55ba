"""Preconditioned conjugate gradients on the HSBCSR SpMV.

The driver mirrors the paper's solver setup:

* the system matrix is the half-stored :class:`BlockMatrix`, multiplied
  through the HSBCSR kernel (so every CG iteration exercises the format
  the paper proposes);
* the initial guess is the previous step's solution ("the equation
  solution of the previous step is the initial value of the PCG iterative
  step");
* iteration count is capped at 200; DDA reacts to non-convergence by
  shrinking the physical time step, which the engine implements;
* the loop is the only one: what differs between one device and several
  (where the SpMV runs, what a reduction costs, how the solution comes
  back) sits behind the operand it iterates over
  (:class:`DeviceOperand`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.assembly.global_matrix import BS, BlockMatrix
from repro.gpu.counters import KernelCounters
from repro.gpu.kernel import PricedLaunches, VirtualDevice
from repro.gpu.memory import coalesced_transactions
from repro.gpu.warp import WARP_SIZE
from repro.solvers.preconditioners import Preconditioner, IdentityPreconditioner
from repro.spmv.hsbcsr import HSBCSRMatrix, record_spmv
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


class DeviceOperand:
    """What :func:`pcg` iterates over on one device: the HSBCSR SpMV.

    An operand is every place a solve depends on *where* it runs —
    ``n_dof`` (scalar unknown count), ``device`` (what preconditioners
    are built and applied on; ``None`` = unmetered) and the seven calls
    below — so the iteration is written once. The multi-device operand
    is :class:`repro.domain.solve.DistributedOperand`.
    """

    def __init__(self, h: HSBCSRMatrix, device: VirtualDevice | None) -> None:
        self.h = h
        self.device = device
        self.n_dof = h.n * BS
        # priced once per solve (per device and region, like the SpMV's
        # launches) and recorded as is every iteration
        ops = _vector_ops_counters(self.n_dof, 5)
        self._vector_ops = PricedLaunches(("cg_vector_ops", ops))

    def wrap(self, preconditioner: Preconditioner | None) -> Preconditioner:
        """The preconditioner as this operand applies it (identity if
        omitted)."""
        if preconditioner is None:
            return IdentityPreconditioner()
        return preconditioner

    def begin(self, b: np.ndarray, x: np.ndarray) -> None:
        """Place the ``(n_dof,)`` right-hand side and first iterate."""

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``A @ v`` for ``(n_dof,)`` float64 ``v`` (:func:`pcg` checked it)."""
        y = self.h.op(v)
        if self.device is not None:
            record_spmv(self.h, self.device)
        return y

    def reduced(self, words: int = 1) -> None:
        """One reduction of ``words`` scalars reached the host."""

    def converged(self, preconditioner: Preconditioner) -> None:
        """The convergence test passed; one device has nothing in flight."""

    def vector_ops(self) -> None:
        """Charge one iteration's fused vector pass."""
        if self.device is not None:
            self._vector_ops.record(self.device)

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
        Warm-start iterate of the same shape (previous step's solution);
        zero if omitted.
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
        # the ledger prices the host's separate in-place passes (two
        # axpys, the residual dot, the direction update) as one kernel of
        # five fused axpy/dot-style passes per iteration
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
