"""PCG preconditioners: the paper's BJ, SSOR-AI and ILU(0), plus identity.

Each preconditioner separates **construction** (once per solve — Table I
column "Construction Time") from **application** (once per CG iteration —
"Implementation Time"), and records both on the virtual device. All
preconditioners are symmetric positive definite operators, as PCG
requires.
"""

from __future__ import annotations

import numpy as np

from repro.assembly.global_matrix import BS, BlockMatrix
from repro.gpu.counters import KernelCounters
from repro.gpu.kernel import PricedLaunches, VirtualDevice
from repro.gpu.memory import coalesced_transactions, streamed
from repro.gpu.warp import WARP_SIZE
from repro.primitives.scatter import BlockRowProduct
from repro.solvers.triangular import (
    ilu0_factorize,
    level_schedule,
    sparse_triangular_solve,
    tss_counters,
)
from repro.spmv.hsbcsr import ZeroSkippingOperator
from repro.util.validation import check_array


class Preconditioner:
    """Interface: ``apply(r)`` returns ``M^{-1} r``; ``launches`` is what
    one application records on a device (none for the identity)."""

    name = "base"
    launches = PricedLaunches()

    def apply(self, r: np.ndarray, device: VirtualDevice | None = None) -> np.ndarray:
        raise NotImplementedError


class IdentityPreconditioner(Preconditioner):
    """No preconditioning (plain CG): what ``pcg`` applies when it is
    given no preconditioner."""

    name = "none"

    def apply(self, r: np.ndarray, device: VirtualDevice | None = None) -> np.ndarray:
        return r.copy()


class BlockJacobiPreconditioner(Preconditioner):
    """Inverse of each 6x6 diagonal block (the paper's BJ)."""

    name = "bj"

    def __init__(self, a: BlockMatrix, device: VirtualDevice | None = None) -> None:
        self.n = a.n
        self.inverse = BlockRowProduct(np.linalg.inv(a.diag), np.arange(a.n), a.n)
        self.launches = PricedLaunches(("bj_apply", streamed(
            self.n * (BS * BS + BS), self.n * BS, 2.0 * self.n * BS * BS,
            self.n * BS,
        )))
        if device is not None:
            # one small dense inversion per block (LU of 6x6: ~2/3*6^3 flops)
            device.launch("bj_construct", streamed(
                a.n * BS * BS, a.n * BS * BS,
                (2.0 / 3.0) * BS**3 * a.n + 2.0 * BS * BS * a.n, a.n * BS,
            ))

    def apply(self, r: np.ndarray, device: VirtualDevice | None = None) -> np.ndarray:
        """``M^{-1} r`` for ``(n*6,)`` float64 ``r`` (``pcg`` checked it)."""
        z = self.inverse(r)
        if device is not None:
            self.launches.record(device)
        return z.reshape(-1)


class SSORAIPreconditioner(Preconditioner):
    """SSOR approximate inverse (first-order Neumann; Rudi & Koko 2012).

    ``M^{-1} = w(2 - w) W D W^T`` with ``W = D^{-1} - w D^{-1} U D^{-1}``
    (``U`` the strict block upper triangle, ``L = U^T``). As
    ``W D = I - w D^{-1} U``, application is
    ``t = D^{-1} r``, ``v = t - w D^{-1} (L t)``,
    ``z = w(2 - w) (v - w D^{-1} (U v))``: two triangular SpMVs and
    three block-diagonal products — *no* triangular solves, which is the
    whole point on the GPU.
    """

    name = "ssor"

    def __init__(
        self,
        a: BlockMatrix,
        device: VirtualDevice | None = None,
        *,
        omega: float = 1.0,
    ) -> None:
        if not (0.0 < omega < 2.0):
            raise ValueError(f"omega must be in (0, 2), got {omega}")
        # the strict upper / lower triangular SpMVs are the two halves of
        # the HSBCSR kernel (the operators the construct launch stages);
        # the host skips the all-zero blocks the launches still price
        self.op = ZeroSkippingOperator.of(a)
        self.omega = omega
        self.inverse = BlockRowProduct(np.linalg.inv(a.diag), np.arange(a.n), a.n)
        self.scale = omega * (2.0 - omega)
        m = a.n_offdiag
        self.launches = PricedLaunches(("ssor_ai_apply", KernelCounters(
            # two triangular SpMVs + three block-diagonal products
            flops=2.0 * (2 * m * BS * BS) + 3.0 * 2 * a.n * BS * BS,
            global_bytes_read=(m + 3 * a.n) * BS * BS * 8.0
            + 4.0 * a.n * BS * 8,
            global_bytes_written=a.n * BS * 8.0,
            global_txn_read=coalesced_transactions(
                (m + 3 * a.n) * BS * BS, 8
            ),
            global_txn_written=coalesced_transactions(a.n * BS, 8),
            texture_bytes=2.0 * m * BS * 8,
            threads=max(a.n, m) * BS,
            warps=max(1, max(a.n, m) * BS // WARP_SIZE),
        )))
        if device is not None:
            # beyond the block inversions, SSOR-AI stages the scaled
            # triangular operators (reads the off-diagonal blocks once)
            device.launch("ssor_ai_construct", streamed(
                (a.n + m) * BS * BS, (a.n + m) * BS * BS,
                (2.0 / 3.0) * BS**3 * a.n + BS * BS * (a.n + 2.0 * m),
                (a.n + m) * BS,
            ))

    def _d_inverse(self, x: np.ndarray) -> np.ndarray:
        """``D^{-1} x``, ``(n, 6)``, for ``x`` holding ``n*6`` entries."""
        return self.inverse(x.reshape(-1))

    def apply(self, r: np.ndarray, device: VirtualDevice | None = None) -> np.ndarray:
        """``M^{-1} r`` for ``(n*6,)`` float64 ``r`` (``pcg`` checked it)."""
        dinv, w = self._d_inverse, self.omega
        t = dinv(r)
        v = t - w * dinv(self.op.lower(t.reshape(-1)))  # W^T r
        z = v - w * dinv(self.op.upper(v.reshape(-1)))  # W D W^T r
        if device is not None:
            self.launches.record(device)
        return (self.scale * z).reshape(-1)


class ILU0Preconditioner(Preconditioner):
    """ILU(0) with level-scheduled triangular solves (cuSPARSE-style)."""

    name = "ilu"

    def __init__(self, a: BlockMatrix, device: VirtualDevice | None = None) -> None:
        self.indptr, self.indices, data = a.to_csr_arrays()
        self.lu = ilu0_factorize(self.indptr, self.indices, data)
        self.lower_levels = level_schedule(self.indptr, self.indices, lower=True)
        self.upper_levels = level_schedule(self.indptr, self.indices, lower=False)
        self.n_rows = a.n * BS
        row_of = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        self.launches = PricedLaunches(*(  # the lower, then the upper solve
            ("tss_levelsync", tss_counters(
                self.n_rows, int(np.count_nonzero(tri)), int(lv.max()) + 1
            ))
            for tri, lv in ((self.indices < row_of, self.lower_levels),
                            (self.indices > row_of, self.upper_levels))
        ))
        if device is not None:
            nnz = self.indices.size
            # sequential-ish factorisation: modelled as a level sweep with
            # strong serialisation (analysis kernel + numeric kernel)
            n_lv = int(self.lower_levels.max()) + 1
            device.launch(
                "ilu0_construct",
                KernelCounters(
                    flops=6.0 * nnz,
                    global_bytes_read=3.0 * nnz * 12,
                    global_bytes_written=nnz * 8.0,
                    global_txn_read=3 * coalesced_transactions(nnz, 12),
                    global_txn_written=coalesced_transactions(nnz, 8),
                    texture_bytes=2.0 * nnz * 8,
                    threads=self.n_rows,
                    warps=max(1, self.n_rows // WARP_SIZE),
                    # serialized level structure dominates: charge the
                    # launch chain explicitly
                    atomic_ops=float(n_lv) * 2500.0,
                ),
            )

    def apply(self, r: np.ndarray, device: VirtualDevice | None = None) -> np.ndarray:
        r = check_array("r", r, dtype=np.float64, shape=(self.n_rows,))
        y = sparse_triangular_solve(
            self.indptr, self.indices, self.lu, r,
            lower=True, unit_diagonal=True, levels=self.lower_levels,
        )
        z = sparse_triangular_solve(
            self.indptr, self.indices, self.lu, y,
            lower=False, unit_diagonal=False, levels=self.upper_levels,
        )
        if device is not None:
            self.launches.record(device)
        return z


_REGISTRY = {
    "bj": BlockJacobiPreconditioner,
    "ssor": SSORAIPreconditioner,
    "ilu": ILU0Preconditioner,
}

#: Preconditioners ordered by strength, weakest first — the escalation
#: axis of the solver fallback ladder (see
#: :func:`repro.engine.resilience.solver_ladder`).
STRENGTH_ORDER = ("bj", "ssor", "ilu")


def stronger_preconditioner(name: str) -> str:
    """The next-stronger preconditioner after ``name``.

    Returns ``name`` unchanged when it is already the strongest (or
    unknown, to stay permissive toward future registrations).
    """
    try:
        idx = STRENGTH_ORDER.index(name)
    except ValueError:
        return name
    return STRENGTH_ORDER[min(idx + 1, len(STRENGTH_ORDER) - 1)]


def make_preconditioner(
    name: str, a: BlockMatrix, device: VirtualDevice | None = None
) -> Preconditioner:
    """Construct a preconditioner by name.

    Known names: ``bj``, ``ssor`` and ``ilu`` (:data:`STRENGTH_ORDER`).
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown preconditioner {name!r}; known: "
            f"{STRENGTH_ORDER}"
        ) from None
    return cls(a, device)
