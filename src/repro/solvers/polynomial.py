"""Polynomial (Neumann-series) preconditioner.

The paper's related work notes that "sparse approximate inverse and
polynomial preconditioners on the GPU have also been reported" as the
other family of triangular-solve-free options. This implements the
classic Neumann polynomial preconditioner around the block-Jacobi split:

    A = D (I - N),  N = -D^{-1} (A - D)
    M^{-1} = (I + N + N^2 + ... + N^k) D^{-1}

Application is ``k + 1`` block-diagonal multiplies and ``k`` SpMV-like
off-diagonal applications — pure streaming work, perfectly suited to the
GPU, converging (as a preconditioner) whenever the block-Jacobi iteration
matrix has spectral radius < 1, which DDA's inertia-dominated diagonals
guarantee for small enough time steps.

For even ``k`` the truncated series is symmetric positive definite (each
pair ``I + N`` groups into a square-like form around the SPD ``D``), so
PCG is safe; odd ``k`` is rejected to keep that guarantee simple.
"""

from __future__ import annotations

import numpy as np

from repro.assembly.global_matrix import BS, BlockMatrix
from repro.gpu.kernel import PricedLaunches, VirtualDevice
from repro.gpu.memory import streamed
from repro.solvers.preconditioners import Preconditioner


class NeumannPreconditioner(Preconditioner):
    """Truncated Neumann series around the block-Jacobi split."""

    name = "neumann"

    def __init__(
        self,
        a: BlockMatrix,
        device: VirtualDevice | None = None,
        *,
        order: int = 2,
    ) -> None:
        if order < 0 or order % 2 != 0:
            raise ValueError(
                f"order must be a non-negative even integer, got {order}"
            )
        self.a = a
        self.order = order
        self.inv_diag = np.linalg.inv(a.diag)
        m, k = a.n_offdiag, order
        self.launches = PricedLaunches(("neumann_apply", streamed(
            (k * m + (k + 1) * a.n) * BS * BS, a.n * BS,
            (k * (2 * 2 * m + 2 * a.n) + 2 * a.n) * BS * BS * 1.0,
            max(a.n, m) * BS, texture_bytes=2.0 * k * m * BS * 8,
        )))
        if device is not None:
            device.launch("neumann_construct", streamed(
                a.n * BS * BS, a.n * BS * BS, (2.0 / 3.0) * BS**3 * a.n,
                a.n * BS,
            ))

    def _offdiag_apply(self, xb: np.ndarray) -> np.ndarray:
        """(A - D) x using both stored triangles."""
        a = self.a
        y = np.zeros_like(xb)
        if a.n_offdiag:
            np.add.at(
                y, a.rows, np.einsum("mij,mj->mi", a.blocks, xb[a.cols])
            )
            np.add.at(
                y, a.cols,
                np.einsum("mji,mj->mi", a.blocks, xb[a.rows]),
            )
        return y

    def _dinv(self, xb: np.ndarray) -> np.ndarray:
        return np.einsum("nij,nj->ni", self.inv_diag, xb)

    def apply(self, r: np.ndarray, device: VirtualDevice | None = None) -> np.ndarray:
        """``M^{-1} r`` for ``(n*6,)`` float64 ``r`` (``pcg`` checked it)."""
        # Horner form: z_k = D^{-1} r; z_{j-1} = D^{-1} r + N z_j
        z = self._dinv(r.reshape(self.a.n, BS))
        base = z.copy()
        for _ in range(self.order):
            z = base - self._dinv(self._offdiag_apply(z))
        if device is not None:
            self.launches.record(device)
        return z.reshape(-1)
