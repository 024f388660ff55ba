"""Sparse triangular systems: ILU(0), level scheduling, and solves.

The ILU preconditioner needs two sparse triangular solves per PCG
iteration. Triangular solves have a sequential dependency chain; the
standard GPU mitigation is *level scheduling* — group rows whose
dependencies are already solved and launch one kernel per level. The
number of levels bounds the parallelism, and for DDA-like matrices it is
large enough that TSS costs ~an order of magnitude more than SpMV
(paper Fig. 10). :func:`level_schedule` computes the exact level structure
so the virtual-device model charges the real launch count.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.counters import KernelCounters
from repro.gpu.kernel import VirtualDevice
from repro.gpu.memory import coalesced_transactions
from repro.gpu.warp import WARP_SIZE
from repro.util.validation import check_array


def ilu0_factorize(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray
) -> np.ndarray:
    """In-pattern incomplete LU factorisation (IKJ ordering).

    Parameters
    ----------
    indptr, indices, data:
        CSR of a square matrix whose columns are sorted within each row
        and whose diagonal entries exist.

    Returns
    -------
    ndarray
        New data array holding L (strict lower, unit diagonal implied)
        and U (upper including diagonal) in the same CSR pattern.
    """
    indptr = check_array("indptr", indptr, dtype=np.int64, ndim=1)
    indices = check_array("indices", indices, dtype=np.int64, ndim=1)
    lu = check_array("data", data, dtype=np.float64, shape=(indices.shape[0],)).copy()
    n = indptr.size - 1
    # position of each (row, col) entry for O(1) lookups
    diag_pos = np.full(n, -1, dtype=np.int64)
    col_of: list[dict[int, int]] = []
    for i in range(n):
        row_cols = {}
        for p in range(indptr[i], indptr[i + 1]):
            row_cols[int(indices[p])] = p
            if indices[p] == i:
                diag_pos[i] = p
        col_of.append(row_cols)
    if np.any(diag_pos < 0):
        raise ValueError("matrix pattern must include every diagonal entry")

    for i in range(n):
        row = col_of[i]
        for p in range(indptr[i], indptr[i + 1]):
            k = int(indices[p])
            if k >= i:
                break
            dk = lu[diag_pos[k]]
            if dk == 0.0:
                raise ZeroDivisionError(f"zero pivot at row {k}")
            lik = lu[p] / dk
            lu[p] = lik
            # row_i -= lik * row_k, restricted to the pattern of row i
            for q in range(diag_pos[k] + 1, indptr[k + 1]):
                j = int(indices[q])
                pos = row.get(j)
                if pos is not None:
                    lu[pos] -= lik * lu[q]
    return lu


def level_schedule(
    indptr: np.ndarray, indices: np.ndarray, *, lower: bool = True
) -> np.ndarray:
    """Level (wavefront) number of each row of a triangular pattern.

    ``level[i] = 1 + max(level[j])`` over dependencies ``j`` of row ``i``
    (entries left of the diagonal for lower systems, right for upper).
    Rows sharing a level can be solved by one kernel launch; the number of
    distinct levels is the launch count of the level-scheduled TSS.
    """
    indptr = check_array("indptr", indptr, dtype=np.int64, ndim=1)
    indices = check_array("indices", indices, dtype=np.int64, ndim=1)
    n = indptr.size - 1
    level = np.zeros(n, dtype=np.int64)
    rows = range(n) if lower else range(n - 1, -1, -1)
    for i in rows:
        deps = indices[indptr[i] : indptr[i + 1]]
        deps = deps[deps < i] if lower else deps[deps > i]
        if deps.size:
            level[i] = level[deps].max() + 1
    return level


def tss_counters(n: int, nnz_tri: int, n_levels: int) -> KernelCounters:
    """One level-scheduled solve (``n`` rows, ``nnz_tri`` strict triangle
    entries, ``n_levels`` levels) as cuSPARSE-style csrsv runs it: ONE
    kernel whose levels synchronize in-kernel through global atomics, a
    dependent round-trip through L2 each rather than a host launch. That
    makes TSS ~an order of magnitude slower than SpMV at DDA-like level
    depths, instead of three orders."""
    return KernelCounters(
        flops=2.0 * nnz_tri + n,
        global_bytes_read=nnz_tri * 12.0 + n * 8,
        global_bytes_written=n * 8.0,
        global_txn_read=coalesced_transactions(max(1, nnz_tri), 12),
        global_txn_written=coalesced_transactions(n, 8),
        texture_bytes=nnz_tri * 8.0,  # x gathers
        threads=max(1, n),
        warps=max(1, n // WARP_SIZE),
        # ~25 ns of dependency latency per level (12.5 atomic ops at the
        # 2 ns atomic cost)
        atomic_ops=12.5 * n_levels,
    )


def sparse_triangular_solve(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    b: np.ndarray,
    *,
    lower: bool = True,
    unit_diagonal: bool = False,
    device: VirtualDevice | None = None,
    levels: np.ndarray | None = None,
) -> np.ndarray:
    """Solve a sparse triangular system (CSR pattern of the full matrix).

    The CSR arrays describe the full matrix; only the relevant triangle
    (plus diagonal, unless ``unit_diagonal``) is read. When ``device`` is
    given the level-scheduled kernel sequence is recorded — one launch per
    level, each dominated by its launch overhead at DDA-like level widths
    (this is why TSS is ~11x slower than SpMV in Fig. 10).
    """
    indptr = check_array("indptr", indptr, dtype=np.int64, ndim=1)
    indices = check_array("indices", indices, dtype=np.int64, ndim=1)
    data = check_array("data", data, dtype=np.float64, shape=(indices.shape[0],))
    n = indptr.size - 1
    b = check_array("b", b, dtype=np.float64, shape=(n,))
    if levels is None:
        levels = level_schedule(indptr, indices, lower=lower)
    n_levels = int(levels.max()) + 1 if n else 0

    # --- vectorised level sweep (the GPU algorithm itself) -----------
    row_of = np.repeat(np.arange(n), np.diff(indptr))
    tri = indices < row_of if lower else indices > row_of
    tri_rows = row_of[tri]
    tri_cols = indices[tri]
    tri_vals = data[tri]
    if unit_diagonal:
        diag_vals = np.ones(n)
    else:
        diag_vals = np.zeros(n)
        on_diag = indices == row_of
        diag_vals[row_of[on_diag]] = data[on_diag]
        if np.any(diag_vals == 0.0):
            bad = int(np.flatnonzero(diag_vals == 0.0)[0])
            raise ZeroDivisionError(f"zero/missing diagonal at row {bad}")
    # presort entries and rows by level so each sweep touches only its slice
    entry_level = levels[tri_rows]
    e_order = np.argsort(entry_level, kind="stable")
    tri_rows, tri_cols, tri_vals = (
        tri_rows[e_order], tri_cols[e_order], tri_vals[e_order]
    )
    e_bounds = np.searchsorted(entry_level[e_order], np.arange(n_levels + 1))
    r_order = np.argsort(levels, kind="stable")
    r_bounds = np.searchsorted(levels[r_order], np.arange(n_levels + 1))

    x = np.zeros(n)
    s = np.zeros(n)
    for lvl in range(n_levels):
        e0, e1 = e_bounds[lvl], e_bounds[lvl + 1]
        if e1 > e0:
            np.add.at(
                s, tri_rows[e0:e1], tri_vals[e0:e1] * x[tri_cols[e0:e1]]
            )
        rows_here = r_order[r_bounds[lvl] : r_bounds[lvl + 1]]
        x[rows_here] = (b[rows_here] - s[rows_here]) / diag_vals[rows_here]

    if device is not None:
        device.launch("tss_levelsync", tss_counters(n, tri_rows.size, n_levels))
    return x
