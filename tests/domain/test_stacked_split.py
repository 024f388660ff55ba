"""The stacked domain split: what values alone cannot see.

Every slot of one global block holds the same number after an exchange,
so a row that read a *neighbour's* copy would pass every bit-identity
test. These check the split's structure instead: which slots a row
reads, how many compiled products a distributed SpMV makes, and when a
kept split may be reused.
"""

import numpy as np
import pytest

from repro.assembly.global_matrix import BS, BlockMatrix
from repro.domain.assembly import split_matrix
from repro.domain.halo import (
    DomainMap,
    HaloExchanger,
    build_exchange_plan,
    make_domain_devices,
)
from repro.domain.solve import DistributedOperand
from repro.gpu.device import K40
from repro.primitives.scatter import BlockRowProduct, GatherSegmentSum
from repro.spmv.hsbcsr import HSBCSRMatrix, hsbcsr_spmv
from repro.spmv.synthetic import synthetic_block_matrix

N, M = 12, 24


def stripes(n_domains, n=N):
    return np.arange(n, dtype=np.int64) * n_domains // n


def operand(matrix, labels, n_domains):
    dmap = DomainMap.from_labels(np.asarray(labels, dtype=np.int64), n_domains)
    plan = build_exchange_plan(dmap, matrix.rows, matrix.cols)
    exchanger = HaloExchanger(dmap, plan, make_domain_devices(n_domains, K40))
    return DistributedOperand(split_matrix(matrix, dmap, plan), exchanger)


def reference(matrix, x):
    return hsbcsr_spmv(HSBCSRMatrix.from_block_matrix(matrix), x)


def vector(n=N, seed=5):
    return np.random.default_rng(seed).normal(size=n * BS)


# ----------------------------------------------------------------------
# (a) isolation: a row reads its owner's slot range and nothing else
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_domains", [2, 3, 4, 8])
def test_every_gather_lies_in_the_slot_range_of_the_rows_owner(n_domains):
    matrix = synthetic_block_matrix(N, M, seed=3)
    split = operand(matrix, stripes(n_domains), n_domains).split
    labels, offsets = split.dmap.labels, split.plan.offsets
    for product, row_owner in (
        (split.op.up_product, labels[matrix.rows]),    # row i of (i, j)
        (split.op.low_product, labels[matrix.cols]),   # row j of its transpose
        (split.op.diag_product, labels),
    ):
        assert (product.index >= offsets[row_owner]).all()
        assert (product.index < offsets[row_owner + 1]).all()
    # and each slot holds the block the global kernel reads there
    np.testing.assert_array_equal(
        split.plan.ext_ids[split.op.up_product.index], matrix.cols
    )
    np.testing.assert_array_equal(
        split.plan.ext_ids[split.op.low_product.index], matrix.rows
    )
    np.testing.assert_array_equal(
        split.plan.ext_ids[split.op.diag_product.index], np.arange(N)
    )


@pytest.mark.parametrize("n_domains", [2, 3, 4, 8])
def test_poisoning_every_other_domain_leaves_owned_rows_bit_equal(n_domains):
    matrix = synthetic_block_matrix(N, M, seed=3)
    op = operand(matrix, stripes(n_domains), n_domains)
    x = vector()
    ref = reference(matrix, x).reshape(N, BS)
    ext = op.exchanger.exchange(x).reshape(-1, BS)
    offsets = op.split.plan.offsets
    for d, own in enumerate(op.split.dmap.owned):
        poisoned = np.full_like(ext, np.nan)
        poisoned[offsets[d] : offsets[d + 1]] = ext[offsets[d] : offsets[d + 1]]
        y = op.split.op(poisoned.reshape(-1)).reshape(N, BS)
        np.testing.assert_array_equal(y[own], ref[own])
        # the poison is live: every row of a domain that reads a slot
        # (every block has a diagonal) comes out NaN
        assert np.isnan(np.delete(y, own, axis=0)).any(axis=1).all()


def matrix_and_labels(kind, n_domains, slope_partitions):
    if kind == "slope":
        matrix, labels = slope_partitions
        return matrix, labels[n_domains]
    # banded coupling under stripes: boundary and interior rows at 2-8
    return synthetic_block_matrix(160, 320, seed=2), stripes(n_domains, 160)


@pytest.mark.parametrize("kind", ["synthetic", "slope"])
@pytest.mark.parametrize("n_domains", [2, 4, 8])
def test_interior_rows_read_no_ghost(kind, n_domains, slope_partitions):
    """With every ghost slot NaN, the rows the split calls interior —
    the ones a device multiplies while its exchange is in flight — still
    equal the global product bit for bit, and every other row is NaN:
    the classification is exact, not merely safe."""
    matrix, labels = matrix_and_labels(kind, n_domains, slope_partitions)
    op = operand(matrix, labels, n_domains)
    x = vector(matrix.n)
    ref = reference(matrix, x).reshape(matrix.n, BS)
    ext = op.exchanger.exchange(x).reshape(-1, BS)
    plan = op.split.plan
    for d, own in enumerate(op.split.dmap.owned):
        ext[plan.offsets[d] + own.size : plan.offsets[d + 1]] = np.nan
    y = op.split.op(ext.reshape(-1)).reshape(matrix.n, BS)
    interior = op.split.interior()
    assert interior.any() and not interior.all()
    np.testing.assert_array_equal(y[interior], ref[interior])
    assert np.isnan(y[~interior]).all()


# ----------------------------------------------------------------------
# (b) work count: two compiled products at any domain count
# ----------------------------------------------------------------------
@pytest.fixture
def products(monkeypatch):
    """Count the compiled products (stage 1 + stage 2 calls)."""
    made = []
    for cls in (BlockRowProduct, GatherSegmentSum):
        call = cls.__call__

        def counted(self, x, call=call):
            made.append(type(self).__name__)
            return call(self, x)

        monkeypatch.setattr(cls, "__call__", counted)
    return made


@pytest.mark.parametrize("n_domains", [1, 2, 4, 8])
def test_a_distributed_spmv_is_two_compiled_products(products, n_domains):
    matrix = synthetic_block_matrix(N, M, seed=3)
    op = operand(matrix, stripes(n_domains), n_domains)
    x = vector()
    y = op.matvec(x)
    # one stage-1 product (up, transposed, diagonal), then one stage-2
    # reduction (up and low segments)
    assert products == ["BlockRowProduct", "GatherSegmentSum"]
    del products[:]
    np.testing.assert_array_equal(y, reference(matrix, x))
    # the single-device kernel: the same two
    assert products == ["BlockRowProduct", "GatherSegmentSum"]


# ----------------------------------------------------------------------
# (c) bits: degenerate partitions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("labels, n_domains", [
    ([0] * 4 + [2] * 4 + [4] * 4, 5),            # domains 1 and 3 own nothing
    (list(range(N)), N + 3),                     # more domains than blocks
    ([3] * N, 4),                                # everything on the last one
])
def test_empty_domains(labels, n_domains):
    matrix = synthetic_block_matrix(N, M, seed=3)
    op = operand(matrix, labels, n_domains)
    counts = np.bincount(labels, minlength=n_domains)
    np.testing.assert_array_equal(
        np.diff(op.split.plan.offsets)[counts == 0], 0
    )
    x = vector()
    np.testing.assert_array_equal(op.matvec(x), reference(matrix, x))
    # an empty domain still gets its (zero-sized) diagonal launch, as
    # the per-domain kernel charged it
    for d in np.flatnonzero(counts == 0):
        assert [r.name for r in op.exchanger.devices[d].records] == [
            "domain_spmv_diag"
        ]


def test_a_domain_without_ghosts():
    # blocks 0-3 couple only among themselves; 4-11 among themselves
    a = synthetic_block_matrix(4, 5, seed=1)
    b = synthetic_block_matrix(8, 12, seed=2)
    matrix = BlockMatrix(
        n=N,
        diag=np.concatenate([a.diag, b.diag]),
        rows=np.concatenate([a.rows, b.rows + 4]),
        cols=np.concatenate([a.cols, b.cols + 4]),
        blocks=np.concatenate([a.blocks, b.blocks]),
    )
    op = operand(matrix, [0] * 4 + [1] * 4 + [2] * 4, 3)
    plan = op.split.plan
    assert plan.ghosts[0].size == 0 and plan.ghosts[1].size > 0
    assert all(0 not in (src, dst) for src, dst, _ in plan.sends)
    x = vector()
    np.testing.assert_array_equal(op.matvec(x), reference(matrix, x))
    assert not any(
        r.name.startswith("pcie_") for r in op.exchanger.devices[0].records
    )


# ----------------------------------------------------------------------
# (d) reuse: exact pattern gate, payload-only refresh
# ----------------------------------------------------------------------
def revalued(matrix, seed=9):
    """Same pattern (fresh index arrays), new payloads."""
    rng = np.random.default_rng(seed)
    return BlockMatrix(
        n=matrix.n,
        diag=matrix.diag * rng.uniform(1.0, 2.0, size=(matrix.n, 1, 1)),
        rows=matrix.rows.copy(),
        cols=matrix.cols.copy(),
        blocks=matrix.blocks * rng.uniform(-1.0, 1.0, size=(M, 1, 1)),
    )


@pytest.mark.parametrize("n_domains", [1, 4])
def test_same_pattern_shares_everything_but_the_payloads(n_domains):
    matrix = synthetic_block_matrix(N, M, seed=3)
    kept = operand(matrix, stripes(n_domains), n_domains)
    other = revalued(matrix)
    assert kept.split.matches(other, kept.split.dmap)
    hit = kept.with_values(other)
    assert hit.exchanger is kept.exchanger
    assert hit.split.plan is kept.split.plan
    assert hit._spmv is kept._spmv and hit._vector_ops is kept._vector_ops
    assert hit.split.m_up is kept.split.m_up
    for stage in ("up_reduce", "low_reduce"):
        assert getattr(hit.split.op, stage) is getattr(kept.split.op, stage)
    for stage in ("up_product", "low_product", "diag_product"):
        assert np.shares_memory(
            getattr(hit.split.op, stage).index,
            getattr(kept.split.op, stage).index,
        )
    assert hit.split.matrix is other
    x = vector()
    fresh = operand(other, stripes(n_domains), n_domains)
    np.testing.assert_array_equal(hit.matvec(x), fresh.matvec(x))
    np.testing.assert_array_equal(hit.matvec(x), reference(other, x))
    # the kept operand still multiplies by its own values
    np.testing.assert_array_equal(kept.matvec(x), reference(matrix, x))
    owned = kept.split.dmap.owned[0]
    np.testing.assert_array_equal(hit.split.matrix.diag[owned], other.diag[owned])


def test_any_other_pattern_or_ownership_misses():
    matrix = synthetic_block_matrix(N, M, seed=3)
    split = operand(matrix, stripes(4), 4).split
    dmap = split.dmap
    assert split.matches(matrix, dmap)
    keep = np.arange(M) != M // 2
    dropped = BlockMatrix(
        n=N, diag=matrix.diag, rows=matrix.rows[keep],
        cols=matrix.cols[keep], blocks=matrix.blocks[keep],
    )
    assert not split.matches(dropped, dmap)
    # same count, one entry moved to a free coordinate
    free = next(
        (i, j) for i in range(N) for j in range(i + 1, N)
        if not ((matrix.rows == i) & (matrix.cols == j)).any()
    )
    rows, cols = matrix.rows.copy(), matrix.cols.copy()
    rows[0], cols[0] = free
    order = np.lexsort((cols, rows))
    moved = BlockMatrix(
        n=N, diag=matrix.diag, rows=rows[order], cols=cols[order],
        blocks=matrix.blocks[order],
    )
    assert not split.matches(moved, dmap)
    # another ownership map, even an equal one
    assert not split.matches(matrix, DomainMap.from_labels(stripes(4), 4))
    assert not split.matches(matrix, DomainMap.from_labels(stripes(3), 3))
    # another size under the same coordinates
    grown = BlockMatrix(
        n=N + 1, diag=np.concatenate([matrix.diag, matrix.diag[:1]]),
        rows=matrix.rows, cols=matrix.cols, blocks=matrix.blocks,
    )
    assert not split.matches(grown, dmap)
