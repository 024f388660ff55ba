"""The compiled SpMV operators of the scatter seam, held to SciPy.

:class:`BlockRowProduct` and :class:`GatherSegmentSum` call SciPy's
private BSR / CSR matvec kernels directly. Each must stay bit-equal —
sign of zero included — to the public ``bsr_array @ x`` /
``csr_array @ v`` it replaces and to a pure-Python left-to-right loop,
so a SciPy release that renames, re-signs or re-orders those kernels
fails here rather than moving an iterate.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import bsr_array, csr_array

from repro.primitives.scatter import BlockRowProduct, GatherSegmentSum
from repro.solvers.preconditioners import SSORAIPreconditioner
from repro.spmv.hsbcsr import TwoStageOperator
from repro.spmv.synthetic import synthetic_block_matrix

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The seam's private kernels first, then ``scipy.sparse``'s own copy:
#: two modules, the same loops, the same bits — ``-0.0``, NaN and empty
#: segments included.
COEXIST = """
import sys
import numpy as np
from repro.primitives import scatter
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
from scipy.sparse import _sparsetools as public
private = sys.modules["repro.primitives._sparsetools"]
assert private is not public and scatter.bsr_matvec is private.bsr_matvec
assert private.bsr_matvec is not public.bsr_matvec

rng = np.random.default_rng(0)
nan, neg = float("nan"), -0.0
blocks = rng.normal(size=(5, 6, 6))
blocks[0], blocks[1, 2] = neg, nan
index = np.array([3, 0, 3, 1, 2], dtype=np.int64)
x = rng.normal(size=24)
x[6:12], x[19] = neg, nan
row_of = np.arange(6, dtype=np.int64)
indptr = np.array([0, 0, 2, 2, 5, 5], dtype=np.int64)   # empty segments
gather = np.array([4, 0, 2, 1, 3], dtype=np.int64)
v = rng.normal(size=(5, 6))
v[0], v[2, 1] = neg, nan
out = []
for kernels in (private, public):
    y, s = np.zeros((5, 6)), np.zeros((5, 6))
    kernels.bsr_matvec(5, 4, 6, 6, row_of, index, blocks, x, y)
    kernels.csr_matvecs(5, 5, 6, indptr, gather, np.ones(5), v, s)
    out.append(np.concatenate([y, s]).view(np.int64))
assert (out[0] == out[1]).all(), "the two copies disagree"
assert np.isnan(y[1, 2]) and np.isnan(s[3, 1]) and not s[[0, 2, 4]].any()
"""


def bits(a) -> np.ndarray:
    """The float64 bit patterns of ``a``: ``-0.0`` differs from ``0.0``."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def assert_bits_equal(a, b) -> None:
    assert np.shape(a) == np.shape(b)
    np.testing.assert_array_equal(bits(a), bits(b))


def oracle_stage1(blocks, index, x, b):
    """Row ``k``: ``blocks[k] @ x[index[k]]``, each dot from ``0.0``."""
    xb = x.reshape(-1, b).tolist()
    out = []
    for blk, j in zip(blocks.tolist(), index.tolist()):
        row = []
        for coeffs in blk:
            acc = 0.0
            for c, v in zip(coeffs, xb[j]):
                acc += c * v
            row.append(acc)
        out.append(row)
    return np.array(out, dtype=np.float64).reshape(len(out), b)


def oracle_stage2(v, indptr, gather):
    """Segment sums of ``v[gather[p]]`` from ``0.0``, left to right."""
    rows = v.tolist()
    out = []
    for lo, hi in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
        acc = [0.0] * v.shape[1]
        for p in range(lo, hi):
            acc = [s + t for s, t in zip(acc, rows[gather[p]])]
        out.append(acc)
    return np.array(out, dtype=np.float64).reshape(len(out), v.shape[1])


def signed_values(rng, shape):
    """Wide-ranging values with exact zeros of both signs mixed in."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7, size=shape)
    zeros = rng.random(shape) < 0.2
    values[zeros] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zeros]
    return values


@st.composite
def stage1_case(draw):
    b = draw(st.sampled_from([1, 2, 6]))
    m = draw(st.integers(0, 12))
    n_in = draw(st.integers(1, 7))          # need not equal m or any n_out
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (
        signed_values(rng, (m, b, b)),
        rng.integers(0, n_in, size=m).astype(np.int64),
        n_in,
        signed_values(rng, (n_in * b,)),
    )


@st.composite
def stage2_case(draw):
    b = draw(st.sampled_from([1, 6]))
    n = draw(st.integers(0, 8))
    counts = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    m = sum(counts)                         # zero counts: empty segments
    extra = draw(st.integers(0, 3))         # rows of v no segment reads
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return indptr, rng.permutation(m).astype(np.int64), signed_values(
        rng, (m + extra, b)
    )


@given(stage1_case())
@settings(max_examples=80, deadline=None)
def test_block_row_product_is_public_bsr_and_left_to_right(case):
    blocks, index, n_in, x = case
    m, b = blocks.shape[0], blocks.shape[1]
    y = BlockRowProduct(blocks, index, n_in)(x)
    public = bsr_array(
        (blocks, index, np.arange(m + 1)), shape=(m * b, n_in * b)
    ) @ x
    assert_bits_equal(y, public.reshape(m, b))
    assert_bits_equal(y, oracle_stage1(blocks, index, x, b))


@given(stage2_case())
@settings(max_examples=80, deadline=None)
def test_gather_segment_sum_is_public_csr_and_left_to_right(case):
    indptr, gather, v = case
    m = gather.size
    y = GatherSegmentSum(indptr, gather)(v)
    public = csr_array(
        (np.ones(m), gather, indptr), shape=(indptr.size - 1, m)
    ) @ v[:m]
    assert_bits_equal(y, public)
    assert_bits_equal(y, oracle_stage2(v, indptr, gather))


@st.composite
def scatter_case(draw):
    """Targets with repeats (few rows, many entries) or none at all."""
    b = draw(st.sampled_from([1, 6]))
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(0, n, size=m).astype(np.int64), n, signed_values(
        rng, (m, b)
    )


@given(scatter_case())
@settings(max_examples=80, deadline=None)
def test_scatter_is_np_add_at_bit_for_bit(case):
    targets, n, v = case
    expected = np.zeros((n, v.shape[1]))
    np.add.at(expected, targets, v)
    got = GatherSegmentSum.scatter(targets, n)(v)
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_negative_zero_products_sum_to_positive_zero():
    # every product is -0.0; a sum started at 0.0 stays +0.0
    blocks = -np.ones((2, 6, 6))
    y = BlockRowProduct(blocks, np.array([0, 1]), 2)(np.zeros(12))
    assert_bits_equal(y, np.zeros((2, 6)))
    s = GatherSegmentSum(np.array([0, 2]), np.array([1, 0]))(
        np.full((2, 6), -0.0)
    )
    assert_bits_equal(s, np.zeros((1, 6)))


def test_no_contacts():
    blocks = np.zeros((0, 6, 6))
    y = BlockRowProduct(blocks, np.zeros(0, dtype=np.int64), 3)(np.ones(18))
    assert y.shape == (0, 6)
    s = GatherSegmentSum(np.zeros(4, dtype=np.int64), np.zeros(0, np.int64))(y)
    assert_bits_equal(s, np.zeros((3, 6)))


def test_a_call_never_reads_past_its_input():
    product = BlockRowProduct(np.ones((2, 6, 6)), np.array([0, 2]), 3)
    with pytest.raises(ValueError, match="x"):
        product(np.ones(12))
    reduce = GatherSegmentSum(np.array([0, 1, 3]), np.array([2, 0, 1]))
    with pytest.raises(ValueError, match="rows"):
        reduce(np.ones((2, 6)))


def test_operator_halves_are_views_of_the_one_stacked_call(rng):
    a = synthetic_block_matrix(14, 30, seed=4)
    x = rng.normal(size=a.n * 6)
    op = TwoStageOperator.from_block_matrix(a)
    m, n = a.n_offdiag, a.n
    v = op.stage1(x)
    s = op.stage2(v)
    assert v.shape == (2 * m + n, 6) and s.shape == (2 * n, 6)
    assert_bits_equal(op.upper(x), s[:n])
    assert_bits_equal(op.lower(x), s[n:])
    assert_bits_equal(op.diag_product(x), v[2 * m :])
    assert_bits_equal(op(x), ((s[:n] + s[n:]) + v[2 * m :]).reshape(-1))
    # one payload: the halves are row ranges of it, not copies
    for half in (op.up_product, op.low_product, op.diag_product):
        assert np.shares_memory(half.blocks, op.stage1.blocks)
        assert np.shares_memory(half.index, op.stage1.index)
    ssor = SSORAIPreconditioner(a).op
    assert_bits_equal(ssor.upper(x), s[:n])
    assert_bits_equal(ssor.lower(x), s[n:])


def test_only_the_seam_names_the_private_kernels():
    naming = sorted(
        str(p.relative_to(SRC)) for p in SRC.rglob("*.py")
        if "_sparsetools" in p.read_text(encoding="utf-8")
    )
    assert naming == ["primitives/scatter.py"]


def test_private_kernels_coexist_with_scipy_sparse_bit_for_bit():
    done = subprocess.run(
        [sys.executable, "-c", COEXIST], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
        )}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
