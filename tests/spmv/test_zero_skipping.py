"""The host's product skips the all-zero off-diagonal blocks
(:class:`repro.spmv.hsbcsr.ZeroSkippingOperator`) and is still the full
:class:`~repro.spmv.hsbcsr.TwoStageOperator` bit for bit: the product,
both triangular halves, SSOR-AI's application and a whole block-Jacobi
PCG solve with its ledger, which prices every stored block."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assembly.global_matrix import BS
from repro.gpu.device import K40
from repro.gpu.kernel import VirtualDevice
from repro.solvers.cg import DeviceOperand, pcg
from repro.solvers.preconditioners import (
    BlockJacobiPreconditioner,
    SSORAIPreconditioner,
)
from repro.spmv.hsbcsr import HSBCSRMatrix, TwoStageOperator, ZeroSkippingOperator
from repro.spmv.synthetic import synthetic_block_matrix


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def with_zero_blocks(a, zero, rng):
    """``a`` with the off-diagonal blocks ``zero`` (a mask) replaced by
    zeros of either sign, entry by entry."""
    blocks = a.blocks.copy()
    blocks[zero] = np.where(rng.random((int(zero.sum()), BS, BS)) < 0.5, -0.0, 0.0)
    return dataclasses.replace(a, blocks=blocks)


@st.composite
def zero_patterns(draw):
    """A half-stored matrix whose off-diagonal blocks are none, some or
    all zero (``m = 0`` included), and a finite input of any scale."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 12))
    m = draw(st.integers(0, n * (n - 1) // 2))
    a = synthetic_block_matrix(n, m, rng)
    share = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    a = with_zero_blocks(a, rng.random(m) < share, rng)
    return a, rng.normal(size=n * BS) * 10.0 ** rng.integers(-6, 7)


def half_zero_matrix(seed=3):
    rng = np.random.default_rng(seed)
    a = synthetic_block_matrix(40, 90, seed=seed)
    return with_zero_blocks(a, np.arange(a.n_offdiag) % 2 == 0, rng)


@given(zero_patterns())
@settings(max_examples=80, deadline=None)
def test_equals_the_full_operator(case):
    a, x = case
    op, full = ZeroSkippingOperator.of(a), TwoStageOperator.from_block_matrix(a)
    kept = int(np.count_nonzero(a.blocks.reshape(a.n_offdiag, BS * BS).any(axis=1)))
    assert op.stage1.blocks.shape[0] == 2 * kept + a.n
    np.testing.assert_array_equal(bits(op(x)), bits(full(x)))
    np.testing.assert_array_equal(bits(op.upper(x)), bits(full.upper(x)))
    np.testing.assert_array_equal(bits(op.lower(x)), bits(full.lower(x)))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_a_non_finite_input_multiplies_every_block(bad):
    """``0 * inf`` is NaN: with an infinite or NaN entry the zero blocks
    matter, and the product runs over all of them."""
    a = half_zero_matrix()
    x = np.random.default_rng(0).normal(size=a.n * BS)
    x[a.cols[0] * BS] = bad  # block 0 is zero: row rows[0] reads it only there
    op, full = ZeroSkippingOperator.of(a), TwoStageOperator.from_block_matrix(a)
    nonzero = TwoStageOperator(op.stage1, op.stage2, op.up_reduce, op.low_reduce)
    assert np.isnan(full.upper(x)[a.rows[0]]).all()
    assert not np.isnan(nonzero.upper(x)[a.rows[0]]).all()  # the guard matters
    np.testing.assert_array_equal(bits(op(x)), bits(full(x)))
    np.testing.assert_array_equal(bits(op.upper(x)), bits(full.upper(x)))
    np.testing.assert_array_equal(bits(op.lower(x)), bits(full.lower(x)))


def test_a_rebuild_shares_the_structure_while_the_same_blocks_are_zero():
    a = half_zero_matrix()
    first = HSBCSRMatrix.from_block_matrix(a)
    scaled = dataclasses.replace(a, diag=a.diag * 1.5, blocks=a.blocks * 0.75)
    same = HSBCSRMatrix.from_block_matrix(scaled, structure=first)
    assert same.op.low_reduce is first.op.low_reduce
    assert same.op.stage1.blocks.shape == first.op.stage1.blocks.shape
    blocks = scaled.blocks.copy()
    blocks[1] = 0.0  # one more zero block: a new structure half
    other = dataclasses.replace(scaled, blocks=blocks)
    fewer = HSBCSRMatrix.from_block_matrix(other, structure=first)
    assert fewer.row_low_p is first.row_low_p
    assert fewer.op.low_reduce is not first.op.low_reduce
    x = np.random.default_rng(1).normal(size=a.n * BS)
    for h, matrix in ((same, scaled), (fewer, other)):
        full = TwoStageOperator.from_block_matrix(matrix)
        np.testing.assert_array_equal(bits(h.op(x)), bits(full(x)))


def test_ssor_ai_application_is_unchanged():
    a = half_zero_matrix()
    ssor = SSORAIPreconditioner(a)
    reference = SSORAIPreconditioner(a)
    reference.op = TwoStageOperator.from_block_matrix(a)
    r = np.random.default_rng(2).normal(size=a.n * BS)
    np.testing.assert_array_equal(bits(ssor.apply(r)), bits(reference.apply(r)))


def test_block_jacobi_solve_and_ledger_are_unchanged():
    """The whole solve over the skipping operand equals one over the full
    operator: solution, iterations, residual series and every priced
    launch record (the ledger prices the stored pattern either way)."""
    a = half_zero_matrix()
    b = a.matvec(np.random.default_rng(4).normal(size=a.n * BS))
    h = HSBCSRMatrix.from_block_matrix(a)
    full = dataclasses.replace(h, op=TwoStageOperator.from_block_matrix(a))
    runs = []
    for matrix in (h, full):
        device = VirtualDevice(K40)
        res = pcg(
            DeviceOperand(matrix, device), b,
            preconditioner=BlockJacobiPreconditioner(a, device),
            tol=1e-12, max_iterations=500,
        )
        runs.append((res, device.records))
    (skip, skip_ledger), (ref, ref_ledger) = runs
    assert skip.converged and skip.iterations > 3
    np.testing.assert_array_equal(bits(skip.x), bits(ref.x))
    assert skip.iterations == ref.iterations
    assert skip.residuals == ref.residuals
    assert skip_ledger == ref_ledger
