"""The two-stage kernel's defined summation order.

:class:`repro.spmv.hsbcsr.TwoStageOperator` sums strictly left to right
— each 6-term dot from ``0.0``, each segment from ``0.0``, then
``(up + low) + diagonal`` — so a pure-Python loop over the HSBCSR index
arrays must reproduce it *bitwise*, and every caller (``hsbcsr_spmv``,
SSOR-AI's triangular halves, the stacked domain split) inherits that
order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy_csr import scipy_csr

from repro import (
    GpuEngine,
    JointMaterial,
    SimulationControls,
    build_falling_rocks_model,
)
from repro.assembly.global_matrix import BS, BlockMatrix
from repro.domain.assembly import split_matrix
from repro.domain.halo import (
    DomainMap,
    HaloExchanger,
    build_exchange_plan,
    make_domain_devices,
)
from repro.gpu.device import K40
from repro.primitives.scatter import scatter_add
from repro.solvers.preconditioners import SSORAIPreconditioner
from repro.spmv.hsbcsr import HSBCSRMatrix, hsbcsr_spmv


def _dot(row, vec):
    acc = 0.0
    for a, b in zip(row, vec):
        acc += a * b
    return acc


def _stage1(blocks, index, xb):
    """``[blocks[k] @ xb[index[k]]]`` as Python floats, left to right."""
    return [
        [_dot(row, xb[j]) for row in blk]
        for blk, j in zip(blocks.tolist(), index.tolist())
    ]


def _stage2(res, indptr, gather):
    """Segment sums of ``res[gather[p]]`` from ``0.0``, left to right."""
    out = []
    for lo, hi in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
        acc = [0.0] * BS
        for p in range(lo, hi):
            acc = [s + v for s, v in zip(acc, res[gather[p]])]
        out.append(acc)
    return out


def oracle_halves(h: HSBCSRMatrix, a: BlockMatrix, x: np.ndarray):
    """(upper, lower, diagonal) products walking HSBCSR's index arrays."""
    xb = x.reshape(a.n, BS).tolist()
    ident = list(range(a.n_offdiag))
    up = _stage2(_stage1(a.blocks, h.cols, xb), h.row_up_i, ident)
    low = _stage2(
        _stage1(a.blocks.transpose(0, 2, 1), h.rows, xb),
        h.row_low_i, h.row_low_p.tolist(),
    )
    diag = _stage1(a.diag, np.arange(a.n), xb)
    return np.array(up).reshape(a.n, BS), np.array(low).reshape(a.n, BS), \
        np.array(diag).reshape(a.n, BS)


def oracle_spmv(h, a, x):
    up, low, diag = oracle_halves(h, a, x)
    return ((up + low) + diag).reshape(-1)


@st.composite
def half_stored(draw):
    """A small half-stored matrix: any duplicate-free set of upper
    entries (so empty rows and ``m = 0`` occur), wide-ranging values."""
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = len(chosen)
    scale = 10.0 ** rng.integers(-6, 7, size=(m, 1, 1))
    matrix = BlockMatrix(
        n=n,
        diag=rng.normal(size=(n, BS, BS)),
        rows=np.array([p[0] for p in chosen], dtype=np.int64),
        cols=np.array([p[1] for p in chosen], dtype=np.int64),
        blocks=rng.normal(size=(m, BS, BS)) * scale,
    )
    return matrix, rng.normal(size=n * BS)


@given(half_stored())
@settings(max_examples=60, deadline=None)
def test_operator_bit_equal_to_left_to_right_oracle(case):
    a, x = case
    h = HSBCSRMatrix.from_block_matrix(a)
    np.testing.assert_array_equal(hsbcsr_spmv(h, x), oracle_spmv(h, a, x))
    up, low, _ = oracle_halves(h, a, x)
    np.testing.assert_array_equal(h.op.upper(x), up)
    np.testing.assert_array_equal(h.op.lower(x), low)


@pytest.fixture(scope="module")
def rocks_matrix() -> BlockMatrix:
    """The last system matrix a short falling-rocks run solves."""
    system = build_falling_rocks_model(
        slope_height=70.0, slope_angle_deg=42.0, rock_size=2.0,
        n_rock_rows=3, n_rock_cols=8,
        joint_material=JointMaterial(friction_angle_deg=18.0),
    )
    engine = GpuEngine(system, SimulationControls(
        time_step=2e-3, dynamic=True, gravity=9.81, penalty_scale=50.0,
        preconditioner="bj", max_displacement_ratio=0.05,
    ))
    seen = []
    prepare = engine._solver_operand

    def recording(matrix):
        seen.append(matrix)
        return prepare(matrix)

    engine._solver_operand = recording
    engine.run(steps=3)
    assert seen[-1].n_offdiag > 0
    return seen[-1]


@pytest.fixture
def x_rocks(rocks_matrix, rng):
    return rng.normal(size=rocks_matrix.n * BS)


def test_rocks_matrix_bit_equal_to_oracle(rocks_matrix, x_rocks):
    h = HSBCSRMatrix.from_block_matrix(rocks_matrix)
    np.testing.assert_array_equal(
        hsbcsr_spmv(h, x_rocks), oracle_spmv(h, rocks_matrix, x_rocks)
    )
    # and still the same matrix as every other format, to rounding
    np.testing.assert_allclose(
        hsbcsr_spmv(h, x_rocks), scipy_csr(rocks_matrix) @ x_rocks,
        rtol=1e-12, atol=1e-6,
    )


def test_ssor_halves_bit_equal_to_scatter_add_reference(rocks_matrix, x_rocks):
    a = rocks_matrix
    p = SSORAIPreconditioner(a)
    xb = x_rocks.reshape(a.n, BS).tolist()
    upper = np.zeros((a.n, BS))
    scatter_add(upper, a.rows, np.array(_stage1(a.blocks, a.cols, xb)))
    lower = np.zeros((a.n, BS))
    scatter_add(
        lower, a.cols,
        np.array(_stage1(a.blocks.transpose(0, 2, 1), a.rows, xb)),
    )
    np.testing.assert_array_equal(p.op.upper(x_rocks), upper)
    np.testing.assert_array_equal(p.op.lower(x_rocks), lower)
    # the applied preconditioner stays the SPD operator it was
    z = p.apply(x_rocks)
    assert np.isfinite(z).all() and float(x_rocks @ z) > 0.0


@pytest.mark.parametrize("n_domains", [1, 2, 4, 8])
def test_domain_spmv_equals_hsbcsr_on_owned_rows(
    rocks_matrix, x_rocks, n_domains
):
    a = rocks_matrix
    # interleaved ownership: plenty of cut entries and ghost slots
    labels = np.arange(a.n, dtype=np.int64) % n_domains
    dmap = DomainMap.from_labels(labels, n_domains)
    plan = build_exchange_plan(dmap, a.rows, a.cols)
    ex = HaloExchanger(dmap, plan, make_domain_devices(n_domains, K40))
    ref = hsbcsr_spmv(HSBCSRMatrix.from_block_matrix(a), x_rocks)
    y = split_matrix(a, dmap, plan).op(ex.exchange(ex.scatter(x_rocks)))
    for own in dmap.owned:
        np.testing.assert_array_equal(
            y.reshape(a.n, BS)[own], ref.reshape(a.n, BS)[own]
        )


def test_structure_reuse_identical_after_value_only_rebuild(
    rocks_matrix, x_rocks
):
    a = rocks_matrix
    first = HSBCSRMatrix.from_block_matrix(a)
    scaled = BlockMatrix(
        n=a.n, diag=a.diag * 1.5, rows=a.rows, cols=a.cols,
        blocks=a.blocks * 0.75,
    )
    reused = HSBCSRMatrix.from_block_matrix(scaled, structure=first)
    fresh = HSBCSRMatrix.from_block_matrix(scaled)
    assert reused.row_low_p is first.row_low_p          # structure shared
    assert reused.op.low_reduce is first.op.low_reduce  # stage 2 shared
    np.testing.assert_array_equal(
        hsbcsr_spmv(reused, x_rocks), hsbcsr_spmv(fresh, x_rocks)
    )
    # the donor still multiplies by its own values
    np.testing.assert_array_equal(
        hsbcsr_spmv(first, x_rocks),
        hsbcsr_spmv(HSBCSRMatrix.from_block_matrix(a), x_rocks),
    )
