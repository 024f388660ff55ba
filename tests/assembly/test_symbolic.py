"""The one assembler: summation order, launch replay, and invalidation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    GpuEngine,
    HybridEngine,
    JointMaterial,
    SerialEngine,
    SimulationControls,
    build_falling_rocks_model,
)
from repro.assembly.global_matrix import BS, assemble_gpu
from repro.assembly.symbolic import AssemblyPlan
from repro.contact.contact_set import VE, ContactSet
from repro.contact.transfer import topology_changed
from repro.gpu.device import K40
from repro.gpu.kernel import VirtualDevice


def contribution_stream(seed, n=7, q=24, m=40):
    """A random assembly stream with plenty of duplicate (row, col) pairs."""
    rng = np.random.default_rng(seed)
    diag_idx = rng.integers(0, n, size=q)
    off_rows = rng.integers(0, n, size=m)
    # off-diagonal: j != i, both orientations present
    off_cols = (off_rows + 1 + rng.integers(0, n - 1, size=m)) % n
    diag_blocks = rng.standard_normal((q, BS, BS))
    off_blocks = rng.standard_normal((m, BS, BS))
    return n, diag_idx, diag_blocks, off_rows, off_cols, off_blocks


def _pairwise(vals):
    """NumPy's scalar pairwise sum of a strided run, in Python."""
    n = len(vals)
    if n < 8:
        res = 0.0
        for v in vals:
            res += v
        return res
    if n <= 128:
        r = vals[:8]
        stop = n - n % 8
        for i in range(8, stop, 8):
            r = [a + b for a, b in zip(r, vals[i : i + 8])]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in vals[stop:]:
            res += v
        return res
    half = n // 2
    half -= half % 8
    return _pairwise(vals[:half]) + _pairwise(vals[half:])


def oracle_assemble(n, diag_idx, diag_blocks, off_rows, off_cols, off_blocks):
    """Pure-Python reference for the assembler's summation order.

    Every output block sums its contributions in input order (what a
    stable sort keeps within each key) the way ``np.add.reduceat`` sums
    a segment, entry by entry of the 6x6 payload: the first
    contribution plus the pairwise sum of the rest — which for up to
    eight further contributions is their plain left-to-right sum.
    ``K_ji`` inputs enter transposed. Returns ``(diag, rows, cols,
    blocks)`` with the pairs sorted by ``(row, col)``.
    """

    def reduce(keys, blocks):
        segments = {}
        for key, blk in zip(keys, blocks):
            segments.setdefault(key, []).append(np.ravel(blk).tolist())
        return {
            key: [
                vals[0] + _pairwise(list(vals[1:])) if len(vals) > 1 else vals[0]
                for vals in zip(*entries)
            ]
            for key, entries in segments.items()
        }

    diag = np.zeros((n, BS, BS))
    for i, total in reduce(diag_idx.tolist(), diag_blocks).items():
        diag[i] = np.reshape(total, (BS, BS))
    pairs = [
        (min(i, j), max(i, j))
        for i, j in zip(off_rows.tolist(), off_cols.tolist())
    ]
    oriented = [
        blk.T if i > j else blk
        for i, j, blk in zip(off_rows, off_cols, off_blocks)
    ]
    totals = reduce(pairs, oriented)
    keys = sorted(totals)
    return (
        diag,
        np.array([k[0] for k in keys], dtype=np.int64),
        np.array([k[1] for k in keys], dtype=np.int64),
        np.array([totals[k] for k in keys]).reshape(len(keys), BS, BS),
    )


def assert_same_matrix(matrix, diag, rows, cols, blocks):
    np.testing.assert_array_equal(matrix.diag, diag)
    np.testing.assert_array_equal(matrix.rows, rows)
    np.testing.assert_array_equal(matrix.cols, cols)
    np.testing.assert_array_equal(matrix.blocks, blocks)


def assert_equals_oracle(matrix, n, *stream):
    assert_same_matrix(matrix, *oracle_assemble(n, *stream))


@st.composite
def streams(draw):
    """Contribution streams with repeated diagonal indices, duplicate
    pairs in either orientation, and ``q = 0`` / ``m = 0`` edge cases;
    magnitudes spread over six decades so summation order shows."""
    n = draw(st.integers(min_value=1, max_value=6))
    # up to 30 entries per run, or runs long enough (> 128) for the
    # pairwise sum to recurse
    q = draw(st.integers(0, 30) | st.integers(260, 300))
    m = draw(st.integers(min_value=0, max_value=30)) if n > 1 else 0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    diag_idx = rng.integers(0, n, size=q)
    off_rows = rng.integers(0, n, size=m)
    off_cols = (off_rows + 1 + rng.integers(0, max(1, n - 1), size=m)) % n

    def payload(k):
        scale = 10.0 ** rng.integers(-3, 4, size=(k, 1, 1))
        return rng.standard_normal((k, BS, BS)) * scale

    return n, diag_idx, payload(q), off_rows, off_cols, payload(m)


@pytest.fixture(scope="module")
def rocks_stream():
    """The contribution stream of one falling-rocks open–close sweep."""
    system = build_falling_rocks_model(
        slope_height=40.0, slope_angle_deg=42.0, rock_size=2.5,
        n_rock_rows=3, n_rock_cols=5,
        joint_material=JointMaterial(friction_angle_deg=18.0),
    )
    engine = GpuEngine(system, SimulationControls(time_step=2e-3, dynamic=True))
    engine.run(steps=2)
    contacts = engine._detect_contacts()
    diag_idx, diag_blocks, _ = engine._build_diagonal()
    c_idx, c_blocks, rows, cols, blocks, _ = engine._build_nondiagonal(
        contacts, contacts.pn * np.maximum(0.0, contacts.normal_disp)
    )
    assert contacts.m > 0
    return (
        system,
        np.concatenate([diag_idx, c_idx]),
        np.concatenate([diag_blocks, c_blocks]),
        rows, cols, blocks,
    )


class TestSummationOrder:
    @given(streams())
    @settings(max_examples=60, deadline=None)
    def test_equals_python_oracle(self, stream):
        n, *contributions = stream
        assert_equals_oracle(assemble_gpu(n, *contributions), n, *contributions)

    def test_captured_stream_equals_oracle(self, rocks_stream):
        system, *contributions = rocks_stream
        n = system.n_blocks
        # the stream repeats diagonal indices and pairs, in both
        # orientations, or it would not exercise the order at all
        diag_idx, _, rows, cols, _ = contributions
        assert np.bincount(diag_idx).max() > 2
        assert (rows > cols).any() and (rows < cols).any()
        assert_equals_oracle(
            assemble_gpu(n, *contributions, VirtualDevice(K40)),
            n, *contributions,
        )

    def test_presets_assemble_identical_matrix(self, rocks_stream):
        """Serial, hybrid and gpu presets: bit-identical K, one stream."""
        system, *contributions = rocks_stream
        serial, hybrid, gpu = (
            cls(system.copy())._assemble(*contributions)
            for cls in (SerialEngine, HybridEngine, GpuEngine)
        )
        for other in (hybrid, gpu):
            assert_same_matrix(
                serial, other.diag, other.rows, other.cols, other.blocks
            )


class TestPlanBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_both_assemblers(self, seed):
        """The plan equals the assembler entered both ways — with a
        device (the GPU preset) and without (the CPU presets) — and
        the single order both are pinned to."""
        n, diag_idx, diag_blocks, off_rows, off_cols, off_blocks = (
            contribution_stream(seed)
        )
        stream = (diag_idx, diag_blocks, off_rows, off_cols, off_blocks)
        plan = AssemblyPlan.build(n, diag_idx, off_rows, off_cols)
        out = plan.assemble(diag_blocks, off_blocks)
        assert_equals_oracle(out, n, *stream)
        for ref in (
            assemble_gpu(n, *stream),
            assemble_gpu(n, *stream, VirtualDevice(K40)),
        ):
            assert_same_matrix(out, ref.diag, ref.rows, ref.cols, ref.blocks)

    def test_new_values_same_pattern(self):
        """A reused plan assembles fresh values exactly."""
        n, diag_idx, diag_blocks, off_rows, off_cols, off_blocks = (
            contribution_stream(0)
        )
        plan = AssemblyPlan.build(n, diag_idx, off_rows, off_cols)
        plan.assemble(diag_blocks, off_blocks)
        rng = np.random.default_rng(99)
        diag2 = rng.standard_normal(diag_blocks.shape)
        off2 = rng.standard_normal(off_blocks.shape)
        assert_equals_oracle(
            plan.assemble(diag2, off2),
            n, diag_idx, diag2, off_rows, off_cols, off2,
        )

    def test_empty_offdiagonal(self):
        n, diag_idx, diag_blocks, _, _, _ = contribution_stream(0)
        z = np.zeros(0, dtype=np.int64)
        zb = np.zeros((0, BS, BS))
        plan = AssemblyPlan.build(n, diag_idx, z, z)
        out = plan.assemble(diag_blocks, zb)
        assert_equals_oracle(out, n, diag_idx, diag_blocks, z, z, zb)
        assert out.n_offdiag == 0


class TestLaunchReplay:
    def test_replay_reproduces_ledger(self):
        n, diag_idx, diag_blocks, off_rows, off_cols, off_blocks = (
            contribution_stream(1)
        )
        dev_a = VirtualDevice(K40)
        assemble_gpu(
            n, diag_idx, diag_blocks, off_rows, off_cols, off_blocks, dev_a
        )
        plan = AssemblyPlan.build(n, diag_idx, off_rows, off_cols)
        plan.launches = tuple((r.name, r.counters) for r in dev_a.records)
        dev_b = VirtualDevice(K40)
        plan.replay(dev_b)
        assert [r.name for r in dev_b.records] == [
            r.name for r in dev_a.records
        ]
        assert dev_b.total_time == dev_a.total_time


class TestInvalidation:
    def test_matches_is_exact(self):
        n, diag_idx, _, off_rows, off_cols, _ = contribution_stream(2)
        plan = AssemblyPlan.build(n, diag_idx, off_rows, off_cols)
        assert plan.matches(diag_idx, off_rows, off_cols)
        # shape change
        assert not plan.matches(diag_idx[:-1], off_rows, off_cols)
        assert not plan.matches(diag_idx, off_rows[:-1], off_cols[:-1])
        # value change
        bumped = diag_idx.copy()
        bumped[0] = (bumped[0] + 1) % n
        assert not plan.matches(bumped, off_rows, off_cols)
        swapped = off_rows.copy()
        swapped[0], swapped[1] = swapped[1], swapped[0]
        if not np.array_equal(swapped, off_rows):
            assert not plan.matches(diag_idx, swapped, off_cols)

    def test_topology_changed(self):
        def table(block_j, vertex_idx):
            m = len(block_j)
            return ContactSet(
                block_i=np.zeros(m, dtype=np.int64),
                block_j=np.asarray(block_j, dtype=np.int64),
                vertex_idx=np.asarray(vertex_idx, dtype=np.int64),
                e1_idx=np.arange(m, dtype=np.int64) + 10,
                e2_idx=np.arange(m, dtype=np.int64) + 20,
                kind=np.full(m, VE, dtype=np.int64),
            )

        a = table([1, 2], [3, 4])
        same = table([1, 2], [3, 4])
        assert not topology_changed(a, same, 100)
        # state flips alone are not topology
        same.state[:] = 2
        same.pn[:] = 5.0
        assert not topology_changed(a, same, 100)
        # different pair count
        assert topology_changed(a, table([1], [3]), 100)
        # different block pair
        assert topology_changed(a, table([1, 3], [3, 4]), 100)
        # same blocks, different contact data (vertex index)
        assert topology_changed(a, table([1, 2], [3, 5]), 100)
