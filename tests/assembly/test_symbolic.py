"""The one assembler: summation order, launch reuse, invalidation, and
the bound numeric phase the engines run held to the materialising one."""

import copy
import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from planting import DROP_ONE_CLOSED, PLANTED, Planter
from spring_reference import contact_contributions

from repro import (
    GpuEngine,
    HybridEngine,
    JointMaterial,
    SerialEngine,
    SimulationControls,
    build_falling_rocks_model,
)
from repro.assembly.contact_springs import (
    LOCK,
    OPEN,
    SLIDE,
    SpringGeometry,
    spring_loads,
    spring_stiffness,
)
from repro.assembly.global_matrix import BS, assemble_gpu
from repro.assembly import symbolic
from repro.assembly.symbolic import AssemblyPlan
from repro.engine.physics import contact_system
from repro.gpu.device import K40
from repro.gpu.kernel import KeptLaunches, VirtualDevice
from repro.meshing.slope_models import build_brick_wall, build_slope_model


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
def rocks_sweep():
    """One falling-rocks open–close sweep: the system and the arguments
    of the engines' ``_assemble`` hook."""
    system = build_falling_rocks_model(
        slope_height=40.0, slope_angle_deg=42.0, rock_size=2.5,
        n_rock_rows=3, n_rock_cols=5,
        joint_material=JointMaterial(friction_angle_deg=18.0),
    )
    engine = GpuEngine(system, SimulationControls(time_step=2e-3, dynamic=True))
    engine.run(steps=2)
    _, sweep = assemble_sweep(engine)
    assert sweep[2].m > 0
    return system, sweep


@pytest.fixture(scope="module")
def rocks_stream(rocks_sweep):
    """The same sweep as a materialised contribution stream."""
    system, (diag_idx, diag_blocks, contacts, geometry, _, _) = rocks_sweep
    _, c_blocks, rows, cols, blocks, _ = contact_system(
        system, contacts,
        contacts.pn * np.maximum(0.0, contacts.normal_disp), geometry,
    )
    return (
        system, diag_idx, np.concatenate([diag_blocks, c_blocks]),
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

    def test_presets_assemble_identical_matrix(
        self, rocks_sweep, rocks_stream
    ):
        """Serial, hybrid and gpu presets: bit-identical K, one sweep —
        the K its materialised stream sums to."""
        system, sweep = rocks_sweep
        _, *contributions = rocks_stream
        serial, hybrid, gpu = (
            cls(copy.deepcopy(system))._assemble(*sweep)
            for cls in (SerialEngine, HybridEngine, GpuEngine)
        )
        for other in (hybrid, gpu):
            assert_same_matrix(
                serial, other.diag, other.rows, other.cols, other.blocks
            )
        assert_same_bits(serial, assemble_gpu(system.n_blocks, *contributions))


def assemble_sweep(engine):
    """One sweep's ``K`` through the engine's own hooks, with the
    arguments the sweep was assembled from."""
    contacts = engine._detect_contacts()
    diag_idx, diag_blocks, _ = engine._build_diagonal()
    geometry = contacts.spring_geometry(engine.system)
    w, ws, _ = engine._build_nondiagonal(
        contacts, contacts.pn * np.maximum(0.0, contacts.normal_disp),
        geometry,
    )
    args = (
        np.concatenate([diag_idx, contacts.block_i, contacts.block_j]),
        diag_blocks, contacts, geometry, w, ws,
    )
    return engine._assemble(*args), args


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_same_bits(matrix, ref):
    """Equal through the sign bit (``array_equal`` lets ``-0.0`` pass)."""
    np.testing.assert_array_equal(bits(matrix.diag), bits(ref.diag))
    np.testing.assert_array_equal(matrix.rows, ref.rows)
    np.testing.assert_array_equal(matrix.cols, ref.cols)
    np.testing.assert_array_equal(bits(matrix.blocks), bits(ref.blocks))


def spring_table(n, m, seed, states=None, pairs=None):
    """``m`` random contacts between ``n`` blocks: geometry with exact
    zeros and both signs (so ``0 * negative`` products occur), block
    pairs in both orientations, states mixed unless given."""
    rng = np.random.default_rng(seed)

    def vectors():
        v = rng.standard_normal((m, BS))
        v[rng.random((m, BS)) < 0.2] = 0.0
        return v

    geometry = SpringGeometry(
        vectors(), vectors(), rng.standard_normal(m), rng.random(m) + 0.1,
        vectors(), vectors(),
    )
    if pairs is None:
        block_i = rng.integers(0, n, size=m)
        block_j = (block_i + 1 + rng.integers(0, n - 1, size=m)) % n
    else:
        block_i, block_j = (np.asarray(p, dtype=np.int64) for p in pairs)
    if states is None:
        states = rng.integers(0, 3, size=m)
    return (
        geometry, block_i, block_j, np.broadcast_to(states, (m,)).copy(),
        rng.random(m) + 1.0, rng.random(m) + 1.0,
        rng.standard_normal((n, BS, BS)),
    )


def both_ways(n, geometry, block_i, block_j, states, pn, ps, static):
    """``(bound, reference)``: the plan bound to the geometry, and the
    materialised ``contact_contributions`` stream through
    ``plan.assemble``."""
    m = block_i.size
    plan = AssemblyPlan.build(
        n, np.concatenate([np.arange(n), block_i, block_j]), block_i, block_j
    )
    loads = (np.zeros(m), np.ones(m))
    w, ws, _, _ = spring_loads(geometry, states, pn, ps, *loads)
    kii, kjj, kij, _, _ = contact_contributions(
        geometry, states, pn, ps, *loads
    )
    return (
        plan.bind(geometry).assemble(static, w, ws),
        plan.assemble(np.concatenate([static, kii, kjj]), kij),
    )


class TestBoundAssembly:
    """``plan.bind(geometry).assemble(static, w, ws)`` — what the
    engines run every sweep — equals ``contact_contributions`` ->
    ``plan.assemble`` to the sign bit."""

    @pytest.mark.parametrize("states", [OPEN, SLIDE, LOCK, None])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_materialising_reference(self, states, seed):
        # 7 blocks, 60 contacts: duplicate pairs in both orientations
        # and diagonal segments of 1 + ~17 rows (first + pairwise(rest))
        table = spring_table(7, 60, seed, states)
        _, block_i, block_j, *_ = table
        assert (block_i > block_j).any() and (block_i < block_j).any()
        assert np.bincount(np.concatenate([block_i, block_j])).min() >= 8
        bound, ref = both_ways(7, *table)
        assert_same_bits(bound, ref)

    @pytest.mark.parametrize("pairs", [
        ([], []),                        # m = 0: static rows only
        ([2], [0]),                      # one contact, swapped
        ([0], [2]),                      # one contact, upper
        ([1, 3, 1, 3, 1], [3, 1, 3, 1, 3]),  # one pair, five times
    ])
    def test_edge_tables(self, pairs):
        table = spring_table(4, len(pairs[0]), 5, pairs=pairs)
        bound, ref = both_ways(4, *table)
        assert_same_bits(bound, ref)
        assert bound.n_offdiag == min(1, len(pairs[0]))

    def test_chunked_streams(self, monkeypatch):
        """Many segment-aligned chunks, and a segment longer than one."""
        monkeypatch.setattr("repro.assembly.symbolic._CHUNK_ROWS", 16)
        table = spring_table(30, 400, 6)
        binding = AssemblyPlan.build(
            30, np.concatenate([np.arange(30), table[1], table[2]]),
            table[1], table[2],
        ).bind(table[0])
        assert len(binding.layout.chunks) > 20
        assert binding.work.shape[1] > 16
        bound, ref = both_ways(30, *table)
        assert_same_bits(bound, ref)

    def test_negative_zero_is_normalised(self):
        """An OPEN contact's ``0 * negative`` is ``-0.0``; accumulated
        into a zeroed block it is ``+0.0`` — the bit the ``+ 0.0`` in
        ``spring_blocks`` keeps (pairs met once, so no sum hides it)."""
        table = spring_table(3, 2, 7, OPEN, pairs=([0, 2], [1, 1]))
        geometry = table[0]
        naive = 0.0 * np.einsum("mi,mj->mij", geometry.e, geometry.g)
        assert np.signbit(naive).any()
        bound, ref = both_ways(3, *table)
        assert not np.signbit(bound.blocks).any()
        assert_same_bits(bound, ref)

    def test_rejects_a_table_the_plan_was_not_built_for(self):
        geometry, block_i, block_j, *_ = spring_table(5, 9, 8)
        plan = AssemblyPlan.build(
            5, np.concatenate([np.arange(5), block_i, block_j]),
            block_i, block_j,
        )
        with pytest.raises(ValueError, match="does not fit"):
            plan.bind(spring_table(5, 8, 8)[0])
        short = AssemblyPlan.build(5, block_i, block_i, block_j)
        with pytest.raises(ValueError, match="does not fit"):
            short.bind(geometry)

    def test_binding_and_one_sweep_stay_small(self):
        """12 k contacts: the bound vectors (~5 MB) and two chunk-sized
        work blocks — never the stream-sized ``(q, 6, 6)`` payloads
        (the materialising path peaks above 30 MB here)."""
        n, m = 1089, 12353
        geometry, block_i, block_j, states, pn, ps, static = spring_table(
            n, m, 9
        )
        plan = AssemblyPlan.build(
            n, np.concatenate([np.arange(n), block_i, block_j]),
            block_i, block_j,
        )
        w, ws, _, _ = spring_loads(
            geometry, states, pn, ps, np.zeros(m), np.ones(m)
        )
        tracemalloc.start()
        try:
            plan.bind(geometry).assemble(static, w, ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6


def int_bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def zero_aware_and_materialised(n, geometry, block_i, block_j, states, pn, ps,
                                static, chunk=None):
    """``(binding, its sweep, the materialised stream through
    plan.assemble)`` for one table; ``chunk`` overrides the chunk rows."""
    m = block_i.size
    plan = AssemblyPlan.build(
        n, np.concatenate([np.arange(n), block_i, block_j]), block_i, block_j
    )
    with mock.patch("repro.assembly.symbolic._CHUNK_ROWS", chunk or 2048):
        binding = plan.bind(geometry)
    with np.errstate(invalid="ignore"):  # 0 * inf on non-finite tables
        w, ws, _, _ = spring_loads(
            geometry, states, pn, ps, np.zeros(m), np.ones(m)
        )
        kii, kjj, kij = spring_stiffness(geometry, w, ws)
        return (
            binding,
            binding.assemble(static, w, ws),
            plan.assemble(np.concatenate([static, kii, kjj]), kij),
        )


def assert_same_int_bits(matrix, ref):
    np.testing.assert_array_equal(int_bits(matrix.diag), int_bits(ref.diag))
    np.testing.assert_array_equal(matrix.rows, ref.rows)
    np.testing.assert_array_equal(matrix.cols, ref.cols)
    np.testing.assert_array_equal(int_bits(matrix.blocks), int_bits(ref.blocks))


def few_blocks_table(seed, n, m, states):
    """``m`` contacts among blocks ``0..n-1`` of ``n + 1`` (the last has
    none, so its diagonal segment is its static row alone); weights zero
    for OPEN contacts and for some closed ones (``pn = 0``), static
    blocks holding ``-0.0`` entries."""
    rng = np.random.default_rng(seed)
    geometry = spring_table(n, m, seed)[0]
    block_i = rng.integers(0, n, size=m)
    block_j = (block_i + 1 + rng.integers(0, n - 1, size=m)) % n
    if isinstance(states, str):
        states = {
            "open": np.full(m, OPEN),
            "lock": np.full(m, LOCK),
            "mixed": rng.integers(0, 3, size=m),
            "few": np.where(rng.random(m) < 0.15, rng.choice([SLIDE, LOCK], m), OPEN),
        }[states]
    pn = rng.random(m) + 1.0
    pn[rng.random(m) < 0.1] = 0.0
    static = rng.standard_normal((n + 1, BS, BS))
    static[rng.random(static.shape) < 0.2] = -0.0
    return (n + 1, geometry, block_i, block_j, np.asarray(states),
            pn, rng.random(m) + 1.0, static)


@st.composite
def zero_aware_sweeps(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n, geometry, *rest = few_blocks_table(
        seed,
        draw(st.integers(2, 5)),
        draw(st.sampled_from([0, 1, 5, 12, 40])),
        draw(st.sampled_from(["open", "lock", "mixed", "few"])),
    )
    m = geometry.d0.size
    if m and draw(st.booleans()):  # a non-finite spring vector
        e = geometry.e.copy()
        e[draw(st.integers(0, m - 1)), draw(st.integers(0, BS - 1))] = draw(
            st.sampled_from([np.inf, -np.inf, np.nan])
        )
        geometry = dataclasses.replace(geometry, e=e)
    return (n, geometry, *rest, draw(st.sampled_from([4, 16, 2048])))


class TestZeroAwareSweep:
    """The bound sweep skips the exactly-zero rows of OPEN contacts yet
    equals the materialised stream through ``plan.assemble`` — every
    bit, ``-0.0`` and NaN included."""

    @given(zero_aware_sweeps())
    @settings(max_examples=120, deadline=None)
    def test_equals_materialised_stream(self, case):
        _, got, ref = zero_aware_and_materialised(*case)
        assert_same_int_bits(got, ref)

    @pytest.mark.parametrize("closed", [
        [],                            # all OPEN
        [17],                          # one: singleton pair segment
        [0, 39],                       # two, at the ends
        [3, 8, 9, 16, 24, 31, 32],     # pairwise-block boundaries
        list(range(40)),               # all closed
    ])
    def test_long_segments_with_zero_rows_anywhere(self, closed):
        """Blocks 0 and 1 share 40 contacts: diagonal segments of 41 rows
        and a 40-row pair segment, so NumPy's pairwise sum (>= 8 rows,
        unrolled in eights) runs over zero rows at these positions."""
        states = np.full(40, OPEN)
        states[closed] = LOCK
        n, geometry, bi, bj, states, pn, ps, static = few_blocks_table(
            1, 2, 40, states
        )
        pn[:] = 1.0  # every closed contact's weight nonzero
        binding, got, ref = zero_aware_and_materialised(
            n, geometry, bi, bj, states, pn, ps, static
        )
        assert binding.layout.seg_len.max() >= 16
        assert_same_int_bits(got, ref)

    def test_negative_zero_static_entries(self):
        """A static ``-0.0`` stays ``-0.0`` on a length-1 segment (the
        contact-free block) and becomes ``+0.0`` on a longer segment of
        zero rows, as the segment sum's adds make it."""
        n, geometry, bi, bj, states, pn, ps, static = few_blocks_table(
            2, 3, 12, "open"
        )
        static[:] = -0.0
        _, got, ref = zero_aware_and_materialised(
            n, geometry, bi, bj, states, pn, ps, static
        )
        assert_same_int_bits(got, ref)
        assert np.signbit(got.diag[-1]).all()
        assert not np.signbit(got.diag[:-1]).any()
        assert not np.signbit(got.blocks).any()

    def test_no_contacts(self):
        binding, got, ref = zero_aware_and_materialised(
            *few_blocks_table(3, 2, 0, "open")
        )
        assert got.n_offdiag == 0
        assert_same_int_bits(got, ref)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_vectors_form_every_row(self, bad):
        """``0 * inf`` is NaN: an OPEN contact's block is not zero, so
        the binding forms every row and NaN lands where it always did."""
        n, geometry, bi, bj, states, pn, ps, static = few_blocks_table(
            4, 3, 12, "few"
        )
        e = geometry.e.copy()
        e[states == OPEN] = bad
        binding, got, ref = zero_aware_and_materialised(
            n, dataclasses.replace(geometry, e=e), bi, bj, states, pn, ps, static
        )
        assert not binding.finite
        assert np.isnan(ref.diag).any()
        assert_same_int_bits(got, ref)


def lazy_plan(seed, n=9, m=80):
    """A plan over ``m`` contacts among ``n`` blocks, two spring
    geometries for its table, and the sweep arguments ``(pn, ps,
    static)``."""
    first, block_i, block_j, _, pn, ps, static = spring_table(n, m, seed)
    plan = AssemblyPlan.build(
        n, np.concatenate([np.arange(n), block_i, block_j]), block_i, block_j
    )
    return plan, (first, spring_table(n, m, seed + 1)[0]), (pn, ps, static)


def handful(m, seed):
    """All OPEN but three closed contacts."""
    states = np.full(m, OPEN)
    states[np.random.default_rng(seed).choice(m, 3, replace=False)] = LOCK
    return states


def lazy_sweep(binding, states, pn, ps, static):
    """One sweep of ``binding`` under ``states``, held to the materialised
    stream through ``plan.assemble``; the plan's layout must hold index
    arrays only, whatever the sweep laid out."""
    m = states.size
    with np.errstate(invalid="ignore"):  # 0 * inf on non-finite tables
        w, ws, _, _ = spring_loads(
            binding.geometry, states, pn, ps, np.zeros(m), np.ones(m)
        )
        kii, kjj, kij = spring_stiffness(binding.geometry, w, ws)
        ref = binding.plan.assemble(np.concatenate([static, kii, kjj]), kij)
        got = binding.assemble(static, w, ws)
    assert_same_int_bits(got, ref)
    held = [v for v in vars(binding.plan.layout).values()
            if isinstance(v, np.ndarray)]
    assert held and all(v.dtype.kind in "bi" for v in held)


class TestLazyBinding:
    """The per-plan layout is made once and holds no vectors; a binding
    gathers the rows a sweep forms and lays the stream out only when a
    sweep forms a whole chunk — bit-equal to ``plan.assemble`` on the
    materialised stream in every case, on each of two geometries bound
    to one plan in turn."""

    def test_a_handful_of_live_contacts(self):
        plan, geometries, args = lazy_plan(0)
        for geometry in geometries:
            binding = plan.bind(geometry)
            lazy_sweep(binding, handful(80, 0), *args)
            assert binding.stream is None

    def test_an_all_live_sweep(self):
        plan, geometries, args = lazy_plan(1)
        for geometry in geometries:
            binding = plan.bind(geometry)
            lazy_sweep(binding, np.full(80, LOCK), *args)
            assert binding.stream is not None
            assert binding.layout is plan.layout

    def test_sparse_then_dense_on_one_binding(self):
        plan, (geometry, _), args = lazy_plan(2)
        binding = plan.bind(geometry)
        lazy_sweep(binding, handful(80, 2), *args)
        assert binding.stream is None
        lazy_sweep(binding, np.full(80, SLIDE), *args)
        stream = binding.stream
        assert stream is not None
        lazy_sweep(binding, handful(80, 3), *args)  # slices the stream
        lazy_sweep(binding, np.full(80, LOCK), *args)
        assert binding.stream is stream  # laid out once per binding

    def test_one_plan_two_geometries_in_turn(self):
        plan, (first, second), args = lazy_plan(3)
        a = plan.bind(first)
        lazy_sweep(a, np.full(80, LOCK), *args)
        layout = plan.layout
        b = plan.bind(second)
        assert b.layout is layout and b.stream is None
        lazy_sweep(b, handful(80, 4), *args)
        lazy_sweep(b, np.full(80, LOCK), *args)
        assert not np.shares_memory(a.stream[0], b.stream[0])
        lazy_sweep(plan.bind(first), handful(80, 5), *args)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_vectors(self, bad):
        """Non-finite vectors form every row — the stream laid out even
        for a handful of live contacts — after a finite geometry's
        binding of the same plan laid out its own."""
        plan, (first, second), args = lazy_plan(4)
        states = handful(80, 6)
        lazy_sweep(plan.bind(first), np.full(80, LOCK), *args)
        e = second.e.copy()
        e[states == OPEN] = bad
        binding = plan.bind(dataclasses.replace(second, e=e))
        lazy_sweep(binding, states, *args)
        assert not binding.finite and binding.stream is not None
        fresh = plan.bind(second)
        lazy_sweep(fresh, states, *args)
        assert fresh.stream is None


class StreamWatch(GpuEngine):
    """Records, per sweep, the binding's layout and whether it laid out
    the stream."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sweeps = []

    def _assemble(self, *args):
        matrix = super()._assemble(*args)
        bound = self._bound_assembly
        self.sweeps.append((bound.plan, bound.layout, bound.stream is not None))
        return matrix


def test_quick_rocks_never_lay_out_the_stream():
    """Case 2's rocks sit inside each other's margin but barely touch:
    no sweep of a quick run forms a whole chunk, so no binding lays out
    the stream, and each plan's layout is made once."""
    engine = StreamWatch(
        build_falling_rocks_model(
            slope_height=70.0, slope_angle_deg=42.0, rock_size=2.0,
            n_rock_rows=3, n_rock_cols=8,
            joint_material=JointMaterial(friction_angle_deg=18.0),
        ),
        SimulationControls(
            time_step=2e-3, dynamic=True, gravity=9.81, penalty_scale=50.0,
            preconditioner="bj", max_displacement_ratio=0.05,
        ),
    )
    engine.run(steps=6)
    plans = {id(plan): layout for plan, layout, _ in engine.sweeps}
    assert len(engine.sweeps) > 6 and len(plans) < len(engine.sweeps)
    assert all(
        layout is plans[id(plan)] for plan, layout, _ in engine.sweeps
    )
    assert not any(laid for *_, laid in engine.sweeps)
    # the layout outlives the step: 30 bytes per stream row (contact,
    # static_of, the two masks, contact_rows, the int32 seg_of) and 24
    # per segment
    layout = engine.sweeps[-1][1]
    held = [*layout.from_g, *(c[4] for c in layout.chunks)] + [
        v for v in vars(layout).values() if isinstance(v, np.ndarray)
    ]
    rows, segments = layout.contact.size, layout.seg_start.size
    assert sum(v.nbytes for v in held) == 30 * rows + 24 * segments


def formed_and_live_rows(monkeypatch):
    """Per sparse sweep of six quick-rocks steps: the rows
    ``spring_blocks`` formed and the stream rows of live contacts (three
    per contact whose weights are not both zero)."""
    sweeps = []
    form = symbolic.spring_blocks

    def counting(a, *args, **kwargs):
        sweeps[-1][0] += a.shape[0]
        return form(a, *args, **kwargs)

    assemble = symbolic.BoundAssembly.assemble

    def watched(self, static_blocks, w, ws):
        live = (w != 0.0) if ws is None else (w != 0.0) | (ws != 0.0)
        sweeps.append([0, 3 * int(live.sum()), bool(live.all())])
        return assemble(self, static_blocks, w, ws)

    monkeypatch.setattr(symbolic, "spring_blocks", counting)
    monkeypatch.setattr(symbolic.BoundAssembly, "assemble", watched)
    GpuEngine(
        build_falling_rocks_model(
            slope_height=70.0, slope_angle_deg=42.0, rock_size=2.0,
            n_rock_rows=3, n_rock_cols=8,
            joint_material=JointMaterial(friction_angle_deg=18.0),
        ),
        SimulationControls(
            time_step=2e-3, dynamic=True, gravity=9.81, penalty_scale=50.0,
            preconditioner="bj", max_displacement_ratio=0.05,
        ),
    ).run(steps=6)
    return [(formed, live) for formed, live, dense in sweeps if not dense]


def test_a_sparse_sweep_forms_only_its_live_contact_rows(monkeypatch):
    """A sparse sweep writes a static row's block, and a zero row's
    ``+0.0``, straight into place: ``spring_blocks`` forms exactly the
    rows of live contacts (the quick rocks have a few of 224)."""
    sweeps = formed_and_live_rows(monkeypatch)
    assert len(sweeps) > 6 and sum(live for _, live in sweeps) > 0
    assert [formed for formed, _ in sweeps] == [live for _, live in sweeps]


def test_a_sweep_that_forms_static_rows_fails_the_count(monkeypatch):
    """The planted variant forms every row of the segments it visits, the
    static ones too, and overwrites them: same matrix, more rows formed."""
    form = symbolic.BoundAssembly._form
    monkeypatch.setattr(
        symbolic.BoundAssembly, "_form",
        lambda self, rows, static_blocks, w, ws, live=None: form(
            self, rows, static_blocks, w, ws
        ),
    )
    with pytest.raises(AssertionError):
        test_a_sparse_sweep_forms_only_its_live_contact_rows(monkeypatch)


class CheckedEngine(GpuEngine):
    """Holds every sweep's matrix to the materialising reference at the
    system's *current* coordinates, and records which binding made it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bindings = []
        self.forget_plan_at = ()

    def _assemble(self, diag_idx, diag_blocks, contacts, geometry, w, ws):
        if len(self.bindings) in self.forget_plan_at:
            self._assembly = KeptLaunches(
                self.metrics.counter("assembly.symbolic_reuse")
            )
        matrix = super()._assemble(
            diag_idx, diag_blocks, contacts, geometry, w, ws
        )
        kii, kjj, kij = spring_stiffness(
            contacts.spring_geometry(self.system), w, ws
        )
        assert_same_bits(matrix, assemble_gpu(
            self.system.n_blocks, diag_idx,
            np.concatenate([diag_blocks, kii, kjj]),
            contacts.block_i, contacts.block_j, kij,
        ))
        bound = self._bound_assembly
        assert bound.plan is self._assembly.value
        assert bound.geometry is geometry
        self.bindings.append((bound, bound.plan, bound.geometry, contacts.m))
        return matrix


class TestRebinding:
    """A stale binding is never used: every sweep's matrix matches the
    reference built from scratch at that sweep's geometry."""

    def slope(self, **kwargs):
        return CheckedEngine(
            build_slope_model(joint_spacing=6.0, seed=0),
            SimulationControls(
                time_step=2e-3, dynamic=False, penalty_scale=50.0, **kwargs
            ),
        )

    def test_new_geometry_same_plan_after_data_updating(self):
        engine = CheckedEngine(
            build_brick_wall(rows=3, cols=3),
            SimulationControls(time_step=1e-3, dynamic=True),
        )
        engine.run(steps=2)
        (b0, p0, g0, _), (b1, p1, g1, _) = (
            engine.bindings[0], engine.bindings[-1]
        )
        # the wall's contact topology does not move, so step 1 reuses
        # step 0's plan — with a binding to step 1's geometry
        assert p1 is p0 and b1 is not b0 and g1 is not g0
        assert not np.array_equal(g0.d0, g1.d0)
        # within a step the binding is made once
        assert len({id(b) for b, *_ in engine.bindings}) == 2

    def test_new_plan_same_geometry(self):
        engine = self.slope()
        engine.forget_plan_at = (2,)  # between two sweeps of attempt 0
        engine.run(steps=1)
        (b1, p1, g1, _), (b2, p2, g2, _) = engine.bindings[1:3]
        assert g2 is g1 and p2 is not p1 and b2 is not b1

    def test_fault_replaced_contact_table(self):
        engine = CheckedEngine(
            build_slope_model(joint_spacing=6.0, seed=0),
            SimulationControls(
                time_step=2e-3, dynamic=False, penalty_scale=50.0,
                contract_level="off",
            ),
        )
        Planter(engine, PLANTED["duplicate_contact"], step=1)
        engine.run(steps=2)
        sizes = [m for *_, m in engine.bindings]
        grown = sizes.index(max(sizes))
        assert sizes[grown] == sizes[0] + 1
        # the duplicated table got its own plan, geometry and binding
        before, after = engine.bindings[grown - 1], engine.bindings[grown]
        assert all(a is not b for a, b in zip(before[:3], after[:3]))

    def test_changed_block_pairs_miss_the_plan_kept_across_steps(self):
        """The wall's plan is kept from step to step; a contact dropped
        in step 1 changes the block pairs, and the plan's gate alone
        makes that a miss (and the restored table after it another) —
        every sweep's matrix still the reference's."""
        engine = CheckedEngine(
            build_brick_wall(rows=3, cols=3),
            SimulationControls(
                time_step=1e-3, dynamic=True, contract_level="off"
            ),
        )
        Planter(engine, DROP_ONE_CLOSED, step=1)
        engine.run(steps=4)
        sizes = [m for *_, m in engine.bindings]
        plans = [plan for _, plan, *_ in engine.bindings]
        dropped = [k for k, m in enumerate(sizes) if m == sizes[0] - 1]
        assert dropped and set(sizes) == {sizes[0], sizes[0] - 1}
        misses = [
            k for k, plan in enumerate(plans)
            if k == 0 or plan is not plans[k - 1]
        ]
        assert misses == [0, dropped[0], dropped[-1] + 1]
        assert engine.metrics.counter("assembly.symbolic_reuse").value == (
            len(plans) - 3
        )


#: a NaN diagonal entry, a desymmetrised diagonal block
MATRIX_FAULTS = {"matrix_nan": "finite_diag", "matrix_desymmetrize": "symmetry"}


@pytest.mark.parametrize("fault", list(MATRIX_FAULTS))
def test_fault_in_one_sweeps_matrix_does_not_reach_the_next(fault):
    """The planted matrix defects corrupt a sweep's ``K`` in place; the
    next sweep's comes out of the same binding in fresh arrays."""
    engine = GpuEngine(
        build_slope_model(joint_spacing=6.0, seed=0),
        SimulationControls(time_step=2e-3, dynamic=False, penalty_scale=50.0),
    )
    first, args = assemble_sweep(engine)
    clean = (bits(first.diag).copy(), bits(first.blocks).copy())
    binding = engine._bound_assembly
    PLANTED[MATRIX_FAULTS[fault]].plant(engine, first)
    assert not np.array_equal(bits(first.diag), clean[0])

    second = engine._assemble(*args)
    assert engine._bound_assembly is binding
    np.testing.assert_array_equal(bits(second.diag), clean[0])
    np.testing.assert_array_equal(bits(second.blocks), clean[1])
    for ours in (second.diag, second.blocks):
        for theirs in (first.diag, first.blocks, args[1], binding.work):
            assert not np.shares_memory(ours, theirs)


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
        """A reused plan's captured records, recorded again, leave the
        ledger a second assembly would: same records, same seconds."""
        n, diag_idx, diag_blocks, off_rows, off_cols, off_blocks = (
            contribution_stream(1)
        )
        reused, rerun = VirtualDevice(K40), VirtualDevice(K40)
        for dev in (reused, rerun):
            assemble_gpu(
                n, diag_idx, diag_blocks, off_rows, off_cols, off_blocks, dev
            )
        reused.record(reused.launches_since(0))
        assemble_gpu(
            n, diag_idx, diag_blocks, off_rows, off_cols, off_blocks, rerun
        )
        assert reused.launches_since(0) == rerun.launches_since(0)
        assert repr(reused.total_time) == repr(rerun.total_time)


class TestInvalidation:
    def test_matches_is_exact(self):
        """The engines keep a plan behind :class:`KeptLaunches`: its gate
        holds on the exact pattern only."""
        n, diag_idx, _, off_rows, off_cols, _ = contribution_stream(2)
        kept = KeptLaunches()
        plan = kept.run(
            None, lambda: AssemblyPlan.build(n, diag_idx, off_rows, off_cols),
            diag_idx, off_rows, off_cols,
        )
        assert (plan.diag_perm.size, plan.perm.size) == (diag_idx.size, off_rows.size)

        def matches(*pattern):
            return kept.holds(None, pattern)

        assert matches(diag_idx.copy(), off_rows.copy(), off_cols.copy())
        # the gate keeps its own copy: a write to the caller's array misses
        off_cols[0] += n
        assert not matches(diag_idx, off_rows, off_cols)
        off_cols[0] -= n
        # shape change
        assert not matches(diag_idx[:-1], off_rows, off_cols)
        assert not matches(diag_idx, off_rows[:-1], off_cols[:-1])
        # value change
        bumped = diag_idx.copy()
        bumped[0] = (bumped[0] + 1) % n
        assert not matches(bumped, off_rows, off_cols)
        swapped = off_rows.copy()
        swapped[0], swapped[1] = swapped[1], swapped[0]
        if not np.array_equal(swapped, off_rows):
            assert not matches(diag_idx, swapped, off_cols)
