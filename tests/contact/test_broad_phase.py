import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broad_phase_oracle import broad_phase_pairs_python
from repro.contact.broad_phase import (
    TILE,
    broad_phase_pairs,
    gpu_pair_mapping,
)
from repro.gpu.counters import KernelCounters


def _lexsorted(i, j):
    """A pair list in row-major order, the double loop's."""
    order = np.lexsort((j, i))
    return i[order], j[order]


def random_aabbs(rng, n, world=10.0, size=1.0):
    lo = rng.uniform(0, world, size=(n, 2))
    hi = lo + rng.uniform(0.1, size, size=(n, 2))
    return np.concatenate([lo, hi], axis=1)


class TestGpuPairMapping:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 16, 31])
    def test_covers_all_pairs_exactly_once(self, n):
        i, j = gpu_pair_mapping(n)
        assert i.size == n * (n - 1) // 2
        keys = set(zip(i.tolist(), j.tolist()))
        expected = {(a, b) for a in range(n) for b in range(a + 1, n)}
        assert keys == expected

    def test_trivial_sizes(self):
        i, j = gpu_pair_mapping(1)
        assert i.size == 0

    def test_load_balance(self):
        # each row of the reshaped matrix holds (about) n/2 tests —
        # that is the point of the reshape
        n = 32
        rows = np.repeat(np.arange(n), n // 2)
        # row r appears as originating row n//2 times before dedup;
        # after dedup each unordered pair appears once and rows are
        # near-uniform
        i, j = gpu_pair_mapping(n)
        counts = np.bincount(np.concatenate([i, j]), minlength=n)
        assert counts.max() - counts.min() <= 1


class TestBroadPhase:
    def test_matches_python_reference(self, rng, device):
        aabbs = random_aabbs(rng, 40)
        gi, gj = _lexsorted(*broad_phase_pairs(aabbs, 0.1, device))
        pi, pj = _lexsorted(*broad_phase_pairs_python(aabbs, 0.1))
        np.testing.assert_array_equal(gi, pi)
        np.testing.assert_array_equal(gj, pj)
        assert device.launches() == 1

    def test_disjoint_boxes(self):
        aabbs = np.array([[0, 0, 1, 1], [5, 5, 6, 6.0]])
        i, j = broad_phase_pairs(aabbs, 0.1)
        assert i.size == 0

    def test_touching_with_margin(self):
        aabbs = np.array([[0, 0, 1, 1], [1.05, 0, 2, 1.0]])
        i, j = broad_phase_pairs(aabbs, 0.1)
        assert i.size == 1
        i, j = broad_phase_pairs(aabbs, 0.01)
        assert i.size == 0

    def test_single_block(self):
        i, j = broad_phase_pairs(np.array([[0, 0, 1, 1.0]]), 0.1)
        assert i.size == 0

    def test_all_overlapping(self):
        aabbs = np.tile(np.array([[0, 0, 1, 1.0]]), (5, 1))
        i, j = broad_phase_pairs(aabbs, 0.0)
        assert i.size == 10

    @given(st.integers(min_value=2, max_value=40), st.integers(0, 9999))
    @settings(max_examples=30, deadline=None)
    def test_property_gpu_equals_python(self, n, seed):
        rng = np.random.default_rng(seed)
        aabbs = random_aabbs(rng, n, world=5.0, size=2.0)
        gi, gj = _lexsorted(*broad_phase_pairs(aabbs, 0.05))
        pi, pj = _lexsorted(*broad_phase_pairs_python(aabbs, 0.05))
        np.testing.assert_array_equal(gi, pi)
        np.testing.assert_array_equal(gj, pj)


# ----------------------------------------------------------------------
# the grid kernel against both oracles
# ----------------------------------------------------------------------
GRID_SIZES = [0, 1, 2, 3, 4, 5, 16, 17, 300, 802, 1089]


def mapped_then_masked(aabbs, margin):
    """The specification: enumerate :func:`gpu_pair_mapping`, gather both
    boxes of every pair, test, mask — what ``broad_phase_pairs`` did
    before it evaluated the tests on the grid directly."""
    i, j = gpu_pair_mapping(aabbs.shape[0])
    a, b = aabbs[i], aabbs[j]
    hits = (
        (a[:, 0] <= b[:, 2] + margin)
        & (b[:, 0] <= a[:, 2] + margin)
        & (a[:, 1] <= b[:, 3] + margin)
        & (b[:, 1] <= a[:, 3] + margin)
    )
    return i[hits], j[hits], i.size


def degenerate_aabbs(rng, n):
    """Boxes on a unit lattice, so neighbours touch exactly; a third are
    repeated verbatim and a third collapsed to zero area."""
    lo = rng.integers(0, 6, size=(n, 2)).astype(np.float64)
    aabbs = np.concatenate([lo, lo + 1.0], axis=1)
    if n:
        aabbs[n // 3: 2 * (n // 3)] = aabbs[0]
        aabbs[2 * (n // 3):, 2:] = aabbs[2 * (n // 3):, :2]
    return aabbs


@pytest.mark.parametrize("boxes", ["random", "degenerate"])
@pytest.mark.parametrize("n", GRID_SIZES)
def test_grid_kernel_matches_both_oracles(n, boxes, device):
    rng = np.random.default_rng(n)
    if boxes == "random":
        aabbs = random_aabbs(rng, n, world=math.sqrt(n + 1.0))
        margin = 0.05
    else:
        aabbs, margin = degenerate_aabbs(rng, n), 0.0
    i, j = broad_phase_pairs(aabbs, margin, device)

    # the mapping + mask specification: same pairs, same order, same dtype
    si, sj, tests = mapped_then_masked(aabbs, margin)
    assert i.dtype == si.dtype and j.dtype == sj.dtype
    np.testing.assert_array_equal(i, si)
    np.testing.assert_array_equal(j, sj)
    if n >= 300:
        assert i.size > n // 2  # the comparison is not vacuous

    # the serial double loop: same set of pairs
    if n <= 300:
        pi, pj = broad_phase_pairs_python(aabbs, margin)
        assert set(zip(i.tolist(), j.tolist())) == set(
            zip(pi.tolist(), pj.tolist())
        )

    # the ledger entry, field by field, from the closed-form counts
    if n < 2:
        assert device.launches() == 0
        return
    (record,) = device.records
    assert record.name == "broad_phase_tiled"
    assert tests == n * (n - 1) // 2
    hits = i.size
    tiles = math.ceil(n / TILE) * math.ceil((n // 2) / TILE)
    warps = max(1, tests // 32)
    assert record.counters == KernelCounters(
        flops=8.0 * tests,
        global_bytes_read=tiles * (2 * TILE - 1) * 32.0,
        global_bytes_written=hits * 8.0,
        global_txn_read=tiles * math.ceil((2 * TILE - 1) * 32 / 128),
        global_txn_written=math.ceil(hits * 8 / 128),
        shared_accesses=2.0 * tests,
        threads=tests,
        warps=warps,
        branch_regions=warps,
        divergent_branch_regions=warps * min(1.0, 2.0 * hits / tests),
    )


def test_grid_kernel_never_materialises_the_pair_matrix():
    """At 1089 blocks the pair matrix is 593k index pairs plus two
    gathered ``(593k, 4)`` AABB arrays (about 60 MB at its peak); the
    grid evaluation needs a handful of 0.6 MB boolean planes."""
    rng = np.random.default_rng(7)
    aabbs = random_aabbs(rng, 1089, world=33.0)
    broad_phase_pairs(aabbs, 0.05)  # warm imports and caches
    tracemalloc.start()
    try:
        broad_phase_pairs(aabbs, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
