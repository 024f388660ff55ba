import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.primitives.scan import exclusive_scan, inclusive_scan


class TestInclusiveScan:
    def test_matches_cumsum(self, rng):
        x = rng.integers(0, 100, size=1000)
        np.testing.assert_array_equal(inclusive_scan(x), np.cumsum(x))

    def test_records_launches(self, device):
        inclusive_scan(np.ones(10_000, dtype=np.int64), device)
        assert device.launches() >= 3  # block scan + sums scan + uniform add

    def test_small_array_single_launch(self, device):
        inclusive_scan(np.ones(10, dtype=np.int64), device)
        assert device.launches() == 1

    def test_empty(self):
        assert inclusive_scan(np.zeros(0, dtype=np.int64)).size == 0

    def test_shuffle_cheaper_than_shared_tree(self, device, cpu_device):
        from repro.gpu.device import K40
        from repro.gpu.kernel import VirtualDevice

        x = np.ones(1 << 18, dtype=np.int64)
        d_shfl, d_tree = VirtualDevice(K40), VirtualDevice(K40)
        inclusive_scan(x, d_shfl, use_shuffle=True)
        inclusive_scan(x, d_tree, use_shuffle=False)
        # the paper replaced shared-tree reductions with shuffles for a win
        assert (
            d_shfl.total_counters.shared_accesses
            < d_tree.total_counters.shared_accesses
        )


class TestExclusiveScan:
    def test_shifted_cumsum(self, rng):
        x = rng.integers(0, 100, size=257)
        out = exclusive_scan(x)
        assert out[0] == 0
        np.testing.assert_array_equal(out[1:], np.cumsum(x)[:-1])

    def test_single_element(self):
        out = exclusive_scan(np.array([5]))
        np.testing.assert_array_equal(out, [0])

    def test_compaction_idiom(self, rng):
        # exclusive scan of a 0/1 mask gives output positions
        mask = rng.random(100) < 0.3
        pos = exclusive_scan(mask.astype(np.int64))
        assert pos[-1] + mask[-1] == mask.sum()

    @given(
        hnp.arrays(
            np.int64,
            st.integers(min_value=0, max_value=300),
            elements=st.integers(min_value=-(2**30), max_value=2**30),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_prefix_sums(self, x):
        exc = exclusive_scan(x)
        inc = inclusive_scan(x)
        assert exc.size == x.size and inc.size == x.size
        if x.size:
            np.testing.assert_array_equal(inc - exc, x)
            assert exc[0] == 0
