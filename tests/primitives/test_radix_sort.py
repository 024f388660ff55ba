import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.primitives.radix_sort import radix_sort_pairs


class TestRadixSortPairs:
    def test_sorts(self, rng):
        keys = rng.integers(0, 10_000, size=2000)
        sorted_keys, perm = radix_sort_pairs(keys)
        np.testing.assert_array_equal(sorted_keys, np.sort(keys))
        np.testing.assert_array_equal(keys[perm], sorted_keys)

    def test_stable(self):
        keys = np.array([2, 1, 2, 1, 2], dtype=np.int64)
        _, perm = radix_sort_pairs(keys)
        # equal keys keep original relative order
        np.testing.assert_array_equal(perm, [1, 3, 0, 2, 4])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            radix_sort_pairs(np.array([-1, 2]))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            radix_sort_pairs(np.array([1.5, 2.5]))

    def test_empty(self):
        sorted_keys, perm = radix_sort_pairs(np.zeros(0, dtype=np.int64))
        assert sorted_keys.size == 0 and perm.size == 0

    def test_pass_count_scales_with_key_bits(self, rng):
        from repro.gpu.device import K40
        from repro.gpu.kernel import VirtualDevice

        keys = rng.integers(0, 2**16, size=512).astype(np.int64)
        few, many = VirtualDevice(K40), VirtualDevice(K40)
        radix_sort_pairs(keys, None, few, key_bits=16, digit_bits=8)
        radix_sort_pairs(keys, None, many, key_bits=16, digit_bits=4)
        assert many.launches() == 2 * few.launches()

    def test_identity_scatter_models_cheaper_than_random(self, rng):
        # Keys already grouped per digit scatter coalesced (identity
        # destinations); random keys scatter to scattered destinations.
        from repro.gpu.device import K40
        from repro.gpu.kernel import VirtualDevice

        n = 1 << 12
        constant_keys = np.zeros(n, dtype=np.int64)
        random_keys = rng.permutation(n).astype(np.int64)
        d_const, d_random = VirtualDevice(K40), VirtualDevice(K40)
        radix_sort_pairs(constant_keys, None, d_const, key_bits=12)
        radix_sort_pairs(random_keys, None, d_random, key_bits=12)
        assert (
            d_const.total_counters.global_txn_written
            < d_random.total_counters.global_txn_written
        )

    @given(
        hnp.arrays(
            np.int64,
            st.integers(min_value=0, max_value=400),
            elements=st.integers(min_value=0, max_value=2**40),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_sorted_permutation(self, keys):
        sorted_keys, perm = radix_sort_pairs(keys)
        np.testing.assert_array_equal(sorted_keys, np.sort(keys))
        np.testing.assert_array_equal(np.sort(perm), np.arange(keys.size))
