import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.primitives.reduce import device_reduce, segment_boundaries, segmented_reduce


class TestDeviceReduce:
    def test_sum(self, rng, device):
        x = rng.random(5000)
        assert device_reduce(x, device) == pytest.approx(x.sum())
        assert device.launches() == 2

    def test_small_single_launch(self, device):
        device_reduce(np.ones(8), device)
        assert device.launches() == 1

    def test_empty(self):
        assert device_reduce(np.zeros(0)) == 0.0


class TestSegmentBoundaries:
    def test_runs(self):
        keys = np.array([3, 3, 5, 5, 5, 9])
        np.testing.assert_array_equal(segment_boundaries(keys), [0, 2, 5])

    def test_all_distinct(self):
        keys = np.arange(4)
        np.testing.assert_array_equal(segment_boundaries(keys), [0, 1, 2, 3])

    def test_single_run(self):
        np.testing.assert_array_equal(segment_boundaries(np.zeros(5)), [0])

    def test_empty(self):
        assert segment_boundaries(np.zeros(0)).size == 0


class TestSegmentedReduce:
    def test_scalar_segments(self, device):
        vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        out = segmented_reduce(vals, np.array([0, 2], dtype=np.int64), device)
        np.testing.assert_allclose(out, [3.0, 12.0])
        assert device.launches() == 1

    def test_row_segments(self):
        vals = np.arange(12, dtype=float).reshape(4, 3)
        out = segmented_reduce(vals, np.array([0, 1, 3], dtype=np.int64))
        np.testing.assert_allclose(out[0], vals[0])
        np.testing.assert_allclose(out[1], vals[1] + vals[2])
        np.testing.assert_allclose(out[2], vals[3])

    def test_rejects_bad_starts(self):
        with pytest.raises(ValueError):
            segmented_reduce(np.ones(4), np.array([1, 2], dtype=np.int64))
        with pytest.raises(ValueError):
            segmented_reduce(np.ones(4), np.array([0, 0], dtype=np.int64))
        with pytest.raises(ValueError, match="in range"):
            segmented_reduce(np.ones(4), np.array([0, 4], dtype=np.int64))

    @pytest.mark.parametrize("shape", [(0,), (0, 36)])
    def test_rejects_segments_of_empty_values(self, shape):
        """No rows but a segment start: the documented ValueError, not
        NumPy's reduceat IndexError."""
        with pytest.raises(ValueError, match="in range"):
            segmented_reduce(np.zeros(shape), np.array([0], dtype=np.int64))

    def test_assembly_idiom_matches_bincount(self, rng):
        # the Fig-4 idiom: sort contributions by key, reduce runs
        keys = rng.integers(0, 20, size=200)
        vals = rng.random(200)
        order = np.argsort(keys, kind="stable")
        sk, sv = keys[order], vals[order]
        starts = segment_boundaries(sk)
        sums = segmented_reduce(sv, starts)
        expect = np.bincount(keys, weights=vals, minlength=20)
        present = np.unique(keys)
        np.testing.assert_allclose(sums, expect[present])

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_property_group_sums(self, key_list):
        keys = np.asarray(key_list, dtype=np.int64)
        vals = np.arange(keys.size, dtype=float)
        order = np.argsort(keys, kind="stable")
        starts = segment_boundaries(keys[order])
        sums = segmented_reduce(vals[order], starts)
        assert sums.sum() == pytest.approx(vals.sum())
