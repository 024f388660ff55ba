import numpy as np
import pytest

from repro.primitives.sorted_search import sorted_search


class TestSortedSearch:
    def test_matches_searchsorted(self, rng, device):
        hay = np.sort(rng.integers(0, 1000, size=200))
        needles = rng.integers(0, 1000, size=50)
        np.testing.assert_array_equal(
            sorted_search(hay, needles, device),
            np.searchsorted(hay, needles),
        )
        assert device.launches() == 1

    def test_side_right(self):
        hay = np.array([1, 2, 2, 3])
        assert sorted_search(hay, np.array([2]), side="right")[0] == 3

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted"):
            sorted_search(np.array([3, 1]), np.array([2]))

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError, match="side"):
            sorted_search(np.array([1]), np.array([1]), side="middle")

    def test_contact_transfer_idiom(self, rng):
        # find each previous contact inside the current sorted contact keys
        current = np.sort(rng.integers(0, 100, size=60))
        previous = rng.integers(0, 100, size=20)
        lo = sorted_search(current, previous, side="left")
        hi = sorted_search(current, previous, side="right")
        found = hi > lo
        for key, f in zip(previous, found):
            assert f == (key in current)
