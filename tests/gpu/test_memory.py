import numpy as np
import pytest

from repro.gpu.memory import (
    TRANSACTION_BYTES,
    coalesced_transactions,
    gather_transactions,
)


class TestCoalesced:
    def test_exact_fit(self):
        assert coalesced_transactions(16, 8) == 1  # 128 bytes

    def test_round_up(self):
        assert coalesced_transactions(17, 8) == 2

    def test_zero(self):
        assert coalesced_transactions(0, 8) == 0

    def test_bad_elem_bytes(self):
        with pytest.raises(Exception):
            coalesced_transactions(4, 0)


class TestGather:
    def test_contiguous_is_coalesced(self):
        idx = np.arange(128)
        assert gather_transactions(idx, 8) == coalesced_transactions(128, 8)

    def test_random_worse_than_contiguous(self):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 1_000_000, size=1024)
        assert gather_transactions(idx, 8) > gather_transactions(np.arange(1024), 8)

    def test_broadcast_single_txn_per_warp(self):
        idx = np.zeros(64, dtype=np.int64)
        assert gather_transactions(idx, 8) == 2  # one per warp

    def test_empty(self):
        assert gather_transactions(np.zeros(0, dtype=np.int64), 8) == 0

    def test_worst_case_one_per_lane(self):
        # every lane in its own 128-byte segment
        idx = np.arange(32) * (TRANSACTION_BYTES // 8)
        assert gather_transactions(idx, 8) == 32

