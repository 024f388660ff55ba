import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.memory import (
    SHARED_BANKS,
    TRANSACTION_BYTES,
    coalesced_transactions,
    gather_transactions,
    shared_bank_conflicts,
    strided_transactions,
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


class TestStrided:
    def test_stride_one_matches_coalesced(self):
        assert strided_transactions(128, 8, 1) == coalesced_transactions(128, 8)

    def test_large_stride_one_txn_per_element(self):
        assert strided_transactions(100, 8, 16) == 100

    def test_intermediate_stride(self):
        # stride 2 of 8-byte elements: 8 useful elements per 128B txn
        assert strided_transactions(64, 8, 2) == 8


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


def bank_conflicts_by_warp(idx, warp_size=32):
    """Reference: per warp (the last padded with its final lane), the
    most distinct words any one bank serves, less one."""
    idx = list(idx) + [idx[-1]] * ((-len(idx)) % warp_size)
    extra = 0
    for w in range(0, len(idx), warp_size):
        words_by_bank = {}
        for word in idx[w : w + warp_size]:
            words_by_bank.setdefault(word % SHARED_BANKS, set()).add(word)
        extra += max(len(words) for words in words_by_bank.values()) - 1
    return extra


class TestBankConflicts:
    def test_sequential_no_conflict(self):
        idx = np.arange(32)
        assert shared_bank_conflicts(idx) == 0

    def test_same_word_broadcast_no_conflict(self):
        idx = np.zeros(32, dtype=np.int64)
        assert shared_bank_conflicts(idx) == 0

    def test_stride_bank_conflict(self):
        # stride 32 words: all lanes hit bank 0 at distinct words -> 31 extra
        idx = np.arange(32) * SHARED_BANKS
        assert shared_bank_conflicts(idx) == 31

    def test_two_way_conflict(self):
        # stride 2: pairs of lanes share each even bank -> 1 extra cycle
        idx = np.arange(32) * 2
        assert shared_bank_conflicts(idx) == 1

    def test_sixteen_way_conflict(self):
        # stride 16: only banks 0 and 16 are hit, 16 distinct words each
        idx = np.arange(32) * 16
        assert shared_bank_conflicts(idx) == 15

    def test_empty(self):
        assert shared_bank_conflicts(np.zeros(0, dtype=np.int64)) == 0

    @given(
        st.lists(st.integers(min_value=0, max_value=512), min_size=1, max_size=96)
    )
    @settings(max_examples=50, deadline=None)
    def test_fast_matches_reference(self, indices):
        idx = np.asarray(indices, dtype=np.int64)
        assert shared_bank_conflicts(idx) == bank_conflicts_by_warp(idx)
