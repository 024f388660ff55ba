"""Ownership maps, exchange plans, and the metered halo exchange."""

import numpy as np
import pytest

from repro.assembly.global_matrix import BS
from repro.domain.halo import (
    DomainMap,
    HaloExchanger,
    build_exchange_plan,
    make_domain_devices,
)
from repro.gpu.device import K40
from repro.obs.metrics import MetricsRegistry
from repro.spmv.synthetic import synthetic_block_matrix

N, M = 12, 20


@pytest.fixture
def matrix():
    return synthetic_block_matrix(N, M, seed=7)


def setup(matrix, n_domains, labels=None, metrics=None, inject=None):
    if labels is None:
        labels = np.arange(N, dtype=np.int64) * n_domains // N
    dmap = DomainMap.from_labels(labels, n_domains)
    plan = build_exchange_plan(dmap, matrix.rows, matrix.cols)
    exchanger = HaloExchanger(
        dmap, plan, make_domain_devices(n_domains, K40),
        metrics=metrics, inject=inject,
    )
    return dmap, plan, exchanger


class TestDomainMap:
    def test_owned_partitions_all_blocks(self, matrix):
        dmap, _, _ = setup(matrix, 3)
        all_owned = np.concatenate(dmap.owned)
        np.testing.assert_array_equal(np.sort(all_owned), np.arange(N))

    def test_local_indexes_into_owner(self, matrix):
        dmap, _, _ = setup(matrix, 3)
        for d in range(3):
            np.testing.assert_array_equal(
                dmap.local[dmap.owned[d]], np.arange(dmap.owned[d].size)
            )


class TestExchangePlan:
    def test_ghosts_are_cross_domain(self, matrix):
        dmap, plan, _ = setup(matrix, 3)
        for d in range(3):
            assert np.all(dmap.labels[plan.ghosts[d]] != d)

    def test_ghosts_cover_every_cut_entry(self, matrix):
        dmap, plan, _ = setup(matrix, 3)
        rows, cols = matrix.rows, matrix.cols
        for d in range(3):
            ghost = set(plan.ghosts[d].tolist())
            lab = dmap.labels
            for r, c in zip(rows.tolist(), cols.tolist()):
                if lab[r] == d and lab[c] != d:
                    assert c in ghost
                if lab[c] == d and lab[r] != d:
                    assert r in ghost

    def test_slots_owned_first_then_ghosts(self, matrix):
        dmap, plan, _ = setup(matrix, 2)
        for d in range(2):
            own = dmap.owned[d]
            slot = plan.slots[d]
            lo = plan.offsets[d]
            np.testing.assert_array_equal(slot[own], lo + np.arange(own.size))
            np.testing.assert_array_equal(
                slot[plan.ghosts[d]],
                lo + own.size + np.arange(plan.ghosts[d].size),
            )

    @pytest.mark.parametrize("n_domains", [1, 2, 3, 8])
    def test_stacked_layout_is_owned_then_ghosts_per_domain(
        self, matrix, n_domains
    ):
        dmap, plan, _ = setup(matrix, n_domains)
        np.testing.assert_array_equal(plan.ext_ids, np.concatenate([
            ids for d in range(n_domains)
            for ids in (dmap.owned[d], plan.ghosts[d])
        ]))
        assert plan.offsets[0] == 0 and plan.offsets[-1] == plan.ext_ids.size
        for d in range(n_domains):
            lo, hi = plan.offsets[d], plan.offsets[d + 1]
            held = plan.slots[d] >= 0
            # the map and the layout are inverse on the domain's range
            np.testing.assert_array_equal(
                plan.slots[d][plan.ext_ids[lo:hi]], np.arange(lo, hi)
            )
            assert held.sum() == hi - lo

    def test_sends_ship_exactly_the_ghosts(self, matrix):
        dmap, plan, _ = setup(matrix, 3)
        for d in range(3):
            shipped = [ids for src, dst, ids in plan.sends if dst == d]
            got = np.sort(np.concatenate(shipped)) if shipped else \
                np.empty(0, dtype=np.int64)
            np.testing.assert_array_equal(got, plan.ghosts[d])
        for src, dst, ids in plan.sends:
            assert src != dst
            assert np.all(dmap.labels[ids] == src)


class TestHaloExchanger:
    def test_scatter_gather_round_trip_bitwise(self, matrix):
        _, _, ex = setup(matrix, 3)
        rng = np.random.default_rng(0)
        x = rng.normal(size=N * BS)
        segments = ex.scatter(x)
        np.testing.assert_array_equal(ex.gather(segments), x)

    def test_exchange_refreshes_ghost_values(self, matrix):
        dmap, plan, ex = setup(matrix, 2)
        rng = np.random.default_rng(1)
        x = rng.normal(size=N * BS)
        ext = ex.exchange(ex.scatter(x)).reshape(-1, BS)
        xb = x.reshape(N, BS)
        for d in range(2):
            lo = plan.offsets[d]
            np.testing.assert_array_equal(
                ext[lo : lo + dmap.owned[d].size], xb[dmap.owned[d]]
            )
            np.testing.assert_array_equal(
                ext[plan.slots[d][plan.ghosts[d]]], xb[plan.ghosts[d]]
            )
        # every slot, owned or ghost, holds its owner's value
        np.testing.assert_array_equal(ext, xb[plan.ext_ids])
        assert not np.shares_memory(ext, x)

    def test_halo_bytes_metered(self, matrix):
        metrics = MetricsRegistry()
        dmap, plan, ex = setup(matrix, 2, metrics=metrics)
        x = np.ones(N * BS)
        ex.exchange(ex.scatter(x))
        expected = sum(
            ids.size * BS * 8 for _, _, ids in plan.sends
        )
        assert metrics.counter("domain.halo_bytes").value == expected
        assert expected > 0
        # every exchange meters the same plan again
        ex.exchange(ex.scatter(x))
        ex.exchange(ex.scatter(x))
        assert metrics.counter("domain.halo_bytes").value == 3 * expected

    def test_exchange_ledger_follows_the_send_list(self, matrix):
        _, plan, ex = setup(matrix, 3)
        ex.exchange(ex.scatter(np.ones(N * BS)))
        for d, dev in enumerate(ex.devices):
            moved = [
                (r.name, r.counters.global_bytes_read)
                for r in dev.records if r.name.startswith("pcie_halo_")
            ]
            assert moved == [
                ("pcie_halo_send" if src == d else "pcie_halo_recv",
                 ids.size * BS * 8.0)
                for src, dst, ids in plan.sends if d in (src, dst)
            ]

    def test_single_domain_charges_no_transfer(self, matrix):
        metrics = MetricsRegistry()
        _, plan, ex = setup(matrix, 1, metrics=metrics)
        x = np.ones(N * BS)
        ex.allreduce()
        ex.gather(ex.exchange(ex.scatter(x)), solution=True)
        assert plan.sends == ()
        assert ex.devices[0].records == []
        assert "domain.halo_bytes" not in metrics.snapshot()["counters"]

    def test_transfers_priced_on_every_device(self, matrix):
        _, _, ex = setup(matrix, 2)
        ex.allreduce()
        for dev in ex.devices:
            times = dev.time_by_module()
            assert times.get("halo_exchange", 0.0) > 0.0

    def test_gather_solution_applies_chaos_hook(self, matrix):
        seen = []

        def inject(buf):
            seen.append(buf.copy())
            buf[0] = 42.0
            return buf

        _, _, ex = setup(matrix, 2, inject=inject)
        x = np.zeros(N * BS)
        out = ex.gather(ex.scatter(x), solution=True)
        assert len(seen) == 1
        assert out[0] == 42.0
        # the plain (non-solution) gather never invokes the hook
        ex.gather(ex.scatter(x))
        assert len(seen) == 1
