"""Partition planning: determinism, balance, fallback behaviour."""

import numpy as np
import pytest

from repro.contact.broad_phase import broad_phase_pairs
from repro.core.blocks import Block, BlockSystem
from repro.core.materials import BlockMaterial
from repro.domain.partition import (
    PartitionStats,
    _fiedler_order,
    _labels_from_order,
    partition_blocks,
    partition_stats,
)
from repro.meshing.slope_models import build_brick_wall

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
MAT = BlockMaterial(young=1e9)


def two_islands() -> BlockSystem:
    """Two contact clusters 100 units apart — a disconnected graph."""
    blocks = [Block(SQ + np.array([1.05 * k, 0.0]), MAT) for k in range(3)]
    blocks += [
        Block(SQ + np.array([100.0 + 1.05 * k, 0.0]), MAT) for k in range(3)
    ]
    return BlockSystem(blocks)


def chain(xs) -> BlockSystem:
    """Unit squares in a row, the k-th with its left edge at ``xs[k]``."""
    return BlockSystem([Block(SQ + np.array([x, 0.0]), MAT) for x in xs])


def stripe_labels(system: BlockSystem, n_domains: int) -> np.ndarray:
    """Equal-count spatial stripes along x, built by hand."""
    order = np.argsort(system.centroids[:, 0], kind="stable")
    return _labels_from_order(order, n_domains)


def spectral_labels(system: BlockSystem, n_domains: int) -> np.ndarray:
    """The Fiedler order of the margin-0.1 AABB graph, split by hand."""
    i, j = broad_phase_pairs(system.aabbs, 0.1)
    order = _fiedler_order(system.n_blocks, i, j, system.centroids[:, 0])
    return _labels_from_order(order, n_domains)


def stats_of(system: BlockSystem, labels: np.ndarray, n_domains: int):
    return partition_stats(
        labels, n_domains, *broad_phase_pairs(system.aabbs, 0.1)
    )


LABELLINGS = {
    "auto": lambda system, n: partition_blocks(system, n, margin=0.1)[0],
    "graph": spectral_labels,
    "stripe": stripe_labels,
}


class TestPartitionBlocks:
    def test_deterministic_across_calls(self):
        system = build_brick_wall(4, 6)
        labels_a, stats_a = partition_blocks(system, 3, margin=0.1)
        labels_b, stats_b = partition_blocks(system, 3, margin=0.1)
        np.testing.assert_array_equal(labels_a, labels_b)
        np.testing.assert_array_equal(stats_a.counts, stats_b.counts)
        assert stats_a.cut_fraction == stats_b.cut_fraction
        assert stats_a.imbalance == stats_b.imbalance

    def test_single_domain_is_trivial(self):
        system = build_brick_wall(2, 3)
        labels, stats = partition_blocks(system, 1, margin=0.1)
        np.testing.assert_array_equal(labels, 0)
        assert stats.cut_fraction == 0.0
        assert stats.imbalance == 1.0

    @pytest.mark.parametrize("method", LABELLINGS)
    def test_every_method_covers_all_blocks(self, method):
        system = build_brick_wall(4, 6)
        labels = LABELLINGS[method](system, 4)
        stats = stats_of(system, labels, 4)
        assert labels.shape == (system.n_blocks,)
        assert set(np.unique(labels)) == {0, 1, 2, 3}
        assert stats.counts.sum() == system.n_blocks

    def test_balanced_counts(self):
        system = build_brick_wall(4, 6)
        _, graph = partition_blocks(system, 4, margin=0.1)
        for stats in (graph, stats_of(system, stripe_labels(system, 4), 4)):
            assert stats.counts.max() - stats.counts.min() <= 1
            assert stats.imbalance < 1.2

    def test_stripe_labels_are_spatial(self):
        # the two islands are disconnected, so the partition is stripes
        system = two_islands()
        labels, _ = partition_blocks(system, 2, margin=0.1)
        x = system.centroids[:, 0]
        # every left-domain block sits left of every right-domain block
        assert x[labels == 0].max() <= x[labels == 1].min()

    def test_auto_falls_back_to_stripe_when_disconnected(self):
        system = two_islands()
        auto, _ = partition_blocks(system, 2, margin=0.1)
        np.testing.assert_array_equal(auto, stripe_labels(system, 2))

    def test_disconnected_components_force_stripe_fallback(self):
        # a gap wider than the margin splits a 6-chain into {0, 1} and
        # {2, ..., 5}; the stripes cut it 3 + 3, across the component
        system = chain([0.0, 1.05, 2.6, 3.65, 4.7, 5.75])
        i, _ = broad_phase_pairs(system.aabbs, 0.1)
        assert i.size == 4
        labels, stats = partition_blocks(system, 2, margin=0.1)
        np.testing.assert_array_equal(labels, [0, 0, 0, 1, 1, 1])
        np.testing.assert_array_equal(labels, stripe_labels(system, 2))
        assert stats.cut_fraction == pytest.approx(1.0 / 4.0)

    def test_graph_cut_no_worse_than_stripe_on_wall(self):
        system = build_brick_wall(4, 6)
        _, graph = partition_blocks(system, 2, margin=0.1)
        stripe = stats_of(system, stripe_labels(system, 2), 2)
        assert graph.cut_fraction <= stripe.cut_fraction

    def test_broad_phase_graph_drives_the_split(self):
        system = chain(1.05 * np.arange(6))
        labels, stats = partition_blocks(system, 2, margin=0.1)
        # a 6-chain split in two cuts exactly one of its five edges
        assert stats.cut_fraction == pytest.approx(1.0 / 5.0)
        np.testing.assert_array_equal(np.sort(stats.counts), [3, 3])
        # the split is contiguous along the chain
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]

    def test_validation(self):
        system = build_brick_wall(2, 2)
        with pytest.raises(ValueError, match="n_domains"):
            partition_blocks(system, 0)


class TestStatsAndAdjacency:
    def test_stats_without_edges(self):
        labels = np.array([0, 0, 1, 1])
        empty = np.empty(0, dtype=np.int64)
        stats = partition_stats(labels, 2, empty, empty)
        assert isinstance(stats, PartitionStats)
        assert stats.cut_fraction == 0.0
        np.testing.assert_array_equal(stats.counts, [2, 2])

    def test_adjacency_from_broad_phase(self):
        system = two_islands()
        i, j = broad_phase_pairs(system.aabbs, 0.1)
        # neighbours touch within each island; islands never couple
        assert i.size == 4
        labels_island = (system.centroids[:, 0] > 50.0).astype(int)
        np.testing.assert_array_equal(labels_island[i], labels_island[j])


@pytest.mark.parametrize("seed", range(20))
def test_connectivity_agrees_with_scipy(seed):
    """The breadth-first sweep says what scipy's union-find says: a
    random tree plus a few random edges, with one tree edge cut on odd
    seeds (which the extra edges may or may not bridge)."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    from repro.domain.partition import _is_connected

    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    child = rng.permutation(np.arange(1, n))
    parent = (rng.random(n - 1) * child).astype(np.int64)
    if seed % 2:
        cut = rng.integers(n - 1)
        child, parent = np.delete(child, cut), np.delete(parent, cut)
    extra = rng.integers(0, n, size=(2, int(rng.integers(0, 3))))
    i = np.concatenate([parent, extra[0]])
    j = np.concatenate([child, extra[1]])
    adj = coo_matrix((np.ones(i.size), (i, j)), shape=(n, n))
    components, _ = connected_components(adj, directed=False)
    assert _is_connected(n, i, j) == (components == 1)
