import numpy as np

from repro.analysis.topology import (
    contact_clusters,
    contact_graph,
    coordination_numbers,
    load_path_depth,
    unanchored_blocks,
)
from repro.assembly.contact_springs import LOCK, OPEN
from repro.contact.contact_set import VE, ContactSet
from repro.core.blocks import Block, BlockSystem

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def chain_system(n=4, fixed_first=True):
    """Blocks in a row; contacts chain 0-1, 1-2, ..."""
    blocks = [Block(SQ + np.array([1.05 * k, 0.0])) for k in range(n)]
    system = BlockSystem(blocks)
    if fixed_first:
        system.fix_block(0)
    m = n - 1
    contacts = ContactSet(
        block_i=np.arange(m, dtype=np.int64),
        block_j=np.arange(1, n, dtype=np.int64),
        vertex_idx=np.arange(m, dtype=np.int64) * 4 + 1,
        e1_idx=np.arange(1, n, dtype=np.int64) * 4,
        e2_idx=np.arange(1, n, dtype=np.int64) * 4 + 3,
        kind=np.full(m, VE, dtype=np.int64),
    )
    contacts.state[:] = LOCK
    return system, contacts


class TestContactGraph:
    def test_nodes_and_edges(self):
        system, contacts = chain_system(4)
        g = contact_graph(system, contacts)
        assert g.number_of_nodes() == 4
        assert g.number_of_edges() == 3

    def test_fixed_attribute(self):
        system, contacts = chain_system(3)
        g = contact_graph(system, contacts)
        assert g.nodes[0]["fixed"]
        assert not g.nodes[1]["fixed"]

    def test_multiplicity_counted(self):
        system, contacts = chain_system(2)
        doubled = contacts.select(np.array([0, 0]))
        g = contact_graph(system, doubled)
        assert g[0][1]["multiplicity"] == 2

    def test_closed_only_filters_open(self):
        system, contacts = chain_system(3)
        contacts.state[0] = OPEN
        g = contact_graph(system, contacts, closed_only=True)
        assert not g.has_edge(0, 1)
        assert g.has_edge(1, 2)

    def test_empty_contacts(self):
        system, _ = chain_system(3)
        from repro.contact.contact_set import ContactSet

        g = contact_graph(system, ContactSet.empty())
        assert g.number_of_edges() == 0


class TestUnanchored:
    def test_chain_fully_anchored(self):
        system, contacts = chain_system(4)
        assert unanchored_blocks(system, contacts) == []

    def test_broken_chain(self):
        system, contacts = chain_system(4)
        contacts.state[1] = OPEN  # break between block 1 and 2
        assert unanchored_blocks(system, contacts) == [2, 3]

    def test_no_anchors_everything_free(self):
        system, contacts = chain_system(3, fixed_first=False)
        assert unanchored_blocks(system, contacts) == [0, 1, 2]


class TestClustersAndMetrics:
    def test_clusters_sorted_by_size(self):
        system, contacts = chain_system(5)
        contacts.state[1] = OPEN  # split into {0,1} and {2,3,4}
        clusters = contact_clusters(system, contacts)
        assert clusters[0] == [2, 3, 4]
        assert clusters[1] == [0, 1]

    def test_coordination_numbers(self):
        system, contacts = chain_system(4)
        coord = coordination_numbers(system, contacts)
        np.testing.assert_array_equal(coord, [1, 2, 2, 1])

    def test_load_path_depth(self):
        system, contacts = chain_system(4)
        depth = load_path_depth(system, contacts)
        np.testing.assert_array_equal(depth, [0, 1, 2, 3])

    def test_depth_minus_one_when_detached(self):
        system, contacts = chain_system(4)
        contacts.state[2] = OPEN
        depth = load_path_depth(system, contacts)
        assert depth[3] == -1

class TestPartitionAdjacent:
    """The topology queries the domain partitioner builds on."""

    def test_contact_graph_keeps_floating_blocks_as_nodes(self):
        # a block with no contacts must still be a (degree-0) node, so
        # the partitioner sees the full block set, not just the coupled
        _, contacts = chain_system(3)
        blocks = [Block(SQ + np.array([1.05 * k, 0.0])) for k in range(3)]
        blocks.append(Block(SQ + np.array([50.0, 0.0])))
        system_iso = BlockSystem(blocks)
        system_iso.fix_block(0)
        g = contact_graph(system_iso, contacts)
        assert g.number_of_nodes() == 4
        assert g.degree[3] == 0

    def test_fixed_and_floating_blocks_both_mapped(self):
        system, contacts = chain_system(4)
        g = contact_graph(system, contacts)
        fixed = [n for n, d in g.nodes(data=True) if d["fixed"]]
        free = [n for n, d in g.nodes(data=True) if not d["fixed"]]
        assert fixed == [0]
        assert free == [1, 2, 3]

    def test_disconnected_components_force_stripe_fallback(self):
        from repro.domain.partition import partition_blocks

        system, contacts = chain_system(6)
        contacts.state[2] = OPEN  # split the chain in two components
        auto, _ = partition_blocks(
            system, 2, method="auto",
            contacts=contacts.select(np.flatnonzero(contacts.state != OPEN)),
        )
        stripe, _ = partition_blocks(system, 2, method="stripe")
        np.testing.assert_array_equal(auto, stripe)

    def test_connected_chain_uses_the_contact_graph(self):
        from repro.domain.partition import adjacency_pairs

        system, contacts = chain_system(5)
        i, j = adjacency_pairs(system, contacts=contacts)
        g = contact_graph(system, contacts)
        assert set(zip(i.tolist(), j.tolist())) == set(g.edges)


class TestRealEngine:
    def test_real_engine_contacts(self):
        from repro.core.state import SimulationControls
        from repro.engine.gpu_engine import GpuEngine
        from repro.meshing.slope_models import build_brick_wall

        system = build_brick_wall(3, 4)
        engine = GpuEngine(
            system, SimulationControls(time_step=5e-4, dynamic=True)
        )
        engine.run(steps=10)
        # the settled wall is one anchored cluster
        free = unanchored_blocks(system, engine._contacts)
        assert free == []
        coord = coordination_numbers(system, engine._contacts)
        assert coord.mean() > 1.0
