import numpy as np

from repro.contact.contact_set import ContactSet
from repro.contact.initialization import (
    initialize_contacts_classified,
    initialize_contacts_unclassified,
)
from repro.core.blocks import Block, BlockSystem
from repro.core.materials import BlockMaterial
from repro.gpu.device import K40
from repro.gpu.kernel import VirtualDevice

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def make_fixture(n_contacts=96, seed=0):
    system = BlockSystem(
        [Block(SQ, BlockMaterial(young=2e9)), Block(SQ + 2, BlockMaterial(young=4e9))]
    )
    rng = np.random.default_rng(seed)
    kinds = np.sort(rng.integers(0, 3, size=n_contacts))  # grouped layout
    cs = ContactSet(
        block_i=np.zeros(n_contacts, dtype=np.int64),
        block_j=np.ones(n_contacts, dtype=np.int64),
        vertex_idx=rng.integers(0, 4, size=n_contacts),
        e1_idx=rng.integers(4, 8, size=n_contacts),
        e2_idx=rng.integers(4, 8, size=n_contacts),
        kind=kinds,
    )
    # avoid degenerate edges
    cs.e2_idx = np.where(cs.e2_idx == cs.e1_idx, 4 + (cs.e1_idx - 4 + 1) % 4, cs.e2_idx)
    return system, cs


class TestInitialization:
    def test_penalties_set_from_materials(self):
        system, cs = make_fixture()
        out = initialize_contacts_classified(system, cs, penalty_scale=10.0)
        np.testing.assert_allclose(out.pn, 10.0 * 0.5 * (2e9 + 4e9))
        np.testing.assert_allclose(out.ps, out.pn)

    def test_classified_equals_unclassified(self):
        system, cs = make_fixture()
        a = initialize_contacts_classified(system, cs, 10.0)
        b = initialize_contacts_unclassified(system, cs, 10.0)
        np.testing.assert_allclose(a.pn, b.pn)
        np.testing.assert_allclose(a.ratio, b.ratio)

    def test_input_not_mutated(self):
        system, cs = make_fixture()
        before = cs.pn.copy()
        initialize_contacts_classified(system, cs, 10.0)
        np.testing.assert_array_equal(cs.pn, before)

    def test_classified_no_divergence(self):
        system, cs = make_fixture()
        dev = VirtualDevice(K40)
        initialize_contacts_classified(system, cs, 10.0, dev)
        assert dev.total_counters.divergent_branch_regions == 0.0

    def test_unclassified_on_shuffled_data_diverges(self):
        system, cs = make_fixture(n_contacts=32 * 20)
        dev = VirtualDevice(K40)
        initialize_contacts_unclassified(system, cs, 10.0, dev, shuffle_seed=1)
        c = dev.total_counters
        assert c.divergent_branch_regions > 0
        assert c.wasted_lane_flops > 0

    def test_classification_saves_modelled_time(self):
        # the paper's case analysis: classified init is faster and less
        # divergent than the shuffled-unclassified baseline
        system, cs = make_fixture(n_contacts=32 * 64)
        d_cls, d_uncls = VirtualDevice(K40), VirtualDevice(K40)
        initialize_contacts_classified(system, cs, 10.0, d_cls)
        initialize_contacts_unclassified(system, cs, 10.0, d_uncls, shuffle_seed=2)
        assert d_cls.total_counters.divergence_rate < d_uncls.total_counters.divergence_rate

    def test_ratio_refreshed(self):
        system, cs = make_fixture(n_contacts=8)
        cs.ratio[:] = -1.0  # stale
        out = initialize_contacts_classified(system, cs, 10.0)
        assert ((out.ratio >= 0.0) & (out.ratio <= 1.0)).all()
