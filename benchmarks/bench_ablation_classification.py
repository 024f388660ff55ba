"""Ablation A1 — the data-classification framework (paper Section III.A).

In-text claim: "the data classification saves 20.576 us and reduces
11.18% branch divergence in the process of contact initialization, which
is tested by Nsight."

This bench runs the contact-initialisation stage both ways on the same
contact population — classified (one uniform kernel per kind, on the
kind-grouped successive arrays) vs unclassified (one divergent kernel on
an unsorted array) — and reports the modelled time saved and the
divergence-rate reduction.
"""

import numpy as np
import pytest

from benchmarks.common import RESULTS_DIR
from repro.contact.initialization import (
    initialize_contacts_classified,
    initialize_contacts_unclassified,
)
from repro.gpu.device import K40
from repro.gpu.kernel import VirtualDevice
from repro.io.reporting import ComparisonReport


@pytest.fixture(scope="module")
def contact_population():
    """A Case-1-scale contact table (~50k contacts, realistic kind mix).

    The kind distribution (60% VE / 25% VV1 / 15% VV2) matches what the
    slope model's narrow phase produces; the population size matches the
    paper's Case 1 (tens of thousands of contact rows), where the
    divergence cost dominates the extra kernel launches.
    """
    from repro.contact.contact_set import ContactSet
    from repro.core.blocks import Block, BlockSystem

    sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    system = BlockSystem([Block(sq), Block(sq + 2.0)])
    rng = np.random.default_rng(9)
    m = 50_000
    kinds = np.sort(rng.choice([0, 1, 2], size=m, p=[0.6, 0.25, 0.15]))
    e1 = rng.integers(4, 8, size=m)
    e2 = 4 + (e1 - 4 + 1) % 4
    contacts = ContactSet(
        block_i=np.zeros(m, dtype=np.int64),
        block_j=np.ones(m, dtype=np.int64),
        vertex_idx=rng.integers(0, 4, size=m),
        e1_idx=e1,
        e2_idx=e2,
        kind=kinds,
    )
    return system, contacts, 50.0


@pytest.fixture(scope="module")
def ablation(contact_population):
    system, contacts, penalty = contact_population
    d_cls, d_uncls = VirtualDevice(K40), VirtualDevice(K40)
    a = initialize_contacts_classified(system, contacts, penalty, d_cls)
    b = initialize_contacts_unclassified(
        system, contacts, penalty, d_uncls, shuffle_seed=1
    )
    np.testing.assert_allclose(a.pn, b.pn)
    np.testing.assert_allclose(a.ratio, b.ratio)
    out = dict(
        m=contacts.m,
        t_cls=d_cls.total_time,
        t_uncls=d_uncls.total_time,
        div_cls=d_cls.total_counters.divergence_rate,
        div_uncls=d_uncls.total_counters.divergence_rate,
    )
    _write_report(out)
    return out


def _write_report(r) -> None:
    report = ComparisonReport(
        "Ablation A1", "data classification in contact initialisation"
    )
    report.add("time saved (us)", 20.576,
               round((r["t_uncls"] - r["t_cls"]) * 1e6, 3))
    report.add(
        "branch divergence reduction (pp)", 11.18,
        round(100 * (r["div_uncls"] - r["div_cls"]), 2),
    )
    report.add("divergence rate, unclassified (%)", "",
               round(100 * r["div_uncls"], 2))
    report.add("divergence rate, classified (%)", "",
               round(100 * r["div_cls"], 2))
    report.add("contacts", "", r["m"])
    report.note("synthetic Case-1-scale population: 50k contacts, 60/25/15 kind mix")
    report.write(RESULTS_DIR)
    print()
    print(report.render())


def test_classification_saves_time(ablation):
    assert ablation["t_cls"] < ablation["t_uncls"]


def test_classification_removes_divergence(ablation):
    # the classified kernels are divergence-free by construction; the
    # unclassified kernel diverges on mixed kinds (paper: -11.18 pp)
    assert ablation["div_cls"] == 0.0
    assert ablation["div_uncls"] > 0.05


def test_classification_benchmark(benchmark, contact_population):
    system, contacts, penalty = contact_population

    def run_classified():
        return initialize_contacts_classified(system, contacts, penalty)

    out = benchmark(run_classified)
    assert out.m == contacts.m
