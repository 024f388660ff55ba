"""Engine integration: spans and metrics from real pipeline runs."""

import dataclasses
from functools import partial

import numpy as np
import pytest
from planting import PLANTED, Planter

from repro.core.blocks import Block, BlockSystem
from repro.core.materials import BlockMaterial
from repro.core.state import ResilienceControls, SimulationControls
from repro.engine.domain_engine import DomainEngine
from repro.engine.gpu_engine import GpuEngine
from repro.engine.hybrid_engine import HybridEngine
from repro.engine.serial_engine import SerialEngine
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.util.timing import PIPELINE_MODULES

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
MAT = BlockMaterial(young=1e9)


def stacked() -> BlockSystem:
    base = np.array([[0, 0], [3, 0], [3, 1], [0, 1.0]])
    s = BlockSystem([Block(base, MAT), Block(SQ + np.array([1.0, 1.0]), MAT)])
    s.fix_block(0)
    return s


def controls(**over) -> SimulationControls:
    defaults = dict(time_step=1e-3, dynamic=True, max_displacement_ratio=0.05)
    defaults.update(over)
    return SimulationControls(**defaults)


@pytest.mark.parametrize(
    "engine_cls", [SerialEngine, GpuEngine, HybridEngine, DomainEngine]
)
class TestTracedRun:
    def test_spans_cover_all_six_modules(self, engine_cls):
        tr = Tracer()
        eng = engine_cls(stacked(), controls(), tracer=tr)
        eng.run(steps=3)
        names = {s.name for s in tr.spans}
        assert set(PIPELINE_MODULES) <= names
        assert "step" in names

    def test_step_spans_carry_diagnostics(self, engine_cls):
        tr = Tracer()
        eng = engine_cls(stacked(), controls(), tracer=tr)
        result = eng.run(steps=3)
        steps = tr.step_spans()
        assert len(steps) == result.n_steps
        for span, rec in zip(steps, result.steps):
            assert span.extras["cg_iterations"] == rec.cg_iterations
            assert span.extras["n_contacts"] == rec.n_contacts
            assert span.extras["dt"] == pytest.approx(rec.dt)
            # the span carries the whole record
            assert {"step": span.step, **span.extras} == dataclasses.asdict(rec)

    def test_span_wall_consistent_with_module_times(self, engine_cls):
        tr = Tracer()
        eng = engine_cls(stacked(), controls(), tracer=tr)
        result = eng.run(steps=3)
        summ = tr.module_summary()
        # the spans ARE the ModuleTimes measurements: identical totals
        for module, seconds in result.module_times.times.items():
            assert summ[module]["wall_s"] == pytest.approx(seconds, rel=1e-9)

    def test_span_device_seconds_sum_to_ledger(self, engine_cls):
        tr = Tracer()
        eng = engine_cls(stacked(), controls(), tracer=tr)
        result = eng.run(steps=3)
        traced_dev = sum(
            d["device_s"] for d in tr.module_summary().values()
        )
        assert traced_dev == pytest.approx(
            sum(result.module_times.modelled.values()), rel=1e-12
        )

    def test_span_device_seconds_are_the_stage_records(self, engine_cls):
        tr = Tracer()
        eng = engine_cls(stacked(), controls(), tracer=tr)
        result = eng.run(steps=3)
        by_module = result.module_times.modelled
        assert result.modeled_module_times() == by_module
        summ = tr.module_summary()
        assert set(summ) == set(by_module)
        for module, seconds in by_module.items():
            assert seconds > 0.0
            assert summ[module]["device_s"] == pytest.approx(
                seconds, rel=1e-12
            )

    def test_second_run_reports_only_itself(self, engine_cls):
        tr = Tracer()
        eng = engine_cls(stacked(), controls(), tracer=tr)
        first = eng.run(steps=2)
        n_first = len(tr.spans)
        second = eng.run(steps=2)
        own = dict.fromkeys(PIPELINE_MODULES, 0.0)
        for span in tr.spans[n_first:]:
            if span.name != "step":
                own[span.name] += span.device_s
        modelled = second.modeled_module_times()
        for module, seconds in own.items():
            assert modelled[module] == pytest.approx(seconds, rel=1e-12)
        if engine_cls is not DomainEngine:
            # the one device ledger holds the two runs, nothing else
            assert sum(first.modeled_module_times().values()) + sum(
                modelled.values()
            ) == pytest.approx(eng.device.total_time, rel=1e-12)

    def test_tracer_meta_stamped(self, engine_cls):
        tr = Tracer()
        eng = engine_cls(stacked(), controls(), tracer=tr)
        eng.run(steps=1)
        assert tr.meta["engine"] == engine_cls.__name__
        assert tr.meta["n_blocks"] == 2

    def test_traced_run_trajectory_identical_to_untraced(self, engine_cls):
        s1, s2 = stacked(), stacked()
        engine_cls(s1, controls()).run(steps=4)
        engine_cls(s2, controls(), tracer=Tracer()).run(steps=4)
        np.testing.assert_array_equal(s1.vertices, s2.vertices)
        np.testing.assert_array_equal(s1.velocities, s2.velocities)


@pytest.mark.parametrize("make", [
    SerialEngine, GpuEngine, HybridEngine,
    partial(DomainEngine, n_domains=1), partial(DomainEngine, n_domains=2),
], ids=["serial", "gpu", "hybrid", "domain1", "domain2"])
def test_ledger_is_the_harness_split(make):
    """With one domain, or two that record alike in every stage (the
    stacked pair's), a stage's busiest domain adds up to the busiest
    domain's run total, so the run's ledger is the benchmark harness's
    split; the sum of both domains would not be."""
    from benchmarks.harness.lap import _modelled

    eng = make(stacked(), controls())
    result = eng.run(steps=3)
    total, by_stage = _modelled(eng)
    modelled = result.modeled_module_times()
    assert sum(modelled.values()) == pytest.approx(total, rel=1e-12)
    for module, seconds in modelled.items():
        assert seconds == pytest.approx(by_stage[module], rel=1e-12)


@pytest.mark.parametrize("engine_cls", [SerialEngine, GpuEngine])
class TestMetricsFromRun:
    def test_headline_series_present(self, engine_cls):
        eng = engine_cls(stacked(), controls())
        result = eng.run(steps=3)
        snap = result.metrics.snapshot()
        for key in (
            "contacts.VE", "contacts.VV1", "contacts.VV2",
            "contact_transfer.hits", "contact_transfer.misses",
            "solver.rung_escalations", "engine.rollbacks",
            "contracts.violations", "engine.steps",
        ):
            assert key in snap["counters"], key
        assert "cg.iterations" in snap["histograms"]
        assert snap["counters"]["engine.steps"] == result.n_steps

    def test_cg_histogram_matches_step_records(self, engine_cls):
        eng = engine_cls(stacked(), controls())
        result = eng.run(steps=3)
        hist = result.metrics.snapshot()["histograms"]["cg.iterations"]
        assert hist["sum"] == result.total_cg_iterations
        solves = sum(s.open_close_iterations for s in result.steps)
        assert hist["count"] >= solves

    def test_contact_class_counts_accumulate(self, engine_cls):
        eng = engine_cls(stacked(), controls())
        result = eng.run(steps=3)
        counters = result.metrics.snapshot()["counters"]
        total_contacts = sum(
            counters[f"contacts.{k}"] for k in ("VE", "VV1", "VV2")
        )
        assert total_contacts == sum(s.n_contacts for s in result.steps)

    def test_shared_registry_accumulates_across_runs(self, engine_cls):
        reg = MetricsRegistry()
        engine_cls(stacked(), controls(), metrics=reg).run(steps=2)
        engine_cls(stacked(), controls(), metrics=reg).run(steps=2)
        assert reg.snapshot()["counters"]["engine.steps"] == 4


class TestFaultedRunMetrics:
    def test_rollbacks_and_violations_counted(self):
        eng = GpuEngine(
            stacked(),
            controls(
                contract_level="full",
                resilience=ResilienceControls(
                    checkpoint_every=1, max_rollbacks=10
                ),
            ),
        )
        Planter(eng, PLANTED["finite_diag"], step=1)
        result = eng.run(steps=4)
        assert result.rollbacks >= 1
        counters = result.metrics.snapshot()["counters"]
        assert counters["engine.rollbacks"] == result.rollbacks
        assert counters["contracts.violations"] == sum(
            result.contract_violations.values()
        )
        # per-stage breakdown counters exist for every tripped stage
        for stage, count in result.contract_violations.items():
            assert counters[f"contracts.violations.{stage}"] == count
