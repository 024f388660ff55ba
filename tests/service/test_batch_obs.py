"""Batch-service observability: per-job metrics, traces, cache counters."""

import json

from repro.service import BatchClient, JobSpec


def spec(tag: str = "obs", **over) -> JobSpec:
    defaults = dict(
        model="wall", engine="serial", steps=3, time_step=1e-3,
        dynamic=True, tag=tag,
    )
    defaults.update(over)
    return JobSpec(**defaults)


class TestJobMetricsInOutcome:
    def test_outcome_carries_metrics_snapshot(self, tmp_path):
        client = BatchClient(tmp_path / "b")
        record = client.submit(spec())
        assert client.run(n_workers=1)["succeeded"] == 1
        outcome = client.result(record)
        snap = outcome["metrics"]
        counters = snap["counters"]
        assert counters["engine.steps"] == 3
        for key in ("contacts.VE", "contact_transfer.hits",
                    "solver.rung_escalations", "contracts.violations",
                    "engine.rollbacks"):
            assert key in counters, key
        assert "cg.iterations" in snap["histograms"]
        json.dumps(snap)  # cache-entry safe

    def test_client_aggregates_job_metrics(self, tmp_path):
        client = BatchClient(tmp_path / "b")
        client.submit(spec("a"))
        client.submit(spec("b"))
        client.run(n_workers=2)
        merged = client.last_job_metrics
        assert merged["counters"]["engine.steps"] == 6
        assert merged["histograms"]["cg.iterations"]["count"] > 0


class TestSchedulerMetrics:
    def test_cache_hit_and_miss_counters(self, tmp_path):
        client = BatchClient(tmp_path / "b")
        client.submit(spec())
        client.run(n_workers=1)
        assert client.last_run_metrics["counters"]["batch.cache_misses"] == 1
        assert client.last_run_metrics["counters"]["batch.cache_hits"] == 0
        # identical spec: second run resolves from the cache
        resubmit = BatchClient(client.root)
        resubmit.submit(spec())
        tallies = resubmit.run(n_workers=1)
        assert tallies["cache_hits"] == 1
        counters = resubmit.last_run_metrics["counters"]
        assert counters["batch.cache_hits"] == 1
        assert counters["batch.cache_misses"] == 0

    def test_dispatch_outcome_counters(self, tmp_path):
        client = BatchClient(tmp_path / "b")
        client.submit(spec())
        client.run(n_workers=1)
        counters = client.last_run_metrics["counters"]
        assert counters["batch.dispatched"] == 1
        assert counters["batch.succeeded"] == 1

    def test_late_imports_reach_attempt_log_and_report(self, tmp_path):
        from repro.obs.report import build_service_report, render_service_report

        client = BatchClient(tmp_path / "b")
        record = client.submit(spec())
        client.run(n_workers=1)
        (attempt,) = client.queue.load_record(record.job_id).attempt_log
        assert attempt["late_imports"] == 0
        # a property of the attempt's process, not of the computation
        assert "late_imports" not in client.store.lookup(spec().spec_hash())
        counters = client.last_run_metrics["counters"]
        assert counters["batch.worker_late_imports"] == 0
        report = render_service_report(build_service_report(client.root))
        assert "batch.worker_late_imports" in report

    def test_cache_hit_still_reports_job_metrics(self, tmp_path):
        client = BatchClient(tmp_path / "b")
        client.submit(spec())
        client.run(n_workers=1)
        resubmit = BatchClient(client.root)
        resubmit.submit(spec())
        resubmit.run(n_workers=1)
        # the cached entry's metrics roll into the aggregate
        assert resubmit.last_job_metrics["counters"]["engine.steps"] == 3


class TestJobTraces:
    def test_trace_written_per_successful_attempt(self, tmp_path):
        from repro.obs.tracer import Tracer

        client = BatchClient(tmp_path / "b")
        record = client.submit(spec())
        client.run(n_workers=1, trace=True)
        outcome = client.result(record)
        trace_path = outcome["trace_path"]
        loaded = Tracer.load(trace_path)
        assert loaded.spans
        assert {s.name for s in loaded.spans} >= {"contact_detection",
                                                  "equation_solving"}

    def test_trace_flag_does_not_change_spec_hash(self, tmp_path):
        client = BatchClient(tmp_path / "b")
        client.submit(spec())
        client.run(n_workers=1, trace=True)  # seeds the cache, traced
        resubmit = BatchClient(client.root)
        resubmit.submit(spec())
        tallies = resubmit.run(n_workers=1, trace=False)
        assert tallies["cache_hits"] == 1

    def test_no_trace_by_default(self, tmp_path):
        client = BatchClient(tmp_path / "b")
        record = client.submit(spec())
        client.run(n_workers=1)
        assert "trace_path" not in client.result(record)
