"""Soak campaign smoke: faults + scheduler kills end in a clean audit."""

import pytest

from repro.service.soak import SCENARIOS, build_job_mix, run_soak
from repro.service.spec import JobState


class TestJobMix:
    def test_mix_is_seeded(self):
        assert build_job_mix(40, seed=3) == build_job_mix(40, seed=3)
        assert build_job_mix(40, seed=3) != build_job_mix(40, seed=4)

    def test_mix_contains_every_flavour(self):
        mix = build_job_mix(60, seed=0)
        tags = [s.tag for s, _p, _r in mix]
        assert any(t.startswith("soak-kill-") for t in tags)
        assert any(t.startswith("soak-poison-") for t in tags)
        specs = [s for s, _p, _r in mix]
        hashes = [s.spec_hash() for s in specs]
        assert len(set(hashes)) < len(hashes)  # duplicates for cache hits
        killers = [s for s in specs if s.tag.startswith("soak-kill-")]
        assert all(s.kill_once for s in killers)
        poison = [s for s in specs if s.tag.startswith("soak-poison-")]
        assert all(not s.kill_once for s in poison)


@pytest.mark.slow
class TestSoakCampaign:
    @pytest.mark.parametrize("scenario", ["clean", "storage", "api"])
    def test_small_campaign_drains_with_clean_audit(self, tmp_path, scenario):
        sc = SCENARIOS[scenario]
        summary = run_soak(tmp_path / "soak", scenario, jobs=10, seed=0)
        assert summary["scenario"] == scenario
        assert summary["drained"], summary["counts"]
        audit = summary["audit"]
        assert audit["ok"], audit["violations"]
        # every distinct job reached a terminal state (an API submit of a
        # duplicate spec dedup-hits the first job)
        counts = summary["counts"]
        terminal = sum(counts[s] for s in JobState.TERMINAL)
        assert terminal == summary["distinct_jobs"]
        assert counts[JobState.SUCCEEDED] >= 1
        # each kill the scenario asks for happened, on a scheduler holding
        # work in flight: its lease expired and a survivor recovered the
        # ticket
        assert summary["scheduler_kills"] == sc.scheduler_kills
        expired = audit["event_counts"].get("lease_expired", 0)
        assert expired >= summary["scheduler_kills"]
        # the journal recorded every job's completion, unless the kill
        # landed between its record save and its journal append — the
        # window the audit reports as a warning (test_journal_audit.py
        # pins it)
        unjournalled = [
            w for w in audit["warnings"] if w["kind"] == "unjournalled_completion"
        ]
        assert len(unjournalled) <= summary["scheduler_kills"]
        assert audit["event_counts"]["completed"] + len(unjournalled) == audit["jobs"]
        # every mid-campaign SIGTERM drain and a served campaign's final
        # shutdown were graceful (exit 0), and the retrying client never
        # gave up
        drains = summary["drains"]
        served = sc.transport == "http"
        assert len(drains) == sc.server_drains + served
        assert all(d["exit_code"] == 0 for d in drains)
        assert summary["client_stats"].get("giveups", 0) == 0
