"""Soak campaign smoke: faults + scheduler kills end in a clean audit."""

import pytest

from repro.service.soak import build_job_mix, run_soak
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
    def test_small_campaign_drains_with_clean_audit(self, tmp_path):
        summary = run_soak(
            tmp_path / "soak",
            jobs=10, seed=0, workers=2, steps=2,
            fault_rate=0.02, scheduler_kills=1, lease_ttl=1.5,
        )
        assert summary["drained"], summary["counts"]
        audit = summary["audit"]
        assert audit["ok"], audit["violations"]
        counts = summary["counts"]
        terminal = sum(counts[s] for s in JobState.TERMINAL)
        assert terminal == 10
        assert counts[JobState.SUCCEEDED] >= 1
        # the kill actually happened and the journal recorded real events:
        # every job's completion, unless the kill landed between its
        # record save and its journal append — the window the audit
        # reports as a warning (test_journal_audit.py pins it)
        assert summary["scheduler_kills"] == 1
        unjournalled = [
            w for w in audit["warnings"] if w["kind"] == "unjournalled_completion"
        ]
        assert len(unjournalled) <= summary["scheduler_kills"]
        assert audit["event_counts"]["completed"] + len(unjournalled) == audit["jobs"]


@pytest.mark.slow
class TestApiSoakCampaign:
    def test_small_api_campaign_survives_both_fault_planes(self, tmp_path):
        from repro.service.soak import run_api_soak

        summary = run_api_soak(
            tmp_path / "apisoak",
            jobs=8, seed=0, schedulers=2, workers=1, steps=1,
            fault_rate=0.02, net_fault_rate=0.05,
            scheduler_kills=1, sigterm_drains=1,
            lease_ttl=1.5, max_wait_s=300.0,
        )
        assert summary["mode"] == "api"
        assert summary["drained"], summary["counts"]
        audit = summary["audit"]
        assert audit["ok"], audit["violations"]
        # every distinct spec reached a terminal state through the API
        counts = summary["counts"]
        terminal = sum(counts[s] for s in JobState.TERMINAL)
        assert terminal == summary["distinct_jobs"]
        # the mid-campaign SIGTERM drain and the final shutdown were
        # both graceful (exit 0), and the replacement server finished
        # the campaign
        drains = summary["drains"]
        assert len(drains) == 2
        assert all(d["exit_code"] == 0 for d in drains)
        # the retrying client never gave up on a request
        assert summary["client_stats"]["giveups"] == 0
