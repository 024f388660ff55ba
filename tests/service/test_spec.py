"""JobSpec/JobRecord: hashing stability, round-trips, validation."""

import dataclasses
import os
import subprocess
import sys

import pytest

from repro.service.netclient import ClientRetry
from repro.service.spec import JobRecord, JobSpec, JobState, RetryPolicy

NAN, INF = float("nan"), float("inf")

BASE = JobSpec(
    model="slope", engine="serial", steps=10, time_step=2e-3,
    dynamic=True, preconditioner="ssor", size=5.0, seed=3,
    contracts="full", checkpoint_every=2, tag="base",
)

#: One changed value per JobSpec field — the hash must react to all.
VARIATIONS = {
    "model": "rocks",
    "load": "results/some_model",
    "engine": "gpu",
    "profile": "k20",
    "steps": 11,
    "time_step": 1e-3,
    "dynamic": False,
    "preconditioner": "bj",
    "size": 6.0,
    "seed": 4,
    "contracts": "off",
    "checkpoint_every": 3,
    "max_rollbacks": 5,
    "kill_at_step": 4,
    "kill_once": True,
    "tag": "other",
}


class TestHashing:
    def test_hash_is_deterministic(self):
        assert BASE.spec_hash() == BASE.spec_hash()
        rebuilt = JobSpec.from_dict(BASE.to_dict())
        assert rebuilt.spec_hash() == BASE.spec_hash()

    def test_every_field_covered_by_variations(self):
        assert set(VARIATIONS) == {f.name for f in dataclasses.fields(JobSpec)}

    def test_any_field_change_changes_the_hash(self):
        base_hash = BASE.spec_hash()
        hashes = {base_hash}
        for field, value in VARIATIONS.items():
            changed = dataclasses.replace(BASE, **{field: value})
            h = changed.spec_hash()
            assert h != base_hash, f"changing {field!r} did not change the hash"
            hashes.add(h)
        # and the changed specs are pairwise distinct too
        assert len(hashes) == len(VARIATIONS) + 1

    def test_hash_stable_across_processes(self):
        """A fresh interpreter computes the identical hash."""
        code = (
            "import json,sys;"
            "from repro.service.spec import JobSpec;"
            "print(JobSpec.from_dict(json.loads(sys.argv[1])).spec_hash())"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        import json

        out = subprocess.run(
            [sys.executable, "-c", code, json.dumps(BASE.to_dict())],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == BASE.spec_hash()


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"model": "nonsense"},
            {"engine": "tpu"},
            {"engine": "domain"},  # a CLI preset, not a service engine
            {"profile": "h100"},
            {"steps": 0},
            {"time_step": 0.0},
            {"contracts": "sometimes"},
            {"checkpoint_every": -1},
            {"kill_at_step": -2},
            {"contracts": "cheap"},  # retired: a part of "full" now
            {"time_step": NAN},
            {"size": NAN},
            {"steps": NAN},
            {"kill_at_step": NAN},
            {"checkpoint_every": NAN},
            {"max_rollbacks": NAN},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            dataclasses.replace(BASE, **kwargs)

    @pytest.mark.parametrize("value", [NAN, INF])
    @pytest.mark.parametrize(
        "field", ["backoff_s", "backoff_factor", "backoff_max_s", "jitter"]
    )
    @pytest.mark.parametrize("policy", [RetryPolicy, ClientRetry])
    def test_non_finite_backoff_rejected(self, policy, field, value):
        with pytest.raises(ValueError, match="finite"):
            policy(**{field: value})

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_non_finite_attempt_deadline_rejected(self, value):
        with pytest.raises(ValueError, match="attempt_deadline_s"):
            RetryPolicy.from_dict({"attempt_deadline_s": value})
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=NAN)

    def test_unknown_field_rejected(self):
        d = BASE.to_dict()
        d["gpu_count"] = 8
        with pytest.raises(ValueError, match="gpu_count"):
            JobSpec.from_dict(d)


class TestJobRecord:
    def test_round_trip(self):
        record = JobRecord(
            job_id="j000001-abcd1234", spec=BASE, priority=5,
            retry=RetryPolicy(max_attempts=3), attempts=1,
            state=JobState.RUNNING,
            attempt_log=[{"attempt": 0, "crash": True}],
        )
        rebuilt = JobRecord.from_dict(record.to_dict())
        assert rebuilt == record

    def test_terminal_states(self):
        assert JobState.SUCCEEDED in JobState.TERMINAL
        assert JobState.RUNNING not in JobState.TERMINAL
        assert set(JobState.TERMINAL) <= set(JobState.ALL)
