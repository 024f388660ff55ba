"""The ``python -m repro batch`` CLI surface, end to end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main


def test_submit_run_status_results_walkthrough(tmp_path, capsys):
    batch_dir = str(tmp_path / "batch")

    rc = main(["batch", "submit", "--dir", batch_dir, "--model", "wall",
               "--engine", "serial", "--steps", "2", "--dynamic",
               "--tag", "one"])
    assert rc == 0
    assert "submitted j" in capsys.readouterr().out

    rc = main(["batch", "submit", "--dir", batch_dir, "--model", "wall",
               "--engine", "serial", "--steps", "2", "--dynamic",
               "--tag", "two", "--priority", "5"])
    assert rc == 0
    capsys.readouterr()

    rc = main(["batch", "run", "--dir", batch_dir, "--workers", "2",
               "--quiet"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "succeeded 2" in out

    rc = main(["batch", "status", "--dir", batch_dir, "--json"])
    assert rc == 0
    status = json.loads(capsys.readouterr().out)
    assert status["counts"]["succeeded"] == 2
    assert len(status["jobs"]) == 2

    rc = main(["batch", "results", "--dir", batch_dir, "--json"])
    assert rc == 0
    results = json.loads(capsys.readouterr().out)
    assert len(results) == 2
    assert all(r["status"] == "succeeded" for r in results.values())

    # an identical resubmission is a cache hit (0 steps executed)
    rc = main(["batch", "submit", "--dir", batch_dir, "--model", "wall",
               "--engine", "serial", "--steps", "2", "--dynamic",
               "--tag", "one"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["batch", "run", "--dir", batch_dir, "--quiet"])
    assert rc == 0
    assert "cache hits 1" in capsys.readouterr().out


def test_run_exit_code_signals_failures(tmp_path, capsys):
    batch_dir = str(tmp_path / "batch")
    rc = main(["batch", "submit", "--dir", batch_dir, "--model", "wall",
               "--engine", "serial", "--steps", "4", "--dynamic",
               "--checkpoint-every", "1", "--kill-at-step", "2",
               "--max-retries", "0"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["batch", "run", "--dir", batch_dir, "--quiet"])
    assert rc == 1
    assert "failed 1" in capsys.readouterr().out


def test_cancel_queued_job(tmp_path, capsys):
    batch_dir = str(tmp_path / "batch")
    main(["batch", "submit", "--dir", batch_dir, "--model", "wall",
          "--engine", "serial", "--steps", "2"])
    out = capsys.readouterr().out
    job_id = out.split()[1]
    assert main(["batch", "cancel", "--dir", batch_dir, job_id]) == 0
    capsys.readouterr()
    rc = main(["batch", "status", "--dir", batch_dir, "--json"])
    assert rc == 0
    status = json.loads(capsys.readouterr().out)
    assert status["counts"]["cancelled"] == 1
    assert main(["batch", "cancel", "--dir", batch_dir, "nope"]) == 1


def test_submit_rejects_a_spec_the_run_would_reject(tmp_path, capsys):
    """A usage error exits 2 and leaves no batch directory behind."""
    batch_dir = tmp_path / "batch"
    for bad, error in (
        (["--steps", "2", "--max-rollbacks", "-1"],
         "bad spec: max_rollbacks must be >= 0"),
        (["--steps", "0"], "bad spec: steps"),
    ):
        rc = main(["batch", "submit", "--dir", str(batch_dir),
                   "--model", "wall", "--engine", "serial", *bad])
        assert rc == 2
        assert error in capsys.readouterr().err
        assert not batch_dir.exists()


@pytest.mark.parametrize("bad, error", [
    (["--max-retries", "-1"], "bad spec: max_attempts must be >= 1"),
    (["--backoff", "nan"], "bad spec: backoff values must be finite"),
])
def test_submit_rejects_a_bad_retry_value_as_a_usage_error(tmp_path, bad, error):
    """A retry value the policy rejects is a usage error, not a traceback."""
    src = Path(__file__).resolve().parents[2] / "src"
    out = subprocess.run(
        [sys.executable, "-m", "repro", "batch", "submit",
         "--dir", str(tmp_path / "batch"), "--model", "wall", *bad],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.returncode == 2
    assert error in out.stderr and "Traceback" not in out.stderr
    assert not (tmp_path / "batch").exists()


def test_directory_holding_a_record_submit_now_rejects(tmp_path, capsys):
    """Before submit checked every field, a spec the run rejects was
    stored (here ``preconditioner="bogus"``): such a directory still
    drains, renders and audits."""
    batch_dir = tmp_path / "batch"
    main(["batch", "submit", "--dir", str(batch_dir), "--model", "wall",
          "--engine", "serial", "--steps", "2"])
    (path,) = (batch_dir / "queue" / "jobs").glob("*.json")
    record = json.loads(path.read_text())
    record["spec"]["preconditioner"] = "bogus"
    path.write_text(json.dumps(record))
    capsys.readouterr()

    assert main(["batch", "run", "--dir", str(batch_dir), "--quiet"]) == 1
    assert "quarantined 1" in capsys.readouterr().out
    assert main(["batch", "status", "--dir", str(batch_dir)]) == 0
    out = capsys.readouterr().out
    assert "quarantined=1" in out
    assert "preconditioner must be one of" in out
    assert main(["batch", "audit", "--dir", str(batch_dir), "--final"]) == 0
    capsys.readouterr()
    assert main(["report", str(batch_dir)]) == 0
    assert capsys.readouterr().out


#: The spec of a job record exactly as ``batch submit --model wall
#: --engine serial --steps 2 --dynamic --tag older`` stored it before the
#: engine fault fields were retired: three keys today's JobSpec lacks.
OLDER_SPEC = {
    "checkpoint_every": 0, "contracts": "off", "dynamic": True,
    "engine": "serial", "fault_names": None, "fault_step": 1,
    "inject_faults": None, "kill_at_step": None, "kill_once": False,
    "load": None, "max_rollbacks": 3, "model": "wall",
    "preconditioner": "bj", "profile": "k40", "seed": 0, "size": 6.0,
    "steps": 2, "tag": "older", "time_step": 0.001,
}


def test_directory_holding_a_record_with_retired_fields(tmp_path, capsys):
    """A record stored with the three retired spec keys loads without
    them, and its directory drains, renders and audits."""
    from repro.service import BatchClient, JobSpec

    batch_dir = tmp_path / "batch"
    main(["batch", "submit", "--dir", str(batch_dir), "--model", "wall",
          "--engine", "serial", "--steps", "2"])
    (path,) = (batch_dir / "queue" / "jobs").glob("*.json")
    record = json.loads(path.read_text())
    record["spec"] = OLDER_SPEC
    path.write_text(json.dumps(record))
    (loaded,) = BatchClient(batch_dir).queue.records()
    assert loaded.spec == JobSpec(
        model="wall", engine="serial", steps=2, dynamic=True, tag="older"
    )
    capsys.readouterr()

    assert main(["batch", "run", "--dir", str(batch_dir), "--quiet"]) == 0
    assert "succeeded 1" in capsys.readouterr().out
    assert main(["batch", "status", "--dir", str(batch_dir)]) == 0
    assert "succeeded" in capsys.readouterr().out
    assert main(["batch", "audit", "--dir", str(batch_dir), "--final"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["report", str(batch_dir)]) == 0
    assert "batch.succeeded" in capsys.readouterr().out


def test_directory_holding_a_record_at_the_retired_cheap_level(
    tmp_path, capsys
):
    """A record stored at the ``cheap`` contract level, which ``full``
    absorbed, runs at ``full``: without the mapping every attempt fails
    to build its controls and the job ends quarantined."""
    from repro.service import BatchClient

    batch_dir = tmp_path / "batch"
    main(["batch", "submit", "--dir", str(batch_dir), "--model", "wall",
          "--engine", "serial", "--steps", "2", "--dynamic",
          "--contracts", "full"])
    (path,) = (batch_dir / "queue" / "jobs").glob("*.json")
    record = json.loads(path.read_text())
    record["spec"]["contracts"] = "cheap"
    path.write_text(json.dumps(record))
    (loaded,) = BatchClient(batch_dir).queue.records()
    assert loaded.spec.contracts == "full"
    capsys.readouterr()

    assert main(["batch", "run", "--dir", str(batch_dir), "--quiet"]) == 0
    assert "succeeded 1" in capsys.readouterr().out
    assert main(["batch", "audit", "--dir", str(batch_dir), "--final"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_directory_holding_a_record_with_non_finite_retry_values(
    tmp_path, capsys
):
    """A submit now refuses a non-finite retry value, but a record stored
    by a version that accepted one stays readable: it loads unchecked,
    its NaN deadline as the pool's default, and the job drains."""
    from repro.service import BatchClient

    batch_dir = tmp_path / "batch"
    main(["batch", "submit", "--dir", str(batch_dir), "--model", "wall",
          "--engine", "serial", "--steps", "2", "--dynamic"])
    (path,) = (batch_dir / "queue" / "jobs").glob("*.json")
    record = json.loads(path.read_text())
    record["retry"]["attempt_deadline_s"] = float("nan")
    record["retry"]["backoff_max_s"] = float("inf")
    path.write_text(json.dumps(record))
    (loaded,) = BatchClient(batch_dir).queue.records()
    assert loaded.retry.attempt_deadline_s is None
    assert loaded.retry.backoff_max_s == float("inf")
    capsys.readouterr()

    assert main(["batch", "run", "--dir", str(batch_dir), "--quiet"]) == 0
    assert "succeeded 1" in capsys.readouterr().out
    assert main(["batch", "audit", "--dir", str(batch_dir), "--final"]) == 0
    assert "PASS" in capsys.readouterr().out
