"""Checkpoint-resume edge cases on the worker side.

The happy path (retry resumes from the newest checkpoint) is covered by
the batch integration tests; here we pin the edge cases: every
checkpoint corrupt (fresh start, not a crash), checkpoints at or past
the goal (skipped), and the newest-across-attempts selection.
"""

from pathlib import Path

from repro.engine.resilience import newest_checkpoint
from repro.service.spec import JobSpec
from repro.service.worker import find_resume_point, run_job


def spec(steps: int) -> JobSpec:
    return JobSpec(
        model="wall", engine="serial", steps=steps, dynamic=True,
        checkpoint_every=1, tag="resume-edges",
    )


def seed_attempt0(scratch: Path, steps: int = 2) -> dict:
    """Run a short attempt 0 so the scratch dir has real checkpoints."""
    outcome = run_job(spec(steps), scratch, 0, epoch=1)
    assert outcome["status"] == "succeeded"
    return outcome


def all_npz(scratch: Path) -> list[Path]:
    return sorted((scratch / "checkpoints").rglob("*.npz"))


class TestFindResumePoint:
    def test_empty_scratch(self, tmp_path):
        assert find_resume_point(tmp_path, 4) is None

    def test_picks_newest_global_step_across_attempts(self, tmp_path):
        seed_attempt0(tmp_path, steps=2)
        # attempt 1 (longer spec) resumes at 2 and checkpoints further
        outcome = run_job(spec(3), tmp_path, 1, epoch=2)
        assert outcome["resumed_from"] == 2
        assert find_resume_point(tmp_path, 4).step == 3  # from attempt 1


class TestCorruptCheckpoints:
    def test_newest_valid_checkpoint_skips_corrupt_files(self, tmp_path):
        seed_attempt0(tmp_path, steps=2)
        (attempt_dir,) = (tmp_path / "checkpoints").iterdir()
        newest = max(
            attempt_dir.glob("*.npz"),
            key=lambda p: int(p.stem.split("_")[1]),
        )
        newest.write_bytes(b"not a checkpoint at all")
        cp = newest_checkpoint(attempt_dir, before=3)
        assert cp is not None
        assert cp.step == 1  # fell back past the corrupt step-2 file

    def test_all_corrupt_means_fresh_start_not_a_crash(self, tmp_path):
        """A retry facing only corrupt checkpoints restarts from step 0
        and still succeeds — corruption degrades, it never wedges."""
        seed_attempt0(tmp_path, steps=2)
        for path in all_npz(tmp_path):
            path.write_bytes(b"garbage" * 16)
        assert find_resume_point(tmp_path, 4) is None
        outcome = run_job(spec(4), tmp_path, 1, epoch=2)
        assert outcome["status"] == "succeeded"
        assert outcome["resumed_from"] == 0
        assert outcome["steps_executed"] == 4

    def test_resume_ignores_checkpoints_at_or_past_the_goal(self, tmp_path):
        """A checkpoint already covering spec.steps is not resumed from —
        the attempt restores the newest one short of the goal instead of
        a final state."""
        seed_attempt0(tmp_path, steps=4)
        outcome = run_job(spec(2), tmp_path, 1, epoch=2)
        assert outcome["status"] == "succeeded"
        assert outcome["resumed_from"] == 1
        assert outcome["total_steps"] == 2


class TestEpochStamping:
    def test_checkpoint_dirs_carry_the_fencing_epoch(self, tmp_path):
        run_job(spec(2), tmp_path, 0, epoch=3)
        names = [p.name for p in (tmp_path / "checkpoints").iterdir()]
        assert names == ["attempt-e0003-000"]

    def test_final_state_stem_carries_the_epoch(self, tmp_path):
        outcome = run_job(spec(2), tmp_path, 0, epoch=7)
        assert outcome["state_stem"].endswith("final-e0007-attempt-000")

    def test_trace_path_carries_the_epoch(self, tmp_path):
        # a zombie of epoch 4 cannot overwrite epoch 5's trace of the
        # same attempt index
        zombie = run_job(spec(2), tmp_path, 1, epoch=4, trace=True)
        owner = run_job(spec(2), tmp_path, 1, epoch=5, trace=True)
        assert Path(owner["trace_path"]).name == "trace-e0005-attempt-001.json"
        assert zombie["trace_path"] != owner["trace_path"]
        assert Path(zombie["trace_path"]).is_file()
