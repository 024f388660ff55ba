"""Worker-process side of the batch service.

:func:`worker_entry` is the ``multiprocessing`` target one job runs in.
It is deliberately paranoid about the boundary back to the scheduler:
the *only* channel is an outcome JSON file written atomically as the
last act before a clean exit. Whatever happens inside — a typed
:class:`SimulationError`, an unexpected exception, an ``os._exit`` from
the kill-switch chaos knob, a real segfault — the scheduler learns
about it either from a ``failed`` outcome file or from the process
dying without one (treated as a crash). Nothing a job does can
propagate into the scheduler or its sibling workers.

While an attempt runs, a daemon :class:`Heartbeat` thread renews the
job's lease every ``ttl / 4`` seconds. A renewal that comes back
``False`` means the worker's fencing epoch was superseded — its
scheduler died, the lease expired, and another scheduler re-claimed the
job — so the worker **fences itself**: it journals the fact and
``os._exit`` s without writing an outcome, guaranteeing a zombie can
never race the new owner's execution. Attempt checkpoint directories,
final-state stems, trace files and outcome filenames are all
epoch-stamped for the same reason: even a zombie that dies *between*
heartbeats cannot write into the new epoch's files.

Retry granularity comes from checkpoints: every attempt persists
checkpoints into its own ``attempt-<...>`` directory. A checkpoint
carries the engine's count of accepted steps, so a resumed engine
numbers its steps on from there and every attempt's files share one
step axis; the next attempt continues from the newest valid checkpoint
short of the spec's step count across all previous attempts.
"""

from __future__ import annotations

import os
import sys
import threading
import traceback
from pathlib import Path

# numpy submodules a job loads on first use: preloaded, so that a
# forked worker inherits them (``late_imports`` below)
import numpy.ma  # noqa: F401 - np.median, in EngineBase.__init__
import numpy.random  # noqa: F401 - the models' seeded generators

from repro.engine.resilience import SimulationError, newest_checkpoint
from repro.engine.runner import execute_spec
from repro.io.batch_io import write_json_atomic
from repro.io.model_io import save_system
from repro.obs.tracer import Tracer
from repro.service.chaos import IOFaultInjector
from repro.service.journal import Journal
from repro.service.lease import LeaseStore
from repro.service.spec import JobSpec

#: Exit code of the kill-switch (mirrors SIGKILL's 128+9 convention).
KILL_EXIT_CODE = 137
#: Exit code of a worker that fenced itself after a lost lease.
FENCED_EXIT_CODE = 143


class KillSwitch:
    """Stage-output hook that hard-kills the worker at a step.

    Stands in for the failures no in-process handler survives (segfault
    in a native kernel, OOM kill): ``os._exit`` skips ``finally``
    blocks, ``atexit`` hooks, and the outcome write, exactly like a
    real crash. It rides the engines' ``fault_injector`` seam and
    passes every payload through untouched.
    """

    def __init__(self, kill_at_step: int) -> None:
        self.kill_at_step = kill_at_step

    def perturb(self, stage: str, payload, *, step: int, engine=None):
        if step >= self.kill_at_step:
            os._exit(KILL_EXIT_CODE)
        return payload


class Heartbeat:
    """Daemon thread renewing the job's lease; self-fences when lost.

    ``lease_info`` carries everything the child process needs to renew:
    the lease directory, ttl, job id, fencing epoch, owner string, and
    the journal directory. Transient IO errors during a renewal (the
    storage chaos layer is allowed to fault lease files) are retried on
    the next beat; only an *authoritative* "no longer yours" answer
    triggers the fence.
    """

    def __init__(self, lease_info: dict) -> None:
        self.store = LeaseStore(lease_info["root"], ttl=lease_info["ttl"])
        self.job_id = lease_info["job_id"]
        self.epoch = int(lease_info["epoch"])
        self.owner = lease_info["owner"]
        self.journal_root = lease_info.get("journal")
        self.interval = max(0.05, self.store.ttl / 4.0)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="lease-heartbeat", daemon=True
        )

    def start(self) -> "Heartbeat":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                ok = self.store.renew(self.job_id, self.epoch, self.owner)
            except OSError:
                continue  # injected/transient IO fault: retry next beat
            if not ok:
                self._fence()
                return
            self._journal("heartbeat")

    def _fence(self) -> None:
        """The lease is someone else's now: stop producing side effects."""
        self._journal("fenced", by="worker", pid=os.getpid())
        os._exit(FENCED_EXIT_CODE)

    def _journal(self, event: str, **fields) -> None:
        if self.journal_root is None:
            return
        try:
            Journal(self.journal_root).append(
                event, self.job_id, epoch=self.epoch, **fields
            )
        except OSError:
            pass  # journaling is evidence, never a reason to crash


def attempt_checkpoint_dir(scratch: Path, attempt: int, epoch: int) -> Path:
    """Checkpoint directory for one attempt (epoch-stamped)."""
    return Path(scratch) / "checkpoints" / f"attempt-e{epoch:04d}-{attempt:03d}"


def find_resume_point(scratch: str | Path, steps: int):
    """Newest valid checkpoint short of step ``steps`` across all
    attempts of a job, or ``None``."""
    return newest_checkpoint(Path(scratch) / "checkpoints", before=steps)


def run_job(
    spec: JobSpec,
    scratch: str | Path,
    attempt: int,
    *,
    epoch: int,
    trace: bool = False,
) -> dict:
    """Execute one attempt of a job; returns the outcome dict.

    The outcome's ``status`` is ``succeeded`` or ``failed`` (engine
    failures are caught and reported — only a process death leaves no
    outcome at all). With ``trace=True`` a successful attempt also
    writes a Chrome-format span trace into the scratch directory and
    records its path under ``trace_path``. Tracing is a pool-level
    option, not part of the spec, so it never perturbs the content hash
    the result cache keys on.
    """
    scratch = Path(scratch)
    tracer = Tracer(enabled=trace)
    resume_cp = None
    resilience: dict[str, str] = {}
    if spec.checkpoint_every > 0:
        if attempt > 0:
            resume_cp = find_resume_point(scratch, spec.steps)
        cp_dir = attempt_checkpoint_dir(scratch, attempt, epoch)
        resilience["checkpoint_dir"] = str(cp_dir)
    injector = None
    if spec.kill_at_step is not None and not (spec.kill_once and attempt > 0):
        injector = KillSwitch(spec.kill_at_step)
    failed = {
        "status": "failed", "attempt": attempt,
        "resumed_from": 0 if resume_cp is None else resume_cp.step,
    }
    try:
        result, engine, summary = execute_spec(
            spec,
            resilience=resilience,
            resume_checkpoint=resume_cp,
            fault_injector=injector,
            tracer=tracer,
        )
    except SimulationError as err:
        report = getattr(err, "report", None)
        return {
            **failed,
            "error": type(err).__name__,
            "message": str(err),
            "rollbacks": report.rollbacks if report is not None else 0,
        }
    except Exception as err:  # noqa: BLE001 - the boundary must not leak
        return {
            **failed,
            "error": type(err).__name__,
            "message": "".join(
                traceback.format_exception_only(type(err), err)
            ).strip(),
        }
    state_stem = scratch / f"final-e{epoch:04d}-attempt-{attempt:03d}"
    save_system(engine.system, state_stem)
    summary["status"] = "succeeded"
    summary["attempt"] = attempt
    summary["state_stem"] = str(state_stem)
    if trace:
        trace_path = scratch / f"trace-e{epoch:04d}-attempt-{attempt:03d}.json"
        tracer.write(trace_path)
        summary["trace_path"] = str(trace_path)
    return summary


def worker_entry(
    spec_dict: dict, scratch: str, attempt: int, outcome_path: str,
    trace: bool, lease_info: dict,
) -> None:
    """``multiprocessing`` target: run one attempt, write the outcome.

    The outcome lands atomically; a crash at any earlier point leaves
    no file, which is the scheduler's crash signal. The storage chaos
    layer is re-armed explicitly: a forked child inherits the parent's
    injector and a spawned one starts unarmed, and every worker must run
    its own seeded stream, fork or spawn alike.

    ``late_imports`` in the outcome counts the modules this process
    loaded between here and the outcome write: 0 for a forked worker,
    which inherits this module's closure from the scheduler, unless the
    spec selects a ``rubble`` model, whose import
    :mod:`repro.engine.runner` defers. (A ``DomainEngine`` loads its
    partitioner when constructed; no job spec names that engine.)
    """
    n_modules = len(sys.modules)
    IOFaultInjector.install_from_env()
    epoch = int(lease_info["epoch"])
    heartbeat = Heartbeat(lease_info).start()
    # the record's spec, checked when it was submitted
    spec = JobSpec.from_dict(spec_dict, check=False)
    outcome = run_job(spec, scratch, attempt, epoch=epoch, trace=trace)
    heartbeat.stop()
    outcome["pid"] = os.getpid()
    outcome["epoch"] = epoch
    outcome["late_imports"] = len(sys.modules) - n_modules
    write_json_atomic(outcome_path, outcome)
