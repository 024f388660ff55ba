"""Declarative job descriptions and the job lifecycle state machine.

A :class:`JobSpec` is a pure *workload* description — everything that
determines the simulation's output, nothing about how it is scheduled.
That split is what makes the content hash a valid cache key: two
submissions with different priorities but equal specs are the same
computation. Scheduling knobs (priority, the :class:`RetryPolicy`)
live on the :class:`JobRecord` the queue tracks through the lifecycle

    queued -> running -> succeeded | failed | cancelled | quarantined

with ``attempts`` counting executions. ``quarantined`` is the
poison-job terminal state: the retry budget exhausted with every
attempt failing identically, so retrying further would only burn
workers on a reproducible fault.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.state import CONTRACT_LEVELS, PRECONDITIONERS
from repro.engine.runner import ENGINES, MODELS, PROFILES, controls_from_spec
from repro.util.hashing import content_hash
from repro.util.rng import derive_seed


class JobState:
    """Lifecycle states of a batch job (string constants)."""

    QUEUED = "queued"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"
    QUARANTINED = "quarantined"

    ALL = (QUEUED, RUNNING, SUCCEEDED, FAILED, CANCELLED, QUARANTINED)
    #: States a job can never leave.
    TERMINAL = (SUCCEEDED, FAILED, CANCELLED, QUARANTINED)


def check_backoff(policy) -> None:
    """Validate the backoff fields of a job- or client-side retry policy
    (a NaN slips past every comparison, so finiteness comes first)."""
    values = (policy.backoff_s, policy.backoff_max_s, policy.backoff_factor,
              policy.jitter)
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"backoff values must be finite, got {values}")
    if policy.backoff_s < 0 or policy.backoff_max_s < 0:
        raise ValueError("backoff delays must be >= 0")
    if policy.backoff_factor < 1.0:
        raise ValueError(
            f"backoff_factor must be >= 1, got {policy.backoff_factor}"
        )
    if policy.jitter < 0:
        raise ValueError(f"jitter must be >= 0, got {policy.jitter}")


def backoff_delay(policy, attempt: int, u: float) -> float:
    """The one backoff formula: the capped exponential delay before retry
    ``attempt`` (1-based), jittered by the caller's seeded ``u`` in [0, 1)."""
    base = min(
        policy.backoff_max_s,
        policy.backoff_s * policy.backoff_factor ** max(0, attempt - 1),
    )
    return float(base * (1.0 + policy.jitter * u))


@dataclass(frozen=True)
class RetryPolicy:
    """Per-job retry behaviour, as data the scheduler enforces.

    Attributes
    ----------
    max_attempts:
        Total execution budget (first attempt included); >= 1.
    backoff_s:
        Base delay before the first retry. ``0`` retries immediately
        (the historical behaviour).
    backoff_factor:
        Exponential growth of the delay per retry.
    backoff_max_s:
        Cap on the computed delay.
    jitter:
        Fractional seeded jitter: the delay is scaled by a factor drawn
        uniformly from ``[1, 1 + jitter]``. Deterministic per
        ``(seed, job_id, attempt)`` via
        :func:`repro.util.rng.derive_seed`.
    seed:
        Root seed of the jitter stream.
    attempt_deadline_s:
        Wall-clock budget for one attempt; the scheduler terminates the
        worker past it (``None`` = the pool's ``job_timeout`` default).
    """

    max_attempts: int = 2
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    backoff_max_s: float = 30.0
    jitter: float = 0.25
    seed: int = 0
    attempt_deadline_s: float | None = None

    def __post_init__(self) -> None:
        if not self.max_attempts >= 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        check_backoff(self)
        if self.attempt_deadline_s is not None and not (
            0 < self.attempt_deadline_s < math.inf
        ):
            raise ValueError("attempt_deadline_s must be finite and > 0")

    def delay(self, job_id: str, attempt: int) -> float:
        """Backoff delay (seconds) before retrying after ``attempt``
        failed attempts — exponential with seeded jitter."""
        if self.backoff_s == 0.0:
            return 0.0
        rng = np.random.default_rng(derive_seed(self.seed, job_id, attempt))
        return backoff_delay(self, attempt, rng.random())

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict, *, check: bool = True) -> "RetryPolicy":
        """Rebuild a policy; ``check=False`` skips the value checks, for
        a stored record a version that accepted more (a non-finite
        backoff or deadline) may have written. A stored NaN deadline,
        which no clock reaches, loads as ``None``: the pool's default."""
        if check:
            return cls(**d)
        policy = object.__new__(cls)
        policy.__dict__.update(
            {f.name: f.default for f in dataclasses.fields(cls)}, **d
        )
        if policy.attempt_deadline_s != policy.attempt_deadline_s:  # NaN
            policy.__dict__["attempt_deadline_s"] = None
        return policy


@dataclass(frozen=True)
class JobSpec:
    """One simulation run, declaratively.

    The first 13 fields are the options ``python -m repro run`` and
    ``batch submit`` share: :func:`add_run_options` declares each once,
    with its help text, under the field's name (``--dt`` is
    ``time_step``). ``load`` wins over ``model``. Besides its own range
    checks, a spec is valid when the run can build its controls; an
    invalid one raises ``ValueError`` here, at submit. In the service
    ``checkpoint_every`` doubles as the retry granularity (a crashed
    worker's next attempt resumes from the newest valid on-disk
    checkpoint).

    kill_at_step:
        Test/chaos knob: hard-kill the worker process (``os._exit``)
        when this accepted step is reached, simulating a segfault or
        OOM kill that no in-process handler can catch.
    kill_once:
        Soften ``kill_at_step`` to a one-shot: the first attempt dies,
        every later attempt sails past the kill step — the
        crash-then-recover soak workload. ``False`` (default) kills on
        every attempt, the poison-job workload.
    tag:
        Free-form label; hashed, so distinct tags never share a cache
        entry.
    """

    model: str = "wall"
    load: str | None = None
    engine: str = "serial"
    profile: str = "k40"
    steps: int = 20
    time_step: float = 1e-3
    dynamic: bool = False
    preconditioner: str = "bj"
    size: float = 6.0
    seed: int = 0
    contracts: str = "off"
    checkpoint_every: int = 0
    max_rollbacks: int = 3
    kill_at_step: int | None = None
    kill_once: bool = False
    tag: str = ""

    def __post_init__(self) -> None:
        if self.load is None and self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.profile not in PROFILES:
            raise ValueError(
                f"profile must be one of {tuple(PROFILES)}, got {self.profile!r}"
            )
        # written so that a NaN fails too
        if not self.steps >= 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not 0 < self.size < math.inf:
            raise ValueError(f"size must be finite and > 0, got {self.size}")
        if self.kill_at_step is not None and not self.kill_at_step >= 0:
            raise ValueError("kill_at_step must be >= 0")
        # the rest: the controls the run builds from them check them
        controls_from_spec(self)

    def to_dict(self) -> dict:
        """JSON-safe dict; round-trips through :meth:`from_dict`."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict, *, check: bool = True) -> "JobSpec":
        """Rebuild a spec; unknown keys raise (schema drift detector).
        ``check=False`` skips the value checks, for a stored record: it
        was checked at submit, perhaps by a version that accepted more."""
        fields = dataclasses.fields(cls)
        unknown = set(d) - {f.name for f in fields}
        if unknown:
            raise ValueError(f"unknown JobSpec field(s): {sorted(unknown)}")
        if check:
            return cls(**d)
        spec = object.__new__(cls)
        spec.__dict__.update({f.name: f.default for f in fields}, **d)
        return spec

    def spec_hash(self) -> str:
        """Content hash over *every* field — the result-cache key."""
        return content_hash(self.to_dict())


def add_run_options(
    parser: argparse.ArgumentParser,
    *,
    engines: tuple[str, ...] = ENGINES,
    engine: str = JobSpec.engine,
):
    """Add the options that describe a run, for ``python -m repro run``
    and ``batch submit`` alike: each stores the :class:`JobSpec` field it
    sets (``--dt`` stores ``time_step``) and every field defaults to the
    spec's default, so a namespace passes for a spec. ``run`` adds the
    ``domain`` engine and defaults to ``gpu``. Returns the resilience
    argument group, for the options ``run`` adds to it."""
    parser.set_defaults(**{**dataclasses.asdict(JobSpec()), "engine": engine})
    src = parser.add_mutually_exclusive_group()
    src.add_argument("--model", choices=MODELS, help="bundled workload to build")
    src.add_argument("--load", metavar="STEM",
                     help="load a model saved with repro.io.save_system")
    parser.add_argument("--engine", choices=engines)
    parser.add_argument("--profile", choices=PROFILES,
                        help="GPU device profile (gpu and hybrid engines)")
    parser.add_argument("--steps", type=int)
    parser.add_argument("--dt", type=float, dest="time_step", metavar="DT",
                        help="time step [s]")
    parser.add_argument("--dynamic", action="store_true",
                        help="keep velocities between steps (Case-2 mode)")
    parser.add_argument("--preconditioner", choices=PRECONDITIONERS)
    parser.add_argument("--size", type=float,
                        help="slope joint spacing / rubble block scale")
    parser.add_argument("--seed", type=int)
    res = parser.add_argument_group("resilience (long-run survival)")
    res.add_argument("--checkpoint-every", type=int, metavar="N",
                     help="full-state checkpoint every N accepted steps "
                          "(0 = off; enables rollback recovery, and a "
                          "retried batch job resumes from the newest)")
    res.add_argument("--max-rollbacks", type=int, metavar="N",
                     help="fatal-failure rollbacks allowed per run")
    res.add_argument("--contracts", choices=CONTRACT_LEVELS,
                     help="stage-contract checking level "
                          "(post-condition checks at every pipeline stage)")
    return res


@dataclass
class JobRecord:
    """Queue-tracked state of one submitted job.

    ``attempts`` counts worker executions; a job whose worker died or
    failed is retried until its :class:`RetryPolicy` budget is spent,
    then marked ``failed`` — or ``quarantined`` when every attempt
    failed identically (a reproducible poison job). The ``attempt_log``
    keeps one dict per execution (outcome, resume step, crash exit
    code) for post-mortems.

    ``lease_epoch`` is the job's fencing epoch: bumped on every claim,
    stamped into attempt and outcome filenames, and checked before any
    terminal transition — a scheduler or worker holding a superseded
    epoch cannot complete the job (see :mod:`repro.service.lease`).
    ``not_before`` is the earliest claimable wall-clock time, set by
    the retry backoff.
    """

    job_id: str
    spec: JobSpec
    state: str = JobState.QUEUED
    priority: int = 0
    #: Free-form tenant label (HTTP rate-limit bucket / quota key).
    #: Scheduling metadata, not workload — deliberately *not* hashed.
    tenant: str = ""
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    attempts: int = 0
    lease_epoch: int = 0
    not_before: float = 0.0
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    worker_pid: int | None = None
    cached: bool = False
    error: str | None = None
    attempt_log: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["spec"] = self.spec.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "JobRecord":
        d = dict(d)
        # a spec stored by an older version may carry fields retired
        # since (the engine fault knobs), which the record drops, or the
        # retired ``cheap`` contract level, now a part of ``full``
        names = {f.name for f in dataclasses.fields(JobSpec)}
        spec = {k: v for k, v in d["spec"].items() if k in names}
        if spec.get("contracts") == "cheap":
            spec["contracts"] = "full"
        d["spec"] = JobSpec.from_dict(spec, check=False)
        # record files written before the retry budget became one policy
        # carry a ``max_retries`` count and possibly a null ``retry``
        legacy = d.pop("max_retries", 1)
        d["retry"] = (
            RetryPolicy.from_dict(d["retry"], check=False)
            if d.get("retry") is not None
            else RetryPolicy(max_attempts=legacy + 1)
        )
        return cls(**d)
