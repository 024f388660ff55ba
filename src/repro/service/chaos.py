"""Seeded fault injection for the batch service — storage and network.

The stage contracts and rollback keep the *numeric* pipeline honest
(``tests/engine/test_contracts.py`` plants a defect for each guard);
this module makes the *durability* and *service* stories testable. One
plan base (:class:`FaultPlan`) and one injector core
(:class:`FaultInjector`) carry everything the two seams share — seed,
rate, armed faults, budget, validation, JSON round-trip, the seeded
draw, counts, metrics, and per-process arming; the seams themselves
add only what is theirs:

* **Storage** (:class:`IOFaultPlan` / :class:`IOFaultInjector`,
  faults in :data:`IO_FAULT_REGISTRY`) is consulted by the hooks in
  :mod:`repro.io.batch_io` on every atomic write, JSON read, and lock
  acquisition the batch service performs. A fault perturbs the path
  the product runs (``io_latency`` lands on every lock acquisition);
  it never selects a different implementation.
* **Network** (:class:`NetFaultPlan` / :class:`NetFaultInjector`,
  faults in :data:`NET_FAULT_REGISTRY`) is consulted by the HTTP
  server (:mod:`repro.service.http`) on every request: the moment the
  batch core is driven remotely a whole family of failures appears
  that storage chaos cannot model.

A fault is registered only when it produces an outcome that no other
fault produces and that the product's own protocol can really suffer:
the storage faults are the three outcomes of the atomic replace (a
reader never sees a torn file, so no fault fakes one), the network
faults a lost request or response and a late success.

The service's robustness claims — exactly-once completion under
``python -m repro batch audit``, idempotent resubmission, retrying
clients — must hold with both seams armed.

Arming is per-process and explicit: call ``IOFaultInjector.install(plan)``
/ ``NetFaultInjector.install(plan)`` programmatically, or set
``REPRO_IO_FAULT_PLAN`` / ``REPRO_NET_FAULT_PLAN`` to a plan file path
(written with :meth:`FaultPlan.save`) and call ``install_from_env()``.
Each process entry does so before it builds anything: ``batch_main``
and the soak's scheduler children arm the storage seam, every worker
re-arms it (fork or spawn, each with its own seeded stream), and
``run_server`` arms the network seam. Decisions are
drawn from a private RNG seeded via
:func:`repro.util.rng.derive_seed`, so a plan is deterministic per
operation (or request) sequence. Health endpoints are never faulted —
an operator probing a chaos-soaked server must still be able to tell
it is alive.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from repro.io.batch_io import set_io_chaos
from repro.util.rng import derive_seed

#: Environment variables naming a JSON storage / net fault-plan file.
IO_PLAN_ENV = "REPRO_IO_FAULT_PLAN"
NET_PLAN_ENV = "REPRO_NET_FAULT_PLAN"


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault class: its registry key (also the plan
    spelling), the operation class or request phase it lands in, what
    it does, and the mechanism that must absorb it."""

    name: str
    stage: str
    description: str
    detector: str


#: Every injectable storage fault. ``stage`` names the hooked operation
#: class; ``description`` says what the fault does, what it models and
#: what callers must tolerate; ``detector`` names the mechanism that
#: must absorb it.
IO_FAULT_REGISTRY: dict[str, FaultSpec] = {
    spec.name: spec
    for spec in (
        FaultSpec(
            "crash_after_rename", "write",
            "complete the rename but report failure to the caller — "
            "the protocol's *error, effect landed* outcome: a crash "
            "after os.replace, before the caller observed success; the "
            "write took effect although its issuer believes it did not",
            "idempotent rewrites / journal audit",
        ),
        FaultSpec(
            "enospc", "write",
            "raise OSError(ENOSPC) before writing anything — the "
            "protocol's *error, no effect* outcome, which every failure "
            "before os.replace (a full disk, a crash mid-write or "
            "before the rename) reduces to: the destination keeps its "
            "old content and no temp file survives",
            "retry policy / scheduler restart",
        ),
        FaultSpec(
            "io_latency", "write",
            "sleep a seeded few milliseconds before the operation "
            "(applies to writes, reads, and locks) — the *success, "
            "late* outcome of a slow disk; surfaces ordering "
            "assumptions that only hold when IO is instant",
            "lease TTL margins / poll loops",
        ),
    )
}

#: Every injectable network fault, same idiom; ``stage`` names the
#: request phase the fault lands in, ``detector`` the client/server
#: mechanism that must absorb it.
NET_FAULT_REGISTRY: dict[str, FaultSpec] = {
    spec.name: spec
    for spec in (
        FaultSpec(
            "conn_reset", "response",
            "abort the connection without a response; a seeded coin "
            "decides whether the abort lands before the request is "
            "processed (the request is lost) or after (the request took "
            "effect but the response is lost — the case idempotent "
            "resubmission exists for). A response cut mid-body or a "
            "read that times out reaches the client as the same "
            "transport error, so this one fault stands for them",
            "client retry + content-hash idempotent resubmission",
        ),
        FaultSpec(
            "net_latency", "request",
            "sleep a seeded few milliseconds before handling — the "
            "*success, late* outcome; surfaces deadline/timeout "
            "assumptions that only hold when the network is instant",
            "per-request deadlines / Retry-After backoff",
        ),
    )
}

#: Storage faults applicable per hooked operation.
_OP_FAULTS = {
    "write": ("crash_after_rename", "enospc", "io_latency"),
    "read": ("io_latency",),
    "lock": ("io_latency",),
}

#: Path substrings never perturbed: the job-event journal is the audit
#: ground truth, fault-plan files must stay loadable, and the metrics
#: snapshots are the operator's eyes on the chaos itself.
PROTECTED_PATHS = ("journal", "chaos-plan", "/metrics/")

#: Request paths never perturbed: liveness probes must stay truthful.
PROTECTED_ROUTES = ("/healthz", "/readyz")


class ChaosIOError(OSError):
    """An injected storage fault (carries the fault name)."""

    def __init__(self, fault: str, path, os_errno: int | None = None):
        if os_errno is not None:
            super().__init__(os_errno, f"injected {fault}", str(path))
        else:
            super().__init__(f"injected {fault}: {path}")
        self.fault = fault


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of a fault campaign (seam-independent).

    Attributes
    ----------
    seed:
        Root seed; the injector's RNG stream derives from it.
    rate:
        Per-eligible-operation injection probability in [0, 1].
    faults:
        Registry names to arm; ``None`` arms every fault.
    max_faults:
        Total injection budget (0 = unlimited).
    """

    seed: int = 0
    rate: float = 0.05
    faults: tuple[str, ...] | None = None
    max_faults: int = 0

    #: The seam's fault registry and its name in error messages.
    REGISTRY: ClassVar[dict[str, FaultSpec]]
    SEAM: ClassVar[str]

    def __post_init__(self) -> None:
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        unknown = [n for n in self.faults or () if n not in self.REGISTRY]
        if unknown:
            raise ValueError(
                f"unknown {self.SEAM} fault(s) {unknown}; "
                f"known: {sorted(self.REGISTRY)}"
            )
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, list):  # e.g. from JSON: keep plans hashable
                object.__setattr__(self, f.name, tuple(value))

    def armed_faults(self) -> tuple[str, ...]:
        return self.faults if self.faults is not None else tuple(self.REGISTRY)

    def to_dict(self) -> dict:
        return {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in dataclasses.asdict(self).items()
        }

    @classmethod
    def from_dict(cls, d: dict):
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(
                f"unknown {cls.__name__} field(s): {sorted(unknown)}"
            )
        return cls(**d)

    def save(self, path: str | Path) -> Path:
        """Write the plan as JSON (plain write — plans are never faulted)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        # lint: lock-ok[chaos-plan] -- plan files are the chaos layer's
        # own input, written before arming, deliberately un-faulted
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))
        return path

    @classmethod
    def load(cls, path: str | Path):
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass
class FaultInjector:
    """Seeded per-process decision engine (seam-independent core)."""

    plan: FaultPlan
    counts: dict[str, int] = field(default_factory=dict)
    #: Optional MetricsRegistry; when bound, every injection bumps
    #: ``<METRIC>`` (and ``<METRIC>.<name>``).
    metrics = None

    #: Per-seam constants: the plan class, the ``derive_seed`` token of
    #: the RNG stream, the metrics counter, the plan-file env variable.
    PLAN: ClassVar[type[FaultPlan]]
    STREAM: ClassVar[str]
    METRIC: ClassVar[str]
    ENV: ClassVar[str]

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(
            derive_seed(self.plan.seed, self.STREAM)
        )
        self._armed = self.plan.armed_faults()

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def bind_metrics(self, registry) -> None:
        self.metrics = registry

    def _protected(self, target: str) -> bool:
        raise NotImplementedError

    def _draw(self, target: str, candidates: list[str]) -> str | None:
        """Pick a fault for one operation, or ``None`` (the usual case)."""
        if self.plan.max_faults and self.total >= self.plan.max_faults:
            return None
        if self._protected(target) or not candidates:
            return None
        if self._rng.random() >= self.plan.rate:
            return None
        fault = str(self._rng.choice(candidates))
        self.counts[fault] = self.counts.get(fault, 0) + 1
        if self.metrics is not None:
            self.metrics.inc(self.METRIC)
            self.metrics.inc(f"{self.METRIC}.{fault}")
        return fault

    def _uniform(self, upper: float) -> float:
        """Seeded duration in ``[0, upper)`` for the latency faults."""
        return float(self._rng.uniform(0.0, upper))

    # process-wide arming
    @classmethod
    def _arm(cls, injector) -> None:
        raise NotImplementedError

    @classmethod
    def install(cls, plan):
        """Arm (or, with ``None``, disarm) this seam's process injector."""
        injector = None if plan is None else cls(plan)
        cls._arm(injector)
        return injector

    @classmethod
    def install_from_env(cls):
        """Arm from the seam's plan-file env var (disarm when unset)."""
        plan_path = os.environ.get(cls.ENV)
        return cls.install(cls.PLAN.load(plan_path) if plan_path else None)


@dataclass(frozen=True)
class IOFaultPlan(FaultPlan):
    """Storage fault campaign.

    Attributes (beyond :class:`FaultPlan`)
    ----------
    paths:
        Path substrings to restrict injection to (empty = all paths).
    latency_s:
        Upper bound of the seeded ``io_latency`` sleep.
    """

    paths: tuple[str, ...] = ()
    latency_s: float = 0.002

    REGISTRY = IO_FAULT_REGISTRY
    SEAM = "io"


@dataclass
class IOFaultInjector(FaultInjector):
    """The injector behind the :mod:`repro.io.batch_io` hooks
    (``batch.io_faults`` metrics)."""

    PLAN = IOFaultPlan
    STREAM = "chaosio"
    METRIC = "batch.io_faults"
    ENV = IO_PLAN_ENV

    def _protected(self, target: str) -> bool:
        if any(token in target for token in PROTECTED_PATHS):
            return True
        paths = self.plan.paths
        return bool(paths) and not any(t in target for t in paths)

    def decide(self, op: str, path: Path) -> str | None:
        return self._draw(
            str(path), [f for f in self._armed if f in _OP_FAULTS[op]]
        )

    # hook entry points (called by repro.io.batch_io)
    def on_write(self, path: Path) -> str | None:
        """Decide a write fault; latency/ENOSPC act here, and
        ``crash_after_rename`` is returned for the atomic-replace
        protocol to act out after its rename."""
        fault = self.decide("write", path)
        if fault == "io_latency":
            self._sleep()
            return None
        if fault == "enospc":
            raise ChaosIOError("enospc", path, os_errno=errno.ENOSPC)
        return fault

    def on_read(self, path: Path) -> None:
        if self.decide("read", path) == "io_latency":
            self._sleep()

    def on_lock(self, path: Path) -> None:
        if self.decide("lock", path) == "io_latency":
            self._sleep()

    def raise_fault(self, fault: str, path: Path) -> None:
        """Raise the caller-visible error for ``crash_after_rename``."""
        raise ChaosIOError(fault, path)

    def _sleep(self) -> None:
        time.sleep(self._uniform(self.plan.latency_s))

    @classmethod
    def _arm(cls, injector) -> None:
        set_io_chaos(injector)


@dataclass(frozen=True)
class NetFaultPlan(FaultPlan):
    """Network fault campaign (``rate`` is per request).

    Attributes (beyond :class:`FaultPlan`)
    ----------
    latency_s:
        Upper bound of the seeded ``net_latency`` sleep.
    """

    rate: float = 0.1
    latency_s: float = 0.05

    REGISTRY = NET_FAULT_REGISTRY
    SEAM = "net"


@dataclass
class NetFaultInjector(FaultInjector):
    """The injector the HTTP server consults (``http.net_faults``
    metrics)."""

    PLAN = NetFaultPlan
    STREAM = "chaosnet"
    METRIC = "http.net_faults"
    ENV = NET_PLAN_ENV

    #: Process-wide armed injector (None = clean path), mirroring the
    #: storage seam's per-process arming model; the HTTP server reads it.
    armed: ClassVar["NetFaultInjector | None"] = None

    def _protected(self, target: str) -> bool:
        return any(target.startswith(route) for route in PROTECTED_ROUTES)

    def decide(self, path: str) -> str | None:
        return self._draw(path, list(self._armed))

    def reset_before_handling(self) -> bool:
        """Seeded coin for ``conn_reset``: abort before (request lost)
        or after (request processed, response lost) handling."""
        return bool(self._rng.random() < 0.5)

    def latency(self) -> float:
        """Seeded sleep duration for ``net_latency``."""
        return self._uniform(self.plan.latency_s)

    @classmethod
    def _arm(cls, injector) -> None:
        NetFaultInjector.armed = injector
