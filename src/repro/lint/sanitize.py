"""Dynamic scatter-write race sanitizer for the virtual GPU.

The paper's Fig.-4 assembly exists *because* naive scatter assembly has
write conflicts: two contributions targeting the same (i, j) from
different threads lose updates without atomics. The sort+scan scheme is
conflict-free by construction — this module checks that claim at
runtime, compute-sanitizer style.

Instrumented scatter sites (``assembly/``, ``primitives/``) route their
target-index arrays through :func:`scatter_check`. When a sanitizer is
active it records, per kernel, every (target index, writer id) pair —
the writer id is the position in the scatter, i.e. the thread that would
issue the store — and reports any index written by two writers *without
a reduction combinator* (``np.add.at``-style scatter-adds declare
``reduction="sum"`` and are exempt: duplicates there are sums, not
races).

Findings surface three ways: a :class:`RaceFinding` record on the
sanitizer, the ``lint.races`` metrics counter, and (by default) a
recoverable :class:`~repro.engine.contracts.ContractViolation`, so the
engine's rollback machinery treats a race like any other corrupted
stage output.

Zero-cost when disabled: the module-level fast path is one ``is None``
test per scatter site (<10% wall overhead is the acceptance bar; the
measured cost is far below it).

Enable via ``SimulationControls(sanitize=True)`` or the CLI
``--sanitize`` flag. The chaos fault ``scatter_duplicate_index``
(stage ``scatter_write``) plants a duplicate target in the sanitizer's
shadow view to prove the detector fires.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

#: Maximum duplicated indices / writer ids kept per finding.
DETAIL_LIMIT = 8


@dataclass(frozen=True)
class RaceFinding:
    """One detected scatter-write race.

    Attributes
    ----------
    kernel:
        Name of the instrumented scatter site (e.g.
        ``"assemble.diag_segment_write"``).
    stage:
        Pipeline stage active when the scatter ran.
    step:
        Loop-1 step index.
    indices:
        Duplicated target indices (first :data:`DETAIL_LIMIT`).
    writers:
        For each duplicated index, the writer ids (scatter positions)
        that stored to it.
    """

    kernel: str
    stage: str
    step: int
    indices: tuple[int, ...]
    writers: tuple[tuple[int, ...], ...]

    def message(self) -> str:
        pairs = ", ".join(
            f"index {i} <- writers {list(w)}"
            for i, w in zip(self.indices, self.writers)
        )
        return (
            f"scatter-write race in kernel '{self.kernel}' "
            f"(step {self.step}): {pairs}"
        )


@dataclass
class ScatterSanitizer:
    """Shadow-memory duplicate-target detector for scatter kernels.

    Parameters
    ----------
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; races bump
        ``lint.races`` and every check bumps ``lint.scatter_checks``.
    contracts:
        Optional :class:`~repro.engine.contracts.StageContracts`; a race
        increments its per-stage violation counter (the same ledger the
        static contracts feed).
    fault_injector:
        Optional chaos :class:`~repro.engine.chaos.FaultInjector`; the
        ``scatter_duplicate_index`` fault corrupts the sanitizer's
        *shadow copy* of the targets — detection fires, downstream data
        stays clean (the rollback retry re-runs the step anyway).
    raise_on_race:
        Raise a recoverable ``ContractViolation`` (default) or only
        record the finding.
    """

    metrics: object = None
    contracts: object = None
    fault_injector: object = None
    raise_on_race: bool = True
    findings: list[RaceFinding] = field(default_factory=list)
    checks: int = 0
    #: Current pipeline stage (set by the engine's stage context).
    stage: str = "scatter_write"
    #: Current loop-1 step (set by the engine's step wrapper).
    step: int = 0

    def check(
        self, kernel: str, targets: np.ndarray, *,
        reduction: str | None = None,
    ) -> None:
        self.checks += 1
        if self.metrics is not None:
            self.metrics.inc("lint.scatter_checks")
        targets = np.asarray(targets).ravel()
        if reduction is not None:
            return  # combinator declared: duplicates reduce, no race
        if self.fault_injector is not None:
            targets = self.fault_injector.perturb(
                "scatter_write", targets, step=self.step
            )
        if targets.size < 2:
            return
        uniq, counts = np.unique(targets, return_counts=True)
        dup = uniq[counts > 1]
        if dup.size == 0:
            return
        shown = dup[:DETAIL_LIMIT]
        writers = tuple(
            # lint: sync-ok[race-report] -- formats the diagnostic after a race is already found
            tuple(np.flatnonzero(targets == t)[:DETAIL_LIMIT].tolist())
            for t in shown
        )
        finding = RaceFinding(
            kernel=kernel, stage=self.stage, step=self.step,
            indices=tuple(int(t) for t in shown), writers=writers,
        )
        self.findings.append(finding)
        if self.metrics is not None:
            self.metrics.inc("lint.races", int(dup.size))
        if self.contracts is not None:
            self.contracts.violations[self.stage] += 1
        if self.raise_on_race:
            # local import: primitives import this module, and the
            # contracts module sits above them in the layering
            from repro.engine.contracts import ContractViolation
            from repro.engine.resilience import StepContext

            raise ContractViolation(
                self.stage, "scatter_race", finding.message(),
                indices=finding.indices,
                context=StepContext(
                    step=self.step, dt=0.0, cause="scatter_race"
                ),
            )


#: The process-wide active sanitizer (None = disabled fast path).
_ACTIVE: ScatterSanitizer | None = None


def active_sanitizer() -> ScatterSanitizer | None:
    """The sanitizer currently armed by :func:`sanitized`, if any."""
    return _ACTIVE


def scatter_check(
    kernel: str, targets: np.ndarray, *, reduction: str | None = None
) -> None:
    """Instrumentation hook called by scatter sites.

    ``targets`` is the 1-D array of destination indices the kernel's
    writers store to (writer ``k`` writes ``targets[k]``); ``reduction``
    names the combining operator for scatter-*add* style sites, whose
    duplicates are sums by design. No-op unless a sanitizer is active.
    """
    sanitizer = _ACTIVE
    if sanitizer is None:
        return
    sanitizer.check(kernel, targets, reduction=reduction)


@contextmanager
def sanitized(
    sanitizer: ScatterSanitizer,
) -> Iterator[ScatterSanitizer]:
    """Arm ``sanitizer`` for the duration of the block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = sanitizer
    try:
        yield sanitizer
    finally:
        _ACTIVE = previous
