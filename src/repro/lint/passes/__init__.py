"""Rule registry: one pass per ``DDAxxx`` code."""

from repro.lint.passes.loops import LoopPass
from repro.lint.passes.rng import RngPass
from repro.lint.passes.sync_points import SyncPointPass
from repro.lint.passes.service_locks import ServiceLockPass

#: Every registered pass, in rule-code order.
ALL_PASSES = (
    LoopPass(),
    RngPass(),
    SyncPointPass(),
    ServiceLockPass(),
)

ALL_CODES = frozenset(p.code for p in ALL_PASSES)

__all__ = ["ALL_PASSES", "ALL_CODES"]
