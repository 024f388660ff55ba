"""Deterministic chaos harness: seeded in-process fault injection.

The resilience layer (:mod:`repro.engine.resilience`) and the stage
contracts (:mod:`repro.engine.contracts`) claim to catch corrupted stage
hand-overs. This module makes that claim testable: a seeded
:class:`FaultInjector` perturbs stage *outputs* in-process — dropping or
duplicating contacts, flipping spring signs, desymmetrising the
stiffness matrix, poisoning the solution vector — on a configurable
step schedule, and records exactly what it did. The fault-matrix test
asserts every fault class in :data:`FAULT_REGISTRY` is *detected* by a
contract or guard and *recovered* (rollback/fallback) or cleanly
reported — never silently absorbed.

Faults fire **once** by default: the contract violation triggers a
checkpoint rollback, the retried step runs clean, and the run completes
with ``rollbacks > 0`` plus a non-empty violation count — the exact
signature "detected and recovered" the chaos tests look for.

Checkpoint-file corruption is not a stage output, so it is exposed as
the standalone helper :func:`corrupt_checkpoint_file`.

This module perturbs the *numeric* pipeline. Its service-layer
sibling, :mod:`repro.service.chaos`, perturbs the batch service's
*storage* operations (torn writes, crashed renames, ``ENOSPC``, stale
locks) and its HTTP responses, and shares this module's :class:`FaultSpec` registry idiom and
:func:`derive_seed` fault-plan plumbing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def derive_seed(seed: int, *tokens) -> int:
    """Derive a stable child seed from a root seed and string tokens.

    The shared fault-plan plumbing of the two chaos layers: the engine
    injector, the service injectors (:mod:`repro.service.chaos`), and
    the retry-policy jitter all fan one user-facing seed out into
    independent per-component streams through this function, so two
    runs with equal configuration perturb identically while components
    never share a stream. SHA-256-based, so it is stable across
    processes and Python versions (unlike ``hash``).
    """
    payload = repr((int(seed), tuple(str(t) for t in tokens)))
    digest = hashlib.sha256(payload.encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault class.

    Attributes
    ----------
    name:
        Registry key (also the CLI spelling).
    stage:
        Pipeline stage whose output is perturbed.
    description:
        What the perturbation does.
    detector:
        The contract expected to catch it first, as
        ``contracts.<name> (<level>)``; the fault-matrix test asserts
        that this contract is the one that fired.
    """

    name: str
    stage: str
    description: str
    detector: str


#: Every injectable stage fault. Keys are the CLI/API spellings.
FAULT_REGISTRY: dict[str, FaultSpec] = {
    spec.name: spec
    for spec in (
        FaultSpec(
            "contact_drop", "contact_detection",
            "silently remove a closed contact from the detected table",
            "contracts.lost_closed_contact (full)",
        ),
        FaultSpec(
            "contact_duplicate", "contact_detection",
            "insert a duplicate of a contact row next to it",
            "contracts.duplicate_contact (cheap)",
        ),
        FaultSpec(
            "spring_sign_flip", "contact_detection",
            "flip the sign of one contact's normal penalty stiffness",
            "contracts.penalty_sign (cheap)",
        ),
        FaultSpec(
            "matrix_desymmetrize", "matrix_assembly",
            "add a large asymmetric perturbation to one diagonal block",
            "contracts.symmetry (cheap)",
        ),
        FaultSpec(
            "matrix_nan", "matrix_assembly",
            "poison one diagonal-block entry with NaN",
            "contracts.finite_diag (cheap)",
        ),
        FaultSpec(
            "solution_nan", "equation_solving",
            "overwrite one solution-vector entry with NaN",
            "contracts.finite_solution (cheap) / health guard finite",
        ),
        FaultSpec(
            "solution_inf", "equation_solving",
            "overwrite one solution-vector entry with +inf",
            "contracts.finite_solution (cheap) / health guard finite",
        ),
        FaultSpec(
            "halo_corrupt", "halo_exchange",
            "corrupt one entry of the gathered-solution halo transfer "
            "buffer (domain-decomposed engine only)",
            "contracts.residual_mismatch (full)",
        ),
    )
}


@dataclass(frozen=True)
class InjectedFault:
    """Record of one fault actually applied (for assertions/reporting)."""

    name: str
    stage: str
    step: int
    detail: str


@dataclass
class FaultInjector:
    """Seeded, scheduled, in-process perturbation of stage outputs.

    Parameters
    ----------
    faults:
        Fault names from :data:`FAULT_REGISTRY` to inject, in order.
        ``None`` selects every registered fault.
    seed:
        Seed of the private RNG choosing which row/entry to corrupt —
        two injectors with equal configuration perturb identically.
    start_step:
        First loop-1 step index eligible for injection.
    once:
        Fire each fault a single time (default). The pending list is
        drained in order: at each stage visit the first still-pending
        fault targeting that stage fires, so with rollback recovery a
        multi-fault schedule is injected sequentially across retries.
        ``once=False`` re-arms every fault each step (for tests that
        want an unrecoverable barrage).
    """

    faults: list[str] | None = None
    seed: int = 0
    start_step: int = 0
    once: bool = True
    injected: list[InjectedFault] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = (
            list(FAULT_REGISTRY) if self.faults is None else list(self.faults)
        )
        unknown = [n for n in names if n not in FAULT_REGISTRY]
        if unknown:
            raise ValueError(
                f"unknown fault(s) {unknown}; known: {sorted(FAULT_REGISTRY)}"
            )
        self._pending = names
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------
    @property
    def pending(self) -> list[str]:
        """Faults not yet applied."""
        return list(self._pending)

    @property
    def exhausted(self) -> bool:
        return not self._pending

    def perturb(self, stage: str, payload, *, step: int, engine=None):
        """Possibly corrupt ``payload`` (a stage output) and return it.

        Called by the engine at every stage boundary. A fault fires only
        when its stage matches, the step schedule allows it, and the
        payload is applicable (e.g. ``contact_drop`` defers until a
        closed contact exists to drop).
        """
        if step < self.start_step or not self._pending:
            return payload
        for name in list(self._pending):
            if FAULT_REGISTRY[name].stage != stage:
                continue
            payload, detail = getattr(self, f"_apply_{name}")(payload, engine)
            if detail is None:
                continue  # not applicable yet; stays pending
            if self.once:
                self._pending.remove(name)
            self.injected.append(InjectedFault(name, stage, step, detail))
            return payload
        return payload

    # ------------------------------------------------------------------
    # contact-detection faults (payload: ContactSet)
    # ------------------------------------------------------------------
    def _apply_contact_drop(self, contacts, engine):
        from repro.assembly.contact_springs import OPEN
        from repro.contact.contact_set import VE

        closed = np.flatnonzero(
            (contacts.state != OPEN) & (contacts.kind == VE)
        )
        if closed.size == 0:
            return contacts, None
        victim = int(self._rng.choice(closed))
        keep = np.setdiff1d(np.arange(contacts.m), [victim])
        return contacts.select(keep), f"dropped closed contact row {victim}"

    def _apply_contact_duplicate(self, contacts, engine):
        if contacts.m == 0:
            return contacts, None
        victim = int(self._rng.integers(contacts.m))
        # the copy sits next to its source, so the table stays grouped
        # by kind and only the duplicate-key contract can object
        idx = np.insert(np.arange(contacts.m), victim, victim)
        return contacts.select(idx), f"duplicated contact row {victim}"

    def _apply_spring_sign_flip(self, contacts, engine):
        if contacts.m == 0:
            return contacts, None
        victim = int(self._rng.integers(contacts.m))
        contacts.pn[victim] = -abs(contacts.pn[victim]) - 1.0
        return contacts, f"flipped pn sign of contact row {victim}"

    # ------------------------------------------------------------------
    # assembly faults (payload: BlockMatrix)
    # ------------------------------------------------------------------
    def _apply_matrix_desymmetrize(self, matrix, engine):
        victim = int(self._rng.integers(matrix.n))
        scale = float(np.abs(matrix.diag[victim]).max())
        matrix.diag[victim, 0, 1] += 0.5 * scale + 1.0
        return matrix, f"desymmetrised diagonal block {victim}"

    def _apply_matrix_nan(self, matrix, engine):
        victim = int(self._rng.integers(matrix.n))
        matrix.diag[victim, 0, 0] = np.nan
        return matrix, f"poisoned diagonal block {victim} with NaN"

    # ------------------------------------------------------------------
    # equation-solving faults (payload: CGResult)
    # ------------------------------------------------------------------
    def _apply_solution_nan(self, res, engine):
        victim = int(self._rng.integers(res.x.size))
        res.x[victim] = np.nan
        return res, f"set solution entry {victim} to NaN"

    def _apply_solution_inf(self, res, engine):
        victim = int(self._rng.integers(res.x.size))
        res.x[victim] = np.inf
        return res, f"set solution entry {victim} to +inf"

    # ------------------------------------------------------------------
    # halo-exchange faults (payload: the gathered solution DOF buffer
    # of the domain-decomposed solve)
    # ------------------------------------------------------------------
    def _apply_halo_corrupt(self, buffer, engine):
        if buffer.size == 0:
            return buffer, None
        victim = int(self._rng.integers(buffer.size))
        # large but finite: slips past the cheap finiteness contract and
        # is caught by the full-level true-residual check
        buffer[victim] += 1e6 * (1.0 + float(np.abs(buffer).max()))
        return buffer, f"corrupted halo-gather buffer entry {victim}"


def corrupt_checkpoint_file(path: str | Path) -> Path:
    """Flip one byte in the middle of a persisted checkpoint file.

    Models bit rot / a truncated write. Loading the file afterwards must
    raise :class:`~repro.engine.resilience.CheckpointCorrupt` (the
    SHA-256 digest no longer matches) — never return silently wrong
    state.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    data = bytearray(path.read_bytes())
    if not data:
        raise ValueError(f"{path}: empty file")
    pos = len(data) // 2
    data[pos] ^= 0xFF
    path.write_bytes(bytes(data))
    return path
