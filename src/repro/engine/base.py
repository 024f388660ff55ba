"""Shared engine machinery: the three nested loops of the DDA pipeline.

This base class owns loop 1 (time stepping), loop 2 (maximum-displacement
step control) and loop 3 (open–close iteration), the adaptive time step,
the stage bodies, and the bookkeeping that Tables II/III report. A preset
supplies its :class:`Charges` table (what each shared stage records on
the device) and, optionally, its solver operand.

Wrapped around all three loops sits the resilience layer
(:mod:`repro.engine.resilience`): a solver fallback ladder tried before
any loop-2 dt-halving, per-step health guards after data updating, and
periodic checkpoints the run rolls back to when a step fails fatally.
"""

from __future__ import annotations

import dataclasses
import math
import time
from contextlib import contextmanager
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.assembly.contact_springs import SpringGeometry
from repro.assembly.global_matrix import BlockMatrix
from repro.assembly.symbolic import AssemblyPlan, BoundAssembly
from repro.contact.contact_set import KIND_NAMES, ContactSet
from repro.contact.initialization import initialize_contacts_classified
from repro.contact.open_close import OpenCloseDriver, StateUpdate
from repro.contact.skin import KeptCandidates
from repro.contact.transfer import transfer_contacts
from repro.core.blocks import DOF, BlockSystem
from repro.core.displacement import displacement_matrix, update_geometry
from repro.core.state import SimulationControls
from repro.engine.contracts import StageContracts
from repro.engine import physics
from repro.engine.resilience import (
    ROLLBACK_DT_FACTOR,
    CheckpointManager,
    FailureReport,
    HealthMonitor,
    HealthWarning,
    SimulationError,
    SolverBreakdown,
    StepContext,
    StepRejected,
    solver_ladder,
)
from repro.engine.results import Attempt, SimulationResult, StepRecord
from repro.geometry.tolerances import Tolerances
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.gpu.device import DeviceProfile, K40
from repro.gpu.kernel import KeptLaunches, KernelRecord, VirtualDevice
from repro.solvers.cg import CGResult, DeviceOperand, pcg
from repro.solvers.preconditioners import make_preconditioner
from repro.spmv.hsbcsr import HSBCSRMatrix
from repro.util.timing import ModuleTimes

#: Maximum times a step is retried with a halved time step (loop 2).
MAX_STEP_RETRIES = 10

#: Loop-3 bound per step: Shi's classic limit of open–close sweeps.
MAX_OPEN_CLOSE_ITERATIONS = 6

#: Relative residual at which PCG stops.
CG_TOLERANCE = 1e-8

#: PCG iteration cap; exceeding it halves the time step (paper, §IV.A).
CG_MAX_ITERATIONS = 200

#: Contact distance ``rho`` (the narrow phase's candidate threshold) as
#: a fraction of the mean block diameter.
CONTACT_DISTANCE_FACTOR = 0.05

#: Why loop 2 can throw an attempt away (``Attempt.cause``); one
#: ``engine.step_rejected.<cause>`` counter each, the last one created
#: when it first fires (a run the rule leaves alone keeps its snapshot).
REJECTION_CAUSES = (
    "cg_non_convergence",
    "cg_breakdown",
    "open_close_oscillation",
    "max_displacement",
    "open_close_divergence",
)


def next_dt(dt: float, cause: str | None, time_step: float) -> float:
    """Loop 2's dt policy: the dt after an attempt at ``dt`` that ended
    with ``cause`` (``None``: accepted). An accept grows dt by half, up
    to the configured ``time_step``; a rejection halves it (the paper's
    rule for non-convergence and over-large displacement alike)."""
    if cause is None:
        return min(dt * 1.5, time_step)
    return dt * 0.5


class _Detected(NamedTuple):
    """A step's contact detection, kept across its loop-2 attempts."""

    table: ContactSet
    launches: tuple[KernelRecord, ...]  # priced, replayed by a retry
    geometry: SpringGeometry


class _Trial(NamedTuple):
    """What an attempt leaves besides its :class:`Attempt` record."""

    detected: _Detected
    contacts: ContactSet
    d: np.ndarray
    normal_force: np.ndarray
    max_displacement: float
    residuals: list[float]  # the last solve's, for a failure report


#: ``charge(device, size)``: record one stage's launches on ``device``.
Charge = Callable[[VirtualDevice, Any], None]


class Charges(NamedTuple):
    """A preset's cost table: what each stage body records after running
    the physics. The ``size`` each entry receives:

    * ``detection`` — ``(system, n_pairs, m_previous, m)``: the block
      system, the broad phase's pair count, the previous step's and
      this step's contact counts;
    * ``diagonal`` — the block count; ``nondiagonal`` — the sweep's
      :class:`ContactSet`; ``assembly`` — the new :class:`AssemblyPlan`;
      ``interpenetration`` — the contact count; ``update`` — the vertex
      count.

    ``None`` for detection or assembly: the stage's kernels run on the
    device and charge themselves (the classified detection kernels, the
    Fig.-4 assembly)."""

    detection: Charge | None
    diagonal: Charge
    nondiagonal: Charge
    assembly: Charge | None
    interpenetration: Charge
    update: Charge


class EngineBase:
    """Common driver for every pipeline. Not instantiated directly."""

    #: Device profile subclasses charge their kernels to.
    default_profile: DeviceProfile = K40
    #: What the shared stage bodies record, per preset.
    charges: Charges
    #: Device ledgers that run beside :attr:`device` in parallel (the
    #: domain preset's per-domain devices).
    _parallel_ledgers: tuple[VirtualDevice, ...] = ()

    def __init__(
        self,
        system: BlockSystem,
        controls: SimulationControls | None = None,
        profile: DeviceProfile | None = None,
        fault_injector=None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.system = system
        self.controls = controls or SimulationControls()
        #: stage-output seam: an object whose ``perturb(stage, payload,
        #: step=, engine=)`` sees every stage output (a batch worker's
        #: kill switch, the tests' defect planter); ``None`` otherwise
        self.fault_injector = fault_injector
        #: span recorder (:class:`repro.obs.tracer.Tracer`); the shared
        #: disabled singleton unless the caller wants a trace
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: counter/gauge/histogram ledger (:class:`repro.obs.metrics.
        #: MetricsRegistry`); always live — increments are per accepted
        #: step, never per contact, so the cost is noise
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # pre-declare the headline series so a snapshot of a clean run
        # still shows them at zero (docs and dashboards key on these)
        for name in (
            *(f"contacts.{k}" for k in KIND_NAMES),
            "contact_transfer.hits", "contact_transfer.misses",
            "solver.rung_escalations", "solver.rungs_skipped",
            "engine.rollbacks",
            "contracts.violations", "engine.steps",
            "open_close.sweeps", "assembly.symbolic_reuse",
            "contact.candidate_plan_reuse",
            "contact.skin_reuse", "contact.skin_rebuilds",
            *(f"engine.step_rejected.{c}" for c in REJECTION_CAUSES[:-1]),
            "engine.rejected_cg_iterations",
        ):
            self.metrics.counter(name)
        self.metrics.histogram("cg.iterations")
        self.device = VirtualDevice(profile or self.default_profile)
        self.dt = self.controls.time_step
        #: accumulated simulated physical time [s] (drives seismic input)
        self.sim_time = 0.0
        #: accepted steps so far: the index of the step in progress,
        #: carried by a checkpoint, so resumed runs keep numbering on
        self.step = 0
        self._prev_solution = np.zeros(system.n_dof)
        self._contacts = ContactSet.empty()
        #: vectorised open–close driver of the current loop-2 attempt
        self._oc_driver: OpenCloseDriver | None = None
        #: the last contribution pattern's symbolic assembly, and its
        #: binding to the current attempt's spring geometry
        self._assembly = KeptLaunches(self.metrics.counter("assembly.symbolic_reuse"))
        self._bound_assembly: BoundAssembly | None = None
        #: what ``_solver_operand`` kept of the last solve's sparsity
        #: structure (here the HSBCSR matrix), shared across solves
        self._solver_structure: Any = None
        bbox = np.array(
            [
                system.vertices[:, 0].min(), system.vertices[:, 1].min(),
                system.vertices[:, 0].max(), system.vertices[:, 1].max(),
            ]
        )
        self._model_size = float(
            math.hypot(bbox[2] - bbox[0], bbox[3] - bbox[1])
        )
        self._max_disp_allowed = (
            self.controls.max_displacement_ratio * self._model_size / 2.0
        )
        #: scale-relative tolerances derived from the model bounding box
        self.tolerances = Tolerances.from_points(system.vertices)
        mean_diam = float(np.sqrt(system.areas.mean()))
        self.contact_threshold = CONTACT_DISTANCE_FACTOR * mean_diam
        #: broad-phase pairs and narrow-phase rows kept across steps
        self._candidates = KeptCandidates(self.contact_threshold, self.metrics)
        densities_all = physics.block_densities(system)
        # natural energy scale: dropping the whole model through its own
        # diagonal — the kinetic-energy guard stays silent below this
        energy_scale = float(
            np.sum(densities_all * system.areas)
            * max(self.controls.gravity, 1.0)
            * self._model_size
        )
        self._monitor = HealthMonitor(
            contact_threshold=self.contact_threshold,
            energy_scale=energy_scale,
        )
        # noise floor for open–close significance: state switches whose
        # contact force stays below a small fraction of a typical block
        # weight are label churn (contact-force indeterminacy), not physics
        self._force_tol = 1e-3 * float(
            np.median(densities_all * system.areas) * self.controls.gravity
        )
        #: stage post-condition checker (level "off" = no-op)
        self.contracts = StageContracts(
            self.controls.contract_level,
            contact_threshold=self.contact_threshold,
        )

    def _inject(self, stage: str, payload):
        """Chaos-harness hook: possibly corrupt a stage output."""
        if self.fault_injector is None:
            return payload
        return self.fault_injector.perturb(
            stage, payload, step=self.step, engine=self
        )

    @contextmanager
    def _stage(self, times: ModuleTimes, module: str):
        """One pipeline-stage measurement, the one producer of a stage's
        time: launches are attributed to ``module``, and both clocks are
        read once — the wall seconds, and the modelled seconds of the
        device records the stage appended plus the most any one of
        :attr:`_parallel_ledgers` recorded meanwhile (the critical path).
        Both go into the run's :class:`ModuleTimes` and onto a traced span.
        """
        tracer = self.tracer
        device = self.device
        records = device.records
        n0 = len(records)
        marks = [(d.records, len(d.records)) for d in self._parallel_ledgers]
        start = tracer.now() if tracer.enabled else 0.0
        t0 = time.perf_counter()
        device._region_stack.append(module)
        try:
            yield
        finally:
            device._region_stack.pop()
            wall = time.perf_counter() - t0
            modelled = sum(r.seconds for r in records[n0:]) + max(
                (sum(r.seconds for r in recs[m:]) for recs, m in marks),
                default=0.0,
            )
            times.add(module, wall, modelled)
            if tracer.enabled:
                tracer.add(
                    module, step=self.step, start=start, wall_s=wall,
                    device_s=modelled,
                )

    def _observe_step(self, record: StepRecord, step_start: float) -> None:
        """Roll one accepted step into the metrics (and a step span)."""
        metrics = self.metrics
        metrics.inc("engine.steps")
        if record.retries:
            metrics.inc("engine.step_retries", record.retries)
        if record.solver_rung:
            metrics.inc("solver.rung_escalated_steps")
        metrics.histogram("engine.open_close_iterations").observe(
            record.open_close_iterations
        )
        contacts = self._contacts
        if contacts.m:
            counts = np.bincount(contacts.kind, minlength=len(KIND_NAMES))
            for kind_name, n in zip(KIND_NAMES, counts):
                if n:
                    metrics.inc(f"contacts.{kind_name}", int(n))
        tracer = self.tracer
        if tracer.enabled:
            tracer.add(
                "step", start=step_start, wall_s=tracer.now() - step_start,
                **dataclasses.asdict(record),
            )

    # ------------------------------------------------------------------
    # stage bodies: the physics once, the cost read from ``charges``
    # ------------------------------------------------------------------
    def _detect_contacts(self) -> ContactSet:
        """This step's contact table, with the previous step's states
        transferred in: broad and narrow phase over the candidates
        :class:`~repro.contact.skin.KeptCandidates` keeps across steps,
        transfer, classified initialisation. Reads block geometry only."""
        charge = self.charges.detection
        system = self.system
        device = self.device if charge is None else None
        n_pairs, contacts = self._candidates.detect(
            system, device, tol=self.tolerances
        )
        contacts = transfer_contacts(
            self._contacts, contacts, system.vertices.shape[0], device,
            metrics=self.metrics, kept=self._candidates.transfer,
        )
        contacts = initialize_contacts_classified(
            system, contacts, self.controls.penalty_scale, device
        )
        if charge is not None:
            charge(self.device, (system, n_pairs, self._contacts.m, contacts.m))
        return contacts

    def _build_diagonal(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The contact-independent blocks and loads:
        :func:`repro.engine.physics.diagonal_system`."""
        out = physics.diagonal_system(
            self.system, self.controls, self.dt, self.sim_time
        )
        self.charges.diagonal(self.device, self.system.n_blocks)
        return out

    def _build_nondiagonal(
        self,
        contacts: ContactSet,
        normal_force: np.ndarray,
        geometry: SpringGeometry | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """Charge one sweep's non-diagonal build and return what it
        changes: :func:`repro.engine.physics.contact_loads`."""
        self.charges.nondiagonal(self.device, contacts)
        return physics.contact_loads(self.system, contacts, normal_force, geometry)

    def _plan_assembly(
        self,
        diag_idx: np.ndarray,
        off_rows: np.ndarray,
        off_cols: np.ndarray,
    ) -> AssemblyPlan:
        """Run the assembler's symbolic phase for one contribution
        pattern and record what one assembly of it costs this preset."""
        charge = self.charges.assembly
        plan = AssemblyPlan.build(
            self.system.n_blocks, diag_idx, off_rows, off_cols,
            self.device if charge is None else None,
        )
        if charge is not None:
            charge(self.device, plan)
        return plan

    def _check_interpenetration(
        self,
        contacts: ContactSet,
        d: np.ndarray,
        prev_normal_force: np.ndarray,
    ) -> StateUpdate:
        """One open–close sweep over all contacts simultaneously, charged.

        The vectorised driver is the restructured kernel's formulation
        (Section III.D) on every preset. :meth:`_attempt` builds it over
        its copy of the step's contact table and the step's one spring
        geometry (vertices never move between the attempts or sweeps of
        a step). Every sweep bumps the ``open_close.sweeps`` counter.
        """
        self.metrics.inc("open_close.sweeps")
        update = self._oc_driver.sweep(d, prev_normal_force)
        self.charges.interpenetration(self.device, contacts.m)
        return update

    # ------------------------------------------------------------------
    # the three nested loops
    # ------------------------------------------------------------------
    def run(
        self, steps: int, *, snapshot_every: int = 0
    ) -> SimulationResult:
        """Run ``steps`` more accepted time steps (the paper's loop 1),
        numbered on from :attr:`step`.

        With checkpointing enabled (``resilience.checkpoint_every > 0``)
        a fatal step failure rolls the engine back to the last good
        checkpoint, shrinks ``dt``, and retries, up to
        ``resilience.max_rollbacks`` times. When recovery is impossible,
        the ``resilience.on_failure`` policy decides between raising the
        typed :class:`SimulationError` (default) and returning the
        accepted prefix as a *partial* result with an attached
        :class:`~repro.engine.resilience.FailureReport`.

        Parameters
        ----------
        steps:
            Accepted step count (retries from the loop-2 control do not
            count).
        snapshot_every:
            Record block centroids at every step number divisible by
            this (0 = only the final state).
        """
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        rcontrols = self.controls.resilience
        times = ModuleTimes()
        result = SimulationResult(
            module_times=times, device=self.device, metrics=self.metrics
        )
        tracer = self.tracer
        if tracer.enabled:
            tracer.meta.setdefault("engine", type(self).__name__)
            tracer.meta.setdefault("profile", self.device.profile.name)
            tracer.meta.setdefault("n_blocks", self.system.n_blocks)
        start_centroids = self.system.centroids.copy()
        manager: CheckpointManager | None = None
        if rcontrols.checkpoint_every > 0:
            manager = CheckpointManager(persist_dir=rcontrols.checkpoint_dir)
            manager.take(self)
        self._monitor.reset()
        # counts accumulate across runs on the checker; diff at the end
        # so each run reports its own
        violations_before = self.contracts.violations.copy()
        rollbacks = 0
        start = self.step
        while self.step < start + steps:
            step_start = tracer.now() if tracer.enabled else 0.0
            try:
                record = self._step_impl(result)
            except SimulationError as err:
                cp = manager.latest if manager is not None else None
                if (
                    cp is not None
                    and rollbacks < rcontrols.max_rollbacks
                    and err.recoverable
                ):
                    rollbacks += 1
                    self.metrics.inc("engine.rollbacks")
                    failed = self.step
                    self.restore_checkpoint(cp)
                    self.dt = cp.dt * ROLLBACK_DT_FACTOR
                    self._monitor.reset()
                    # drop the steps the rollback un-did
                    del result.steps[cp.step - start:]
                    result.snapshots = [
                        (s, c) for s, c in result.snapshots if s <= cp.step
                    ]
                    result.warnings.append(
                        HealthWarning(
                            step=failed,
                            guard="rollback",
                            message=(
                                f"rolled back to step {cp.step} after "
                                f"{type(err).__name__}: {err} "
                                f"(retrying at dt={self.dt:.3e})"
                            ),
                        )
                    )
                    continue
                report = FailureReport(
                    error=type(err).__name__,
                    message=str(err),
                    context=err.context,
                    steps_completed=len(result.steps),
                    rollbacks=rollbacks,
                )
                if rcontrols.on_failure == "partial":
                    result.failure = report
                    break
                err.report = report  # for callers catching the raise
                raise
            result.steps.append(record)
            self._observe_step(record, step_start)
            self.step += 1
            if manager is not None and self.step % rcontrols.checkpoint_every == 0:
                manager.take(self)
            if snapshot_every and self.step % snapshot_every == 0:
                result.snapshots.append(
                    (self.step, self.system.centroids.copy())
                )
        result.rollbacks = rollbacks
        result.contract_violations = {
            stage: count - violations_before.get(stage, 0)
            for stage, count in self.contracts.violations.items()
            if count - violations_before.get(stage, 0) > 0
        }
        for stage, count in result.contract_violations.items():
            self.metrics.inc(f"contracts.violations.{stage}", count)
            self.metrics.inc("contracts.violations", count)
        result.snapshots.append((self.step, self.system.centroids.copy()))
        result.displacements = self.system.centroids - start_centroids
        return result

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self) -> physics.Checkpoint:
        """Snapshot the full engine state (see :class:`Checkpoint`)."""
        return physics.Checkpoint.capture(self)

    def restore_checkpoint(self, cp: physics.Checkpoint) -> None:
        """Restore a snapshot taken by :meth:`checkpoint` (in place)."""
        cp.restore(self)

    def _solve_with_fallback(
        self, matrix: BlockMatrix, rhs: np.ndarray, x0: np.ndarray, first_rung: int = 0
    ) -> tuple[CGResult, int, int]:
        """One equation solve, escalating through the fallback ladder.

        Walks :func:`repro.engine.resilience.solver_ladder` — configured
        preconditioner, stronger preconditioner, cold restart — from
        ``first_rung`` (the rung an earlier sweep of this loop-2 attempt
        had to climb to) and stops at the first converged rung. A warm
        rung starts from ``x0``. A cold restart directly after a warm
        solve with the same preconditioner is skipped while ``x0`` is the
        zero vector: it would be the same solve. Returns ``(result, rung,
        total_cg_iterations)``; when every rung fails the last result is
        returned (``converged=False``) and loop 2 takes over with a
        dt-halving.
        """
        ladder = solver_ladder(self.controls.preconditioner)
        # the SpMV operand is prepared once, outside the ladder walk —
        # every rung solves the same system, only the preconditioner
        # changes
        operand = self._solver_operand(matrix)
        total_iters = 0
        res: CGResult | None = None
        skipped = first_rung  # rungs an earlier sweep climbed past
        warm_tried = None
        for rung in range(first_rung, len(ladder)):
            name, warm = ladder[rung]
            if (
                not warm
                and name == warm_tried
                and not x0.any()  # lint: sync-ok[stage-skip] -- host decides whether the cold restart differs from the warm solve just run
            ):
                skipped += 1
                continue
            try:
                pre = make_preconditioner(name, matrix, operand.device)
            except (ValueError, ZeroDivisionError, np.linalg.LinAlgError):
                continue  # rung unbuildable (e.g. ILU on a zero pivot)
            res = pcg(
                operand, rhs, x0 if warm else None, pre,
                tol=CG_TOLERANCE,
                max_iterations=CG_MAX_ITERATIONS,
                metrics=self.metrics,
            )
            warm_tried = name if warm else None
            total_iters += res.iterations
            if res.converged:
                if rung > first_rung:
                    self.metrics.inc("solver.rung_escalations")
                break
        if res is None:  # every rung failed to even construct
            raise SolverBreakdown(
                f"step {self.step}: no preconditioner on the fallback "
                "ladder could be built",
                StepContext(step=self.step, dt=self.dt, cause="cg_breakdown"),
            )
        if skipped:
            self.metrics.inc("solver.rungs_skipped", skipped)
        if not res.converged:
            self.metrics.inc("solver.ladder_exhausted")
        return res, rung, total_iters

    def _solver_operand(self, matrix: BlockMatrix) -> DeviceOperand:
        """What :func:`~repro.solvers.cg.pcg` iterates over for this
        solve — the one solver hook.

        The base engines solve through the HSBCSR kernel on their one
        device: the :class:`BlockMatrix` is converted once per solve,
        outside the fallback-ladder walk, sharing the previous solve's
        index arrays and launch costs when the exact pattern gate of
        :meth:`HSBCSRMatrix.from_block_matrix` passes (every open–close
        sweep after the first, usually every next step too); the host
        product skips the all-zero blocks the launches still price.
        :class:`~repro.engine.domain_engine.DomainEngine` returns the
        matrix split across its domain devices instead (a
        :class:`~repro.domain.solve.DistributedOperand`: same calls).
        """
        h = HSBCSRMatrix.from_block_matrix(
            matrix, structure=self._solver_structure
        )
        self._solver_structure = h
        return DeviceOperand(h, self.device)

    # ------------------------------------------------------------------
    # symbolic assembly reuse
    # ------------------------------------------------------------------
    def _assemble(
        self,
        diag_idx: np.ndarray,
        diag_blocks: np.ndarray,
        contacts: ContactSet,
        geometry: SpringGeometry,
        w: np.ndarray,
        ws: np.ndarray | None,
    ) -> BlockMatrix:
        """Assemble one sweep's matrix, symbolic phase once per pattern.

        ``diag_idx`` is the attempt's diagonal pattern — the rows of
        ``diag_blocks``, then ``contacts.block_i``, then
        ``contacts.block_j`` — and ``w`` / ``ws`` the sweep's spring
        weights. When the contribution pattern equals the kept plan's
        (the exact gate of :class:`KeptLaunches`) the plan's
        captured launch records are recorded again — on the device and
        in the stage region that priced them — so the modelled seconds
        are bit-identical to a first assembly, and the
        ``assembly.symbolic_reuse`` counter is bumped. Otherwise
        the preset's :meth:`_plan_assembly` builds a new plan while its
        launches are captured. Either way the matrix comes from the
        numeric phase of the plan bound to ``geometry`` (re-bound
        whenever the plan or the geometry object is a new one).
        """
        pattern = diag_idx, contacts.block_i, contacts.block_j
        plan = self._assembly.run(
            self.device, lambda: self._plan_assembly(*pattern), *pattern
        )
        bound = self._bound_assembly
        if bound is None or bound.plan is not plan or bound.geometry is not geometry:
            bound = self._bound_assembly = plan.bind(geometry)
        return bound.assemble(diag_blocks, w, ws)

    def _step_impl(self, result: SimulationResult) -> StepRecord:
        """Loop 2: attempt step :attr:`step` until an attempt is
        accepted, or raise once ``MAX_STEP_RETRIES`` dt-halvings are
        spent."""
        times = result.module_times
        detected = None
        for retry in range(MAX_STEP_RETRIES + 1):
            attempt, trial = self._attempt(retry, times, detected)
            if attempt.cause is None:
                record = self._accept(attempt, trial, retry, times)
                # health guards run on the freshly-updated state; a
                # non-finite state raises NumericalBlowup for the run loop
                result.warnings.extend(self._monitor.after_step(self.system, record))
                return record
            # the one rejection branch: the counters tally the records
            self.metrics.inc(f"engine.step_rejected.{attempt.cause}")
            self.metrics.inc("engine.rejected_cg_iterations", attempt.cg_iterations)
            result.rejected.append(attempt)
            self.dt = next_dt(attempt.dt, attempt.cause, self.controls.time_step)
            # the next attempt needs only the step's detection: the
            # rejected contacts and solution go before it runs
            detected, residuals = trial.detected, trial.residuals
            del trial
        error_cls = SolverBreakdown if attempt.cause == "cg_breakdown" else StepRejected
        raise error_cls(
            f"step {self.step}: no acceptable time step after "
            f"{MAX_STEP_RETRIES} halvings (dt={self.dt:.3e}, "
            f"cause={attempt.cause})",
            StepContext(
                step=self.step, dt=self.dt, retries=MAX_STEP_RETRIES,
                cg_residuals=list(residuals),
                max_penetration=attempt.max_penetration, cause=attempt.cause,
            ),
        )

    def _replay_detection(
        self, times: ModuleTimes, detected: _Detected | None
    ) -> tuple[ContactSet, _Detected]:
        """A fresh copy of the step's contact table. Detection and the
        spring linearisation read block geometry only, which moves in data
        updating alone: they run on the step's first attempt (``detected``
        is ``None``); a retry records the detection's priced launches."""
        with self._stage(times, "contact_detection"):
            if detected is None:
                n0 = self.device.launches()
                table = self._detect_contacts()
                detected = _Detected(
                    table, self.device.launches_since(n0),
                    table.spring_geometry(self.system),
                )
            else:
                self.device.record(detected.launches)
            return detected.table.copy(), detected

    def _attempt(
        self, retry: int, times: ModuleTimes, detected: _Detected | None
    ) -> tuple[Attempt, _Trial]:
        """One attempt at :attr:`step` with the current dt: detection, the
        diagonal build and the open–close sweeps (loop 3), each stage
        output passed through its fault seam and contract check."""
        system = self.system
        ctx = StepContext(step=self.step, dt=self.dt, retries=retry)
        table, detected = self._replay_detection(times, detected)
        contacts = self._inject("contact_detection", table)
        self.contracts.check_contacts(
            system, contacts, previous=self._contacts, context=ctx
        )
        # a fault that replaced the table brings its own geometry
        geometry = (
            detected.geometry if contacts is table
            else contacts.spring_geometry(system)
        )
        self._oc_driver = OpenCloseDriver.build(
            system, contacts, geometry, force_tolerance=self._force_tol
        )
        with self._stage(times, "diagonal_matrix_building"):
            diag_idx, diag_blocks, f_base = self._build_diagonal()
        diag_idx = np.concatenate([diag_idx, contacts.block_i, contacts.block_j])
        normal_force = physics.stored_normal_force(contacts)
        d = np.zeros(system.n_dof)
        # a sweep's CG starting guess: the step before's solution, then
        # the sweep before's (the same K with some springs switched)
        x0 = self._prev_solution
        last = retry == MAX_STEP_RETRIES
        cause: str | None = None
        res: CGResult | None = None
        # rung: the one the last solve needed, where the next one starts
        cg_total = rung = 0
        max_pen = 0.0
        changes: list[int] = []  # significant changes, one per sweep
        for oc in range(MAX_OPEN_CLOSE_ITERATIONS):
            with self._stage(times, "nondiagonal_matrix_building"):
                w, ws, f_contact = self._build_nondiagonal(
                    contacts, normal_force, geometry
                )
                matrix = self._assemble(
                    diag_idx, diag_blocks, contacts, geometry, w, ws
                )
            matrix = self._inject("matrix_assembly", matrix)
            self.contracts.check_matrix(matrix, context=ctx)
            with self._stage(times, "equation_solving"):
                rhs = f_base + f_contact
                res, rung, iters = self._solve_with_fallback(
                    matrix, rhs, x0, rung
                )
            res = self._inject("equation_solving", res)
            cg_total += iters
            if not res.converged:
                cause = "cg_breakdown" if res.breakdown else "cg_non_convergence"
                break
            self.contracts.check_solution(matrix, rhs, res, context=ctx)
            d = x0 = res.x
            with self._stage(times, "interpenetration_checking"):
                update = self._check_interpenetration(contacts, d, normal_force)
            self.contracts.check_state_update(contacts, update, context=ctx)
            max_pen = update.max_penetration
            contacts.state = update.states
            contacts.shear_sign = update.shear_sign
            normal_force = update.normal_force
            changes.append(update.significant_changes)
            if update.significant_changes == 0:
                break
            # sweep 1 only closes the fresh table: a count that rose
            # twice running from sweep 2 on, with sweeps left, diverges
            if (
                3 <= oc < MAX_OPEN_CLOSE_ITERATIONS - 1
                and not last
                and changes[-3] < changes[-2] < changes[-1]
            ):
                cause = "open_close_divergence"
                break
        else:
            # states still switching at the cap are treated like CG
            # non-convergence (Shi's rule); the last retry is accepted
            # anyway so a marginal oscillation cannot wedge the run
            if not last:
                cause = "open_close_oscillation"
        max_disp = self._max_vertex_displacement(d)
        if cause is None and not max_disp <= 2.0 * self._max_disp_allowed:
            cause = "max_displacement"
        attempt = Attempt(
            self.step, self.dt, cause, tuple(changes), cg_total, rung, max_pen
        )
        return attempt, _Trial(
            detected, contacts, d, normal_force, max_disp,
            [] if res is None else res.residuals,
        )

    def _accept(
        self, attempt: Attempt, trial: _Trial, retry: int, times: ModuleTimes
    ) -> StepRecord:
        """Commit the accepted attempt, update the data, advance the
        clock and dt, and return the step's record."""
        contacts, d = trial.contacts, trial.d
        self._prev_solution = d.copy()
        physics.store_normal_force(contacts, trial.normal_force)
        self._contacts = contacts
        # bound to the geometry that is about to move (and ~5 MB at
        # 12 k contacts the next detection need not sit on)
        self._bound_assembly = None
        with self._stage(times, "data_updating"):
            self._update_data(d, attempt.dt)
        ctx = StepContext(step=attempt.step, dt=attempt.dt, retries=retry)
        self.contracts.check_geometry(self.system, context=ctx)
        self.sim_time += attempt.dt
        self.dt = next_dt(attempt.dt, None, self.controls.time_step)
        return StepRecord(
            step=attempt.step,
            dt=attempt.dt,
            cg_iterations=attempt.cg_iterations,
            open_close_iterations=len(attempt.changes),
            n_contacts=contacts.m,
            # the distinct contact block pairs the attempt assembled
            n_offdiag_blocks=int(self._assembly.value.ukey.size),
            max_displacement=trial.max_displacement,
            max_penetration=attempt.max_penetration,
            retries=retry,
            solver_rung=attempt.rung,
            oc_converged=attempt.changes[-1:] == (0,),
        )

    # ------------------------------------------------------------------
    # the solution applied: loop-2 control and data updating
    # ------------------------------------------------------------------
    def _max_vertex_displacement(self, d: np.ndarray) -> float:
        """Largest displacement of any vertex under the solution ``d``."""
        db = d.reshape(self.system.n_blocks, DOF)
        owner = self.system.block_of_vertex()
        t = displacement_matrix(
            self.system.vertices, self.system.centroids[owner]
        )
        disp = np.einsum("vij,vj->vi", t, db[owner])
        return float(np.hypot(disp[:, 0], disp[:, 1]).max())

    def _update_data(self, d: np.ndarray, dt: float) -> None:
        """Move vertices and fixed/load points, advance the integrator's
        state (:func:`repro.engine.physics.advance`), refresh caches,
        charge the update.

        Vectorised over all vertices (one pass of the exact-rotation
        update of :func:`repro.core.displacement.update_geometry`, whose
        scalar form validates this one in the tests).
        """
        system = self.system
        db = d.reshape(system.n_blocks, DOF)
        old_centroids = system.centroids.copy()
        owner = system.block_of_vertex()
        dbo = db[owner]
        rel = system.vertices - old_centroids[owner]
        # strain about the centroid
        sx = rel[:, 0] * dbo[:, 3] + rel[:, 1] * dbo[:, 5] / 2.0
        sy = rel[:, 1] * dbo[:, 4] + rel[:, 0] * dbo[:, 5] / 2.0
        stx = rel[:, 0] + sx
        sty = rel[:, 1] + sy
        # exact rotation
        c = np.cos(db[:, 2])[owner]
        s = np.sin(db[:, 2])[owner]
        system.vertices = old_centroids[owner] + dbo[:, :2] + np.stack(
            [c * stx - s * sty, s * stx + c * sty], axis=1
        )
        system.fixed_points = [
            (b, *update_geometry(np.array([[x, y]]), old_centroids[b], db[b])[0])
            for b, x, y in system.fixed_points
        ]
        system.load_points = [
            (b, *update_geometry(np.array([[x, y]]), old_centroids[b], db[b])[0],
             fx, fy)
            for b, x, y, fx, fy in system.load_points
        ]
        physics.advance(system, db, dt, self.controls.dynamic)
        system._refresh_cache()
        self.charges.update(self.device, system.vertices.shape[0])
