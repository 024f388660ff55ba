"""Per-layer measurements: direct calls into public ``repro`` functions.

The inputs are rebuilt from the workload's own model, along the chain
the GPU pipeline runs in one step::

    broad_phase_pairs -> narrow_phase -> transfer_contacts
      -> initialize_contacts_classified -> diagonal_system / contact_system
      -> assemble_gpu -> HSBCSRMatrix.from_block_matrix -> hsbcsr_spmv / pcg

Every call is timed as 1 warm-up + ``REPEATS`` timed repeats and
reported as the calibrated median (a PCG solve is one call; its
iterations are the repeats), on one pinned CPU beside a calibration
thread (see :mod:`benchmarks.harness.calibration`). Modelled time is
what one call charges to a fresh
:class:`~repro.gpu.kernel.VirtualDevice` ledger. Primitives are called
through their modules, at ``n`` = the sampled step's contact count.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from contextlib import contextmanager

import numpy as np

from benchmarks.harness.calibration import Calibrator, pin_to_one_cpu

REPEATS = 11
QUICK_REPEATS = 3
#: Table-I comparison: every preconditioner solves to this tolerance.
PCG_TOL = 1e-8
PCG_MAX_ITERATIONS = 2000
PRECONDITIONERS = ("bj", "ssor", "ilu")
LAUNCH_BATCH = 1000


class _Bench:
    """Times calls against one ledger and records a span per layer call."""

    def __init__(self, rec, calibrator, repeats: int) -> None:
        from repro import K40, VirtualDevice

        self.rec = rec
        self.calibrator = calibrator
        self.repeats = repeats
        self.device = VirtualDevice(K40)
        self.metrics: dict[str, float] = {}

    def call(self, name: str, fn, *, repeats: int | None = None):
        """``(calibrated median wall s, modelled s of one call, last
        value)``."""
        repeats = self.repeats if repeats is None else repeats
        walls = []
        with self.rec.span(f"layer.{name}", repeats=repeats) as span:
            value = fn()  # warm-up
            for _ in range(repeats):
                self.device.reset()
                t0 = time.perf_counter()
                value = fn()
                walls.append(time.perf_counter() - t0)
            span["args"]["median_s"] = statistics.median(walls)
        return (
            self.calibrated(statistics.median(walls), span),
            self.device.total_time, value,
        )

    def calibrated(self, wall: float, span: dict) -> float:
        return wall / self.calibrator.slowdown(span["start"], span["end"])

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)


@contextmanager
def pinned_bench(rec, repeats: int):
    """A :class:`_Bench` on one pinned CPU beside a running calibration
    thread; the CPUs allowed before are restored on exit."""
    allowed = pin_to_one_cpu()
    calibrator = Calibrator().start()
    try:
        yield _Bench(rec, calibrator, repeats)
    finally:
        calibrator.stop()
        os.sched_setaffinity(0, allowed)


def measure(workload: str, seed: int, first_dt: float, rec, *,
            quick: bool = False, n_domains: int = 0) -> dict[str, float]:
    """All direct-call layer metrics of one engine workload."""
    with pinned_bench(rec, QUICK_REPEATS if quick else REPEATS) as bench:
        _measure(bench, workload, seed, first_dt, quick, n_domains)
    return bench.metrics


def _measure(bench, workload, seed, first_dt, quick, n_domains) -> None:
    from benchmarks.harness.workloads import build_system, controls_for
    from repro import GpuEngine

    system = build_system(workload, seed, quick)
    controls = controls_for(workload)
    # engine construction only: its public attributes are the contact
    # threshold and tolerances every engine derives from the model
    engine = GpuEngine(system, controls)
    contacts = _contact_layers(bench, system, controls, engine)
    matrix, rhs = _assembly_layers(
        bench, system, controls, contacts, first_dt
    )
    h = _spmv_layers(bench, matrix)
    _solver_layers(bench, matrix, h, rhs)
    _primitive_layers(bench, system, contacts)
    _launch_cost(bench)
    if n_domains:
        from repro.domain.partition import partition_blocks

        wall, _, _ = bench.call("domain.partition", lambda: partition_blocks(
            system, n_domains, margin=engine.contact_threshold
        ))
        bench.put("domain.partition.wall_ms", 1e3 * wall)


def _contact_layers(bench, system, controls, engine):
    from repro.assembly.contact_springs import LOCK
    from repro.contact.broad_phase import broad_phase_pairs
    from repro.contact.contact_set import ContactSet
    from repro.contact.initialization import initialize_contacts_classified
    from repro.contact.narrow_phase import narrow_phase
    from repro.contact.transfer import transfer_contacts

    dev = bench.device
    threshold = engine.contact_threshold
    n_vertices = system.vertices.shape[0]
    wall, modelled, (i, j) = bench.call(
        "contact.broad_phase",
        lambda: broad_phase_pairs(system.aabbs, threshold, dev),
    )
    bench.put("contact.broad_phase.wall_ms", 1e3 * wall)
    bench.put("contact.broad_phase.modelled_ms", 1e3 * modelled)
    wall, modelled, found = bench.call(
        "contact.narrow_phase",
        lambda: narrow_phase(
            system, i, j, threshold, dev, tol=engine.tolerances
        ),
    )
    bench.put("contact.narrow_phase.wall_ms", 1e3 * wall)
    bench.put("contact.narrow_phase.modelled_ms", 1e3 * modelled)
    bench.put("contact.broad_phase_yield", found.m / max(1, i.size))
    previous = initialize_contacts_classified(
        system,
        transfer_contacts(ContactSet.empty(), found, n_vertices),
        controls.penalty_scale,
    )
    # the hit path: every contact of the step before is found again
    wall, _, carried = bench.call(
        "contact.transfer",
        lambda: transfer_contacts(previous, found, n_vertices, dev),
    )
    bench.put("contact.transfer.wall_ms", 1e3 * wall)
    wall, _, contacts = bench.call(
        "contact.initialize",
        lambda: initialize_contacts_classified(
            system, carried, controls.penalty_scale, dev
        ),
    )
    bench.put("contact.initialize.wall_ms", 1e3 * wall)
    # worst case for assembly and the solve: every spring engaged
    contacts.state[:] = LOCK
    return contacts


def _assembly_layers(bench, system, controls, contacts, first_dt):
    from repro.assembly.global_matrix import assemble_gpu
    from repro.engine.physics import contact_system, diagonal_system

    diag_idx, diag_blocks, f_base = diagonal_system(
        system, controls, first_dt
    )
    normal_force = np.zeros(contacts.m)
    wall, _, streams = bench.call(
        "assembly.contact_system",
        lambda: contact_system(system, contacts, normal_force),
    )
    bench.put("assembly.contact_system.wall_ms", 1e3 * wall)
    c_diag_idx, c_diag_blocks, rows, cols, blocks, f_contact = streams
    all_idx = np.concatenate([diag_idx, c_diag_idx])
    all_blocks = np.concatenate([diag_blocks, c_diag_blocks])
    wall, modelled, matrix = bench.call(
        "assembly.assemble_gpu",
        lambda: assemble_gpu(
            system.n_blocks, all_idx, all_blocks, rows, cols, blocks,
            bench.device,
        ),
    )
    bench.put("assembly.assemble_gpu.wall_ms", 1e3 * wall)
    bench.put("assembly.assemble_gpu.modelled_ms", 1e3 * modelled)
    bench.put("assembly.nnz_blocks", matrix.n + matrix.n_offdiag)
    return matrix, f_base + f_contact


def _spmv_layers(bench, matrix):
    from repro.spmv.csr_ref import CSRMatrix, csr_spmv
    from repro.spmv.hsbcsr import HSBCSRMatrix, hsbcsr_spmv

    dev = bench.device
    wall, _, h = bench.call(
        "spmv.hsbcsr.build", lambda: HSBCSRMatrix.from_block_matrix(matrix)
    )
    bench.put("spmv.hsbcsr.build_wall_ms", 1e3 * wall)
    wall, _, h = bench.call(
        "spmv.hsbcsr.rebuild",
        lambda: HSBCSRMatrix.from_block_matrix(matrix, structure=h),
    )
    bench.put("spmv.hsbcsr.rebuild_wall_ms", 1e3 * wall)
    x = np.random.default_rng(0).standard_normal(matrix.n * 6)
    wall, hsbcsr_modelled, y = bench.call(
        "spmv.hsbcsr", lambda: hsbcsr_spmv(h, x, dev)
    )
    moved = dev.total_counters
    bench.put("spmv.hsbcsr.wall_us", 1e6 * wall)
    bench.put("spmv.hsbcsr.modelled_us", 1e6 * hsbcsr_modelled)
    bench.put(
        "spmv.hsbcsr.bytes_computed",
        moved.total_global_bytes + moved.texture_bytes,
    )
    csr = CSRMatrix.from_block_matrix(matrix)
    wall, csr_modelled, y_csr = bench.call(
        "spmv.csr", lambda: csr_spmv(csr, x, dev)
    )
    if not np.allclose(y, y_csr, rtol=1e-10, atol=1e-6 * np.abs(y).max()):
        raise AssertionError("HSBCSR and CSR products disagree")
    bench.put("spmv.csr.wall_us", 1e6 * wall)
    bench.put("spmv.csr.modelled_us", 1e6 * csr_modelled)
    bench.put("spmv.hsbcsr_over_csr_modelled", hsbcsr_modelled / csr_modelled)
    return h


def _solver_layers(bench, matrix, h, rhs):
    from repro.solvers.cg import pcg
    from repro.solvers.preconditioners import make_preconditioner

    dev = bench.device
    for name in PRECONDITIONERS:
        wall, _, pre = bench.call(
            f"solvers.pcg.{name}.setup",
            lambda name=name: make_preconditioner(name, matrix, dev),
            repeats=1,
        )
        bench.put(f"solvers.pcg.{name}.setup_wall_ms", 1e3 * wall)
        dev.reset()
        with bench.rec.span(f"layer.solvers.pcg.{name}.solve") as span:
            t0 = time.perf_counter()
            res = pcg(
                h, rhs, preconditioner=pre, tol=PCG_TOL,
                max_iterations=PCG_MAX_ITERATIONS, device=dev,
            )
            wall = time.perf_counter() - t0
        wall = bench.calibrated(wall, span)
        if not res.converged:
            raise AssertionError(
                f"PCG/{name} did not reach {PCG_TOL:g} in "
                f"{PCG_MAX_ITERATIONS} iterations"
            )
        iters = max(1, res.iterations)
        bench.put(f"solvers.pcg.{name}.iters", res.iterations)
        bench.put(f"solvers.pcg.{name}.wall_ms_per_iter", 1e3 * wall / iters)
        bench.put(
            f"solvers.pcg.{name}.modelled_ms_per_iter",
            1e3 * dev.total_time / iters,
        )


def _primitive_layers(bench, system, contacts):
    """The six primitives on arrays taken from the sampled contact set.

    Called through their modules so a slowed-down primitive shows up in
    its own metric (and in no sibling's: ``stream_compact`` holds its
    own reference to the scan it uses).
    """
    # by module path: the package re-exports a function named like its
    # module (sorted_search), which "import ... as" would pick up
    compact, radix_sort, reduce_, scan, scatter, sorted_search = (
        importlib.import_module(f"repro.primitives.{name}")
        for name in ("compact", "radix_sort", "reduce", "scan", "scatter",
                     "sorted_search")
    )
    from repro.contact.contact_set import VE

    dev = bench.device
    n = system.n_blocks
    lo = np.minimum(contacts.block_i, contacts.block_j)
    hi = np.maximum(contacts.block_i, contacts.block_j)
    keys = (lo * n + hi).astype(np.int64)
    key_bits = max(1, int(n * n - 1).bit_length())
    payload = np.random.default_rng(0).standard_normal((keys.size, 36))
    sorted_keys = np.sort(keys)
    starts = reduce_.segment_boundaries(sorted_keys)
    flags = np.zeros(keys.size, dtype=np.int64)
    flags[starts] = 1
    mask = contacts.kind == VE
    target = np.zeros((n, 6))
    calls = {
        "radix_sort_pairs": lambda: radix_sort.radix_sort_pairs(
            keys, payload[:1], dev, key_bits=key_bits
        ),
        "exclusive_scan": lambda: scan.exclusive_scan(flags, dev),
        "segmented_reduce": lambda: reduce_.segmented_reduce(
            payload, starts, dev
        ),
        "scatter_add": lambda: scatter.scatter_add(
            target, contacts.block_i, payload[:, :6]
        ),
        "stream_compact": lambda: compact.stream_compact(mask, dev),
        "sorted_search": lambda: sorted_search.sorted_search(
            sorted_keys, keys, dev
        ),
    }
    for name, fn in calls.items():
        wall, modelled, _ = bench.call(f"primitives.{name}", fn)
        bench.put(f"primitives.{name}.wall_us", 1e6 * wall)
        # scatter_add takes no ledger: its modelled cost reads 0
        bench.put(f"primitives.{name}.modelled_us", 1e6 * modelled)


def _launch_cost(bench) -> None:
    """Host cost of recording one kernel launch on the ledger."""
    from repro.gpu.counters import KernelCounters

    dev = bench.device
    counters = KernelCounters(
        flops=1e6, global_bytes_read=1e6, global_txn_read=1e4,
        threads=1e4, warps=320,
    )

    def batch():
        for _ in range(LAUNCH_BATCH):
            dev.launch("bench_launch", counters)

    wall, _, _ = bench.call("gpu.launch", batch)
    bench.put("gpu.launch_wall_us", 1e6 * wall / LAUNCH_BATCH)
