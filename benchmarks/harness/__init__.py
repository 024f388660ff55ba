"""Layer-resolved benchmark of the DDA pipeline (see README.md).

Four named workloads, two clocks (host wall and modelled device),
host-noise-aware laps. Everything is measured from outside, by timing
calls into public functions of :mod:`repro`; ``BENCHMARK.json`` at the
repository root is the single list of metric names, units and bounds.
"""

#: Set in the harness process before NumPy loads its BLAS, and in every
#: lap's environment: one BLAS thread, so a lap is one busy CPU.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
