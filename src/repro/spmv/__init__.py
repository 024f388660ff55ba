"""Sparse matrix–vector multiplication formats and kernels.

The equation solver spends nearly all its time in SpMV, and the paper's
central optimisation is **HSBCSR** (half slice block compressed sparse row
— Section IV.B): store only the upper-triangle 6x6 blocks, sliced by local
row into 32-aligned arrays, and run a two-stage kernel that multiplies
each stored block by *both* the upper and lower vector segments, so the
symmetric half is never materialised.

Reference formats reproduce the baselines:

* :mod:`repro.spmv.csr_ref` — scalar CSR ("cuSPARSE-like"), including the
  full-matrix recovery cost the paper charges to that path;
* :mod:`repro.spmv.formats` — BCSR.

The reference kernels compute with NumPy; the HSBCSR kernel runs its two
stages as compiled sparse products over its own index arrays
(:class:`~repro.spmv.hsbcsr.TwoStageOperator`). All record their modelled
cost on the virtual device; correctness is cross-checked against SciPy
and a left-to-right Python oracle in the tests.
"""
