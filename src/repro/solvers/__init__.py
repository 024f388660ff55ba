"""Sparse linear symmetric equation solving (paper Section IV).

Preconditioned conjugate gradients with the three preconditioners the
paper compares (Table I / Fig. 5):

* **BJ** — block Jacobi: invert each 6x6 diagonal block. Cheapest to
  construct and apply; slowest convergence.
* **SSOR-AI** — the SSOR approximate inverse of Rudi & Koko (2012):
  a first-order Neumann expansion of the SSOR factors, applied with two
  triangular SpMVs (no triangular *solves* — the point of the method).
* **ILU(0)** — incomplete LU with zero fill, applied with two sparse
  triangular solves whose limited parallelism (level scheduling) makes it
  lose on the GPU despite the best convergence (the paper's Fig. 10
  SpMV-vs-TSS comparison).

The PCG driver warm-starts from the previous step's solution, as the
paper notes DDA does, and reports iteration counts for the Fig.-5 series.
"""

from repro.solvers.cg import pcg, CGResult
from repro.solvers.preconditioners import (
    Preconditioner,
    BlockJacobiPreconditioner,
    SSORAIPreconditioner,
    ILU0Preconditioner,
    IdentityPreconditioner,
    make_preconditioner,
    stronger_preconditioner,
    STRENGTH_ORDER,
)
from repro.solvers.triangular import (
    sparse_triangular_solve,
    level_schedule,
    ilu0_factorize,
)
from repro.solvers.precision import cg_fixed_dtype, PrecisionResult

__all__ = [
    "cg_fixed_dtype",
    "PrecisionResult",
    "pcg",
    "CGResult",
    "Preconditioner",
    "BlockJacobiPreconditioner",
    "SSORAIPreconditioner",
    "ILU0Preconditioner",
    "IdentityPreconditioner",
    "make_preconditioner",
    "stronger_preconditioner",
    "STRENGTH_ORDER",
    "sparse_triangular_solve",
    "level_schedule",
    "ilu0_factorize",
]
