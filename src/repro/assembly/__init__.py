"""Global stiffness matrix assembly.

The DDA global matrix ``K`` is an ``n x n`` grid of 6x6 sub-matrices:
diagonal blocks collect elastic stiffness, inertia, loads and fixed-point
penalties (:mod:`repro.assembly.submatrices`); non-diagonal blocks collect
contact-spring couplings (:mod:`repro.assembly.contact_springs`).

One assembler produces the :class:`~repro.assembly.global_matrix.BlockMatrix`
for every engine preset: the paper's Fig.-4 sort + scan scheme that avoids
memory write conflicts on the GPU, split into a symbolic phase cached per
contribution pattern and a numeric phase run every sweep
(:class:`~repro.assembly.symbolic.AssemblyPlan`;
:func:`~repro.assembly.global_matrix.assemble_gpu` runs both).
"""

from repro.assembly.submatrices import (
    mass_integral_matrix,
    elastic_submatrix,
    body_force_vector,
    point_load_vector,
    fixed_point_contribution,
    initial_stress_vector,
)
from repro.assembly.contact_springs import (
    SpringGeometry,
    normal_spring_vectors,
    shear_spring_vectors,
)
from repro.assembly.global_matrix import (
    BlockMatrix,
    assemble_gpu,
)
from repro.assembly.categories import classify_categories, CATEGORY_NAMES

__all__ = [
    "mass_integral_matrix",
    "elastic_submatrix",
    "body_force_vector",
    "point_load_vector",
    "fixed_point_contribution",
    "initial_stress_vector",
    "SpringGeometry",
    "normal_spring_vectors",
    "shear_spring_vectors",
    "BlockMatrix",
    "assemble_gpu",
    "classify_categories",
    "CATEGORY_NAMES",
]
