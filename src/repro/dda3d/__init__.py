"""Three-dimensional DDA groundwork (the paper's stated future work).

"The next step of this work will focus on applying these efforts to
three-dimensional DDA on the multiple GPUs." This subpackage implements
the 3-D method's core so that step has a foundation:

* :mod:`repro.dda3d.geometry3d` — convex polyhedra with *exact* volume,
  centroid and second-moment integrals (divergence theorem over
  triangulated faces);
* :mod:`repro.dda3d.displacement3d` — the 12-DOF first-order displacement
  matrix ``T(x, y, z)`` (3 translations, 3 rotations, 6 strains);
* :mod:`repro.dda3d.submatrices3d` — exact 12x12 inertia and elastic
  sub-matrices (every entry reduced to volume + second moments through
  the affine structure of ``T``);
* :mod:`repro.dda3d.contact3d` — vertex–face penalty contacts with
  Mohr–Coulomb friction in the tangent plane;
* :mod:`repro.dda3d.engine3d` — a compact time-stepping engine (implicit
  inertia, open–close iteration, exact-rotation update via Rodrigues).

Combined with :mod:`repro.domain`, this is the multi-GPU 3-D target the
paper names. The 2-D package remains the reproduction of record; the 3-D
engine validates against the same analytic benchmarks (free fall,
friction threshold on an inclined face).
"""

from repro.dda3d.geometry3d import Polyhedron, make_box, make_tetrahedron
from repro.dda3d.displacement3d import displacement_matrix_3d, update_geometry_3d
from repro.dda3d.engine3d import Block3D, System3D, Engine3D, Controls3D

__all__ = [
    "Polyhedron",
    "make_box",
    "make_tetrahedron",
    "displacement_matrix_3d",
    "update_geometry_3d",
    "Block3D",
    "System3D",
    "Engine3D",
    "Controls3D",
]
