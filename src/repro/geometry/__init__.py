"""Computational geometry kernels for polygonal blocks.

DDA blocks are simple polygons; every pipeline stage leans on a small set
of geometric primitives: signed area / centroid / second moments (stiffness
and inertia integrals), point–segment distance (narrow-phase contact) and
segment intersection (block cutting). All kernels are vectorised over
their first axis.
"""

from repro.geometry.polygon import (
    polygon_area,
    polygon_centroid,
    polygon_second_moments,
    ensure_ccw,
    is_ccw,
    point_in_polygon,
)
from repro.geometry.distance import (
    point_segment_distance,
    point_point_distance,
    signed_triangle_area2,
    edge_penetration,
)
from repro.geometry.segments import (
    segment_intersections,
    split_segments_at_points,
)
from repro.geometry.tolerances import Tolerances

__all__ = [
    "Tolerances",
    "polygon_area",
    "polygon_centroid",
    "polygon_second_moments",
    "ensure_ccw",
    "is_ccw",
    "point_in_polygon",
    "point_segment_distance",
    "point_point_distance",
    "signed_triangle_area2",
    "edge_penetration",
    "segment_intersections",
    "split_segments_at_points",
]
