"""Planar arrangement of line segments and face extraction.

Given a set of straight segments (domain boundary + joint traces), build
the planar subdivision: snap intersection points, split segments, prune
dangling edges (non-persistent joints that do not bound any block), and
trace the bounded faces with the rotation-system (doubly-connected edge
list) algorithm. Interior faces come out counter-clockwise; the unbounded
outer face has negative signed area and is discarded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.polygon import next_vertices, shoelace
from repro.geometry.segments import segment_intersections, split_segments_at_points
from repro.util.validation import check_array

#: Absolute coordinate snap tolerance for merging arrangement vertices.
SNAP = 1e-7


def _snap_key(x: float, y: float, snap: float) -> tuple[int, int]:
    return (int(round(x / snap)), int(round(y / snap)))


@dataclass
class PlanarArrangement:
    """Vertices and undirected edges of a planar subdivision.

    Attributes
    ----------
    points:
        ``(V, 2)`` unique vertex coordinates.
    edges:
        ``(E, 2)`` vertex index pairs (undirected, deduplicated,
        no self-loops).
    """

    points: np.ndarray
    edges: np.ndarray

    @classmethod
    def from_segments(
        cls, segments: np.ndarray, *, snap: float = SNAP
    ) -> "PlanarArrangement":
        """Build the arrangement: intersect, split, snap, dedupe."""
        segs = check_array("segments", segments, dtype=np.float64, shape=(None, 4))
        cuts: list[list[float]] = [[] for _ in range(segs.shape[0])]
        for i, j, ti, tj in segment_intersections(segs):
            cuts[i].append(ti)
            cuts[j].append(tj)
        pieces = split_segments_at_points(segs, cuts)

        index: dict[tuple[int, int], int] = {}
        points: list[tuple[float, float]] = []

        def vid(x: float, y: float) -> int:
            key = _snap_key(x, y, snap)
            if key not in index:
                index[key] = len(points)
                points.append((x, y))
            return index[key]

        edge_set: set[tuple[int, int]] = set()
        for x1, y1, x2, y2 in pieces:
            a, b = vid(x1, y1), vid(x2, y2)
            if a == b:
                continue
            edge_set.add((min(a, b), max(a, b)))
        return cls(
            points=np.asarray(points, dtype=np.float64).reshape(-1, 2),
            edges=np.asarray(sorted(edge_set), dtype=np.int64).reshape(-1, 2),
        )

    def prune_dangling(self) -> "PlanarArrangement":
        """Iteratively remove degree-1 vertices (and their edges).

        Joint traces that terminate inside intact rock do not bound a
        block; DDA preprocessors drop them the same way.
        """
        edges = self.edges
        while edges.size:
            deg = np.bincount(edges.ravel(), minlength=self.points.shape[0])
            keep = (deg[edges[:, 0]] > 1) & (deg[edges[:, 1]] > 1)
            if keep.all():
                break
            edges = edges[keep]
        return PlanarArrangement(self.points, edges)

    def adjacency(self) -> list[list[int]]:
        """Neighbour lists sorted counter-clockwise by edge angle."""
        nbrs: list[list[int]] = [[] for _ in range(self.points.shape[0])]
        for a, b in self.edges:
            nbrs[a].append(int(b))
            nbrs[b].append(int(a))
        for v, lst in enumerate(nbrs):
            if not lst:
                continue
            p = self.points[v]
            ang = np.arctan2(
                self.points[lst][:, 1] - p[1], self.points[lst][:, 0] - p[0]
            )
            order = np.argsort(ang)
            nbrs[v] = [lst[k] for k in order]
        return nbrs


def extract_faces(
    arrangement: PlanarArrangement, *, min_area: float = 1e-10
) -> list[np.ndarray]:
    """Trace the bounded faces of the arrangement.

    Walks every directed edge once using the rotation system: from
    half-edge ``u -> v``, the next half-edge leaves ``v`` along the
    neighbour that precedes ``u`` in CCW order around ``v`` (i.e. the next
    edge clockwise after the reversed edge). With this rule interior faces
    are traced counter-clockwise and the outer face clockwise; faces with
    signed area below ``min_area`` are dropped.

    Returns
    -------
    list of ndarray
        One ``(k, 2)`` CCW vertex loop per bounded face.
    """
    arr = arrangement.prune_dangling()
    if arr.edges.size == 0:
        return []
    nbrs = arr.adjacency()
    # position of each neighbour in the CCW ring, for O(1) "previous" lookup
    ring_pos: list[dict[int, int]] = [
        {w: k for k, w in enumerate(ring)} for ring in nbrs
    ]
    visited: set[tuple[int, int]] = set()
    faces: list[np.ndarray] = []
    directed = [(int(a), int(b)) for a, b in arr.edges] + [
        (int(b), int(a)) for a, b in arr.edges
    ]
    for start in directed:
        if start in visited:
            continue
        loop: list[int] = []
        u, v = start
        guard = 0
        max_steps = 4 * len(directed) + 8
        while (u, v) not in visited:
            visited.add((u, v))
            loop.append(v)
            ring = nbrs[v]
            k = ring_pos[v][u]
            w = ring[(k - 1) % len(ring)]  # previous in CCW = next clockwise
            u, v = v, w
            guard += 1
            if guard > max_steps:  # pragma: no cover - defensive
                raise RuntimeError("face tracing did not terminate")
        if (u, v) != start and loop:
            # Closed a loop not starting at `start` (can happen with
            # bridges); the visited set still guarantees termination.
            continue
        if len(loop) < 3:
            continue
        pts = arr.points[np.asarray(loop, dtype=np.int64)]
        if shoelace(pts, next_vertices(pts)) > min_area:
            faces.append(pts.copy())
    return faces
