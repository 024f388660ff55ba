"""Contact-spring 6x6 couplings (the non-diagonal matrix content).

Every DDA contact is reduced by the narrow phase to a *vertex* ``P1`` of
block ``i`` against a directed *edge* ``E1 -> E2`` of block ``j``, where
the edge is oriented so that the signed distance

    d_n = det(P1, E1, E2) / |E2 - E1|

is positive outside and negative when penetrating (the narrow phase emits
edges reversed relative to block ``j``'s CCW boundary). Linearising the
determinant in the DOF increments gives the classic DDA normal-spring
vectors ``e`` (block i) and ``g`` (block j):

    d_n ≈ d0 + e·d_i + g·d_j

and the penalty energy ``p/2 d_n^2`` contributes ``p e e^T`` to ``K_ii``,
``p e g^T`` to ``K_ij``, ``p g g^T`` to ``K_jj``, and ``-p d0 e`` / ``-p
d0 g`` to the load vectors. Shear springs use the projection onto the edge
tangent; slide-state contacts get a Mohr–Coulomb friction force pair
instead of a shear spring. All functions are vectorised over contacts.

Both linearisations depend on block geometry alone, which is constant
for a whole time step (vertices move only in data updating), so they
are computed once per contact table into a :class:`SpringGeometry` that
every open–close sweep's matrix build and state update then reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.displacement import displacement_matrix
from repro.util.validation import check_array

#: Contact states (shared by contact detection and open–close iteration).
OPEN, SLIDE, LOCK = 0, 1, 2


def _check_batch(name: str, arr: np.ndarray, m: int) -> np.ndarray:
    return check_array(name, arr, dtype=np.float64, shape=(m, 2))


def _edge_length(e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    length = np.hypot(e2[:, 0] - e1[:, 0], e2[:, 1] - e1[:, 1])
    if np.any(length <= 0.0):  # lint: sync-ok[validation-gate] -- raises on degenerate input before any launch
        raise ValueError("degenerate contact edge")
    return length


def normal_spring_vectors(
    p1: np.ndarray,
    e1: np.ndarray,
    e2: np.ndarray,
    ci: np.ndarray,
    cj: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Normal-direction linearisation ``(e, g, d0, length)`` per contact.

    Parameters
    ----------
    p1:
        ``(m, 2)`` contact vertices (block ``i`` material points).
    e1, e2:
        ``(m, 2)`` contact edge endpoints, oriented outside-positive.
    ci, cj:
        ``(m, 2)`` centroids of blocks ``i`` and ``j``.
    """
    m = p1.shape[0] if hasattr(p1, "shape") else len(p1)
    p1 = _check_batch("p1", p1, m)
    e1 = _check_batch("e1", e1, m)
    e2 = _check_batch("e2", e2, m)
    ci = _check_batch("ci", ci, m)
    cj = _check_batch("cj", cj, m)
    length = _edge_length(e1, e2)
    s0 = (e1[:, 0] - p1[:, 0]) * (e2[:, 1] - p1[:, 1]) - (
        e2[:, 0] - p1[:, 0]
    ) * (e1[:, 1] - p1[:, 1])
    d0 = s0 / length

    # determinant gradients w.r.t. the three moving points
    dp1 = np.stack([e1[:, 1] - e2[:, 1], e2[:, 0] - e1[:, 0]], axis=1)
    de1 = np.stack([e2[:, 1] - p1[:, 1], p1[:, 0] - e2[:, 0]], axis=1)
    de2 = np.stack([p1[:, 1] - e1[:, 1], e1[:, 0] - p1[:, 0]], axis=1)

    t_p1 = displacement_matrix(p1, ci)  # (m, 2, 6)
    t_e1 = displacement_matrix(e1, cj)
    t_e2 = displacement_matrix(e2, cj)
    inv_l = 1.0 / length
    e = np.einsum("mij,mi->mj", t_p1, dp1) * inv_l[:, None]
    g = (
        np.einsum("mij,mi->mj", t_e1, de1)
        + np.einsum("mij,mi->mj", t_e2, de2)
    ) * inv_l[:, None]
    return e, g, d0, length


def shear_spring_vectors(
    p1: np.ndarray,
    e1: np.ndarray,
    e2: np.ndarray,
    ratios: np.ndarray,
    ci: np.ndarray,
    cj: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tangential linearisation ``(e_s, g_s, tangent)`` per contact.

    The shear measure is the relative tangential displacement of ``P1``
    against the material point of block ``j`` at edge ratio ``r``:
    ``d_s = e_s·d_i + g_s·d_j`` (zero at step start).
    """
    m = p1.shape[0]
    p1 = _check_batch("p1", p1, m)
    e1 = _check_batch("e1", e1, m)
    e2 = _check_batch("e2", e2, m)
    ci = _check_batch("ci", ci, m)
    cj = _check_batch("cj", cj, m)
    r = check_array("ratios", ratios, dtype=np.float64, shape=(m,))
    edge = e2 - e1
    length = _edge_length(e1, e2)
    tangent = edge / length[:, None]
    t_p1 = displacement_matrix(p1, ci)
    contact_pt = e1 + r[:, None] * edge
    t_cp = displacement_matrix(contact_pt, cj)
    e_s = np.einsum("mij,mi->mj", t_p1, tangent)
    g_s = -np.einsum("mij,mi->mj", t_cp, tangent)
    return e_s, g_s, tangent


@dataclass(frozen=True)
class SpringGeometry:
    """The spring linearisation of one contact table, ``m`` rows.

    ``e, g`` / ``e_s, g_s`` are the ``(m, 6)`` normal / shear vectors of
    blocks ``i`` / ``j``, ``d0`` the ``(m,)`` initial normal gaps and
    ``length`` the ``(m,)`` contact edge lengths.
    """

    e: np.ndarray
    g: np.ndarray
    d0: np.ndarray
    length: np.ndarray
    e_s: np.ndarray
    g_s: np.ndarray

    @classmethod
    def build(
        cls,
        p1: np.ndarray,
        e1: np.ndarray,
        e2: np.ndarray,
        ratios: np.ndarray,
        ci: np.ndarray,
        cj: np.ndarray,
    ) -> "SpringGeometry":
        """Linearise ``m`` contacts given as ``(m, 2)`` point arrays
        (see :func:`normal_spring_vectors`) and ``(m,)`` edge ratios."""
        e, g, d0, length = normal_spring_vectors(p1, e1, e2, ci, cj)
        e_s, g_s, _ = shear_spring_vectors(p1, e1, e2, ratios, ci, cj)
        return cls(e, g, d0, length, e_s, g_s)


def spring_blocks(
    a: np.ndarray,
    b: np.ndarray,
    w: np.ndarray,
    a_s: np.ndarray,
    b_s: np.ndarray,
    ws: np.ndarray | None,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """The spring 6x6 block of every row: ``(0.0 + w a b^T) + ws a_s b_s^T``.

    ``a, b`` / ``a_s, b_s`` are ``(r, 6)`` normal / shear vectors, ``w``
    / ``ws`` the ``(r,)`` weights; ``ws=None`` skips the shear term (no
    spring locked). The ``+ 0.0`` is the accumulation into a zeroed
    block — it turns a ``-0.0`` product into ``+0.0`` and is part of
    the pinned bit pattern. ``out`` / ``scratch`` are optional
    ``(r, 6, 6)`` work arrays; the result is ``out``.
    """
    out = np.einsum("ri,rj->rij", a, b, out=out)
    out *= w[:, None, None]
    out += 0.0
    if ws is not None:
        scratch = np.einsum("ri,rj->rij", a_s, b_s, out=scratch)
        scratch *= ws[:, None, None]
        out += scratch
    return out


def spring_stiffness(
    geometry: SpringGeometry, w: np.ndarray, ws: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(kii, kjj, kij)``: every contact's ``(m, 6, 6)`` blocks under
    the :func:`spring_loads` weights ``w`` / ``ws``."""
    e, g, e_s, g_s = geometry.e, geometry.g, geometry.e_s, geometry.g_s
    return (
        spring_blocks(e, e, w, e_s, e_s, ws),
        spring_blocks(g, g, w, g_s, g_s, ws),
        spring_blocks(e, g, w, e_s, g_s, ws),
    )


def spring_loads(
    geometry: SpringGeometry,
    states: np.ndarray,
    pn: np.ndarray,
    ps: np.ndarray,
    friction_force: np.ndarray,
    shear_sign: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
    """Spring weights and per-contact loads ``(w, ws, fi, fj)``.

    ``states`` is ``(m,)`` int: OPEN (no springs), SLIDE (normal spring
    + friction force pair), LOCK (normal + shear springs); ``pn`` /
    ``ps`` the normal / shear penalties, ``friction_force`` the
    Mohr–Coulomb force magnitude (SLIDE only) and ``shear_sign`` the ±1
    sliding direction along the edge tangent, all ``(m,)``.

    ``w = where(state != OPEN, pn, 0)`` and ``ws = where(state == LOCK,
    ps, 0)`` are the ``(m,)`` normal / shear spring weights (``ws`` is
    ``None`` when no spring is locked); ``fi, fj`` the ``(m, 6)`` load
    contributions.
    """
    m = geometry.d0.shape[0]
    states = check_array("states", states, shape=(m,))
    pn = check_array("pn", pn, dtype=np.float64, shape=(m,))
    ps = check_array("ps", ps, dtype=np.float64, shape=(m,))
    fric = check_array("friction_force", friction_force, dtype=np.float64, shape=(m,))
    sgn = check_array("shear_sign", shear_sign, dtype=np.float64, shape=(m,))

    w = np.where(states != OPEN, pn, 0.0)
    fi = np.zeros((m, 6))
    fj = np.zeros((m, 6))
    fi -= (w * geometry.d0)[:, None] * geometry.e
    fj -= (w * geometry.d0)[:, None] * geometry.g

    ws = None
    locked = states == LOCK
    if locked.any():  # lint: sync-ok[stage-skip] -- host decides whether to launch the locked-shear kernel
        ws = np.where(locked, ps, 0.0)

    sliding = states == SLIDE
    if sliding.any():  # lint: sync-ok[stage-skip] -- host decides whether to launch the sliding-shear kernel
        # friction opposes sliding: force pair along -+ tangent
        mag = np.where(sliding, fric * sgn, 0.0)
        fi -= mag[:, None] * geometry.e_s
        fj -= mag[:, None] * geometry.g_s
    return w, ws, fi, fj
