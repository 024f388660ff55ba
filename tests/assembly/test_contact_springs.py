import numpy as np
import pytest
from spring_reference import contact_contributions

from repro.assembly.contact_springs import (
    LOCK,
    OPEN,
    SLIDE,
    SpringGeometry,
    normal_spring_vectors,
    shear_spring_vectors,
    spring_blocks,
)

# Canonical setup: vertex of block i touching the top edge of block j.
# Block j occupies [0,2]x[-1,0] (CCW); its top edge CCW runs (2,0)->(0,0);
# contact convention reverses it: E1=(0,0), E2=(2,0); outside (y>0) positive.
P1 = np.array([[1.0, 0.1]])
E1 = np.array([[0.0, 0.0]])
E2 = np.array([[2.0, 0.0]])
CI = np.array([[1.0, 0.6]])  # centroid of the upper block
CJ = np.array([[1.0, -0.5]])
R = np.array([0.5])


class TestNormalSpringVectors:
    def test_gap_sign(self):
        _, _, d0, length = normal_spring_vectors(P1, E1, E2, CI, CJ)
        assert d0[0] == pytest.approx(0.1)  # above the edge -> positive
        assert length[0] == pytest.approx(2.0)

    def test_penetration_sign(self):
        p_pen = np.array([[1.0, -0.05]])
        _, _, d0, _ = normal_spring_vectors(p_pen, E1, E2, CI, CJ)
        assert d0[0] == pytest.approx(-0.05)

    def test_linearisation_matches_fd(self):
        # DDA linearises the determinant S with the edge length held at its
        # step-start value (exact up to terms bilinear in the increments):
        # S_new / l_old ~ d0 + e.d_i + g.d_j
        e, g, d0, length = normal_spring_vectors(P1, E1, E2, CI, CJ)
        rng = np.random.default_rng(0)
        di = rng.normal(0, 1e-6, 6)
        dj = rng.normal(0, 1e-6, 6)
        from repro.core.displacement import displace_points
        from repro.geometry.distance import signed_triangle_area2

        p1n = displace_points(P1, CI[0], di)
        e1n = displace_points(E1, CJ[0], dj)
        e2n = displace_points(E2, CJ[0], dj)
        s_new = signed_triangle_area2(p1n, e1n, e2n)[0]
        predicted = d0[0] + e[0] @ di + g[0] @ dj
        assert s_new / length[0] == pytest.approx(predicted, abs=1e-11)

    def test_normal_direction_unit(self):
        # moving P1 by +1 normal unit changes d_n by +1:
        # e's translational part is the unit normal
        e, _, _, _ = normal_spring_vectors(P1, E1, E2, CI, CJ)
        np.testing.assert_allclose(e[0, :2], [0.0, 1.0], atol=1e-12)

    def test_action_reaction_translation(self):
        # translating both blocks together leaves d_n unchanged:
        # e and g translational parts cancel
        e, g, _, _ = normal_spring_vectors(P1, E1, E2, CI, CJ)
        np.testing.assert_allclose(e[0, :2] + g[0, :2], 0.0, atol=1e-12)

    def test_degenerate_edge_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            normal_spring_vectors(P1, E1, E1, CI, CJ)


class TestShearSpringVectors:
    def test_tangent_unit(self):
        _, _, t = shear_spring_vectors(P1, E1, E2, R, CI, CJ)
        np.testing.assert_allclose(t[0], [1.0, 0.0])

    def test_translation_relative(self):
        # translating block i by +x creates +1 shear; block j by +x cancels
        es, gs, _ = shear_spring_vectors(P1, E1, E2, R, CI, CJ)
        dx = np.array([1.0, 0, 0, 0, 0, 0])
        assert es[0] @ dx == pytest.approx(1.0)
        assert gs[0] @ dx == pytest.approx(-1.0)

    def test_linearisation_matches_fd(self):
        es, gs, t = shear_spring_vectors(P1, E1, E2, R, CI, CJ)
        rng = np.random.default_rng(1)
        di = rng.normal(0, 1e-6, 6)
        dj = rng.normal(0, 1e-6, 6)
        from repro.core.displacement import displace_points

        p1n = displace_points(P1, CI[0], di)[0]
        cp = E1[0] + R[0] * (E2[0] - E1[0])
        cpn = displace_points(cp[None, :], CJ[0], dj)[0]
        measured = t[0] @ ((p1n - P1[0]) - (cpn - cp))
        predicted = es[0] @ di + gs[0] @ dj
        assert measured == pytest.approx(predicted, abs=1e-14)


class TestContactContributions:
    def _contrib(self, states, fric=0.0, sgn=1.0, pn=100.0, ps=40.0):
        return contact_contributions(
            SpringGeometry.build(P1, E1, E2, R, CI, CJ),
            np.array([states]),
            np.array([pn]),
            np.array([ps]),
            np.array([fric]),
            np.array([sgn]),
        )

    def test_open_contributes_nothing(self):
        kii, kjj, kij, fi, fj = self._contrib(OPEN)
        for arr in (kii, kjj, kij, fi, fj):
            assert np.all(arr == 0.0)

    def test_lock_stiffness_symmetric_psd(self):
        kii, kjj, kij, _, _ = self._contrib(LOCK)
        np.testing.assert_allclose(kii[0], kii[0].T, atol=1e-12)
        np.testing.assert_allclose(kjj[0], kjj[0].T, atol=1e-12)
        # the 12x12 pair matrix must be PSD
        pair = np.block([[kii[0], kij[0]], [kij[0].T, kjj[0]]])
        assert (np.linalg.eigvalsh(pair) >= -1e-9).all()

    def test_lock_has_shear_stiffness_slide_does_not(self):
        kii_lock, *_ = self._contrib(LOCK)
        kii_slide, *_ = self._contrib(SLIDE)
        # tangential translational stiffness present only when locked
        assert kii_lock[0][0, 0] > kii_slide[0][0, 0]

    def test_penetration_load_pushes_apart(self):
        # penetrating vertex: load should push block i up (+y), block j down
        p_pen = np.array([[1.0, -0.02]])
        _, _, _, fi, fj = contact_contributions(
            SpringGeometry.build(p_pen, E1, E2, R, CI, CJ),
            np.array([LOCK]), np.array([100.0]), np.array([40.0]),
            np.array([0.0]), np.array([1.0]),
        )
        assert fi[0, 1] > 0  # upward on the penetrating block
        assert fj[0, 1] < 0

    def test_friction_force_pair_opposes_sliding(self):
        _, _, _, fi, fj = self._contrib(SLIDE, fric=5.0, sgn=1.0)
        # block i slides +x: friction pulls it -x, pushes j +x
        assert fi[0, 0] == pytest.approx(-5.0)
        assert fj[0, 0] == pytest.approx(5.0)

    def test_friction_sign_flips(self):
        # only the friction part of the load flips with the sliding sign;
        # subtract the zero-friction (normal-spring) load first
        _, _, _, fi_base, _ = self._contrib(SLIDE, fric=0.0, sgn=1.0)
        _, _, _, fi_pos, _ = self._contrib(SLIDE, fric=5.0, sgn=1.0)
        _, _, _, fi_neg, _ = self._contrib(SLIDE, fric=5.0, sgn=-1.0)
        np.testing.assert_allclose(
            fi_pos[0] - fi_base[0], -(fi_neg[0] - fi_base[0])
        )

    def test_empty_batch(self):
        out = contact_contributions(
            SpringGeometry.build(
                np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 2)),
                np.zeros(0), np.zeros((0, 2)), np.zeros((0, 2)),
            ),
            np.zeros(0, dtype=int), np.zeros(0), np.zeros(0),
            np.zeros(0), np.zeros(0),
        )
        assert all(a.shape[0] == 0 for a in out)

    def test_mixed_batch_matches_individual(self):
        p1 = np.vstack([P1, P1 + [0.3, 0.0]])
        e1 = np.vstack([E1, E1])
        e2 = np.vstack([E2, E2])
        r = np.array([0.5, 0.65])
        ci = np.vstack([CI, CI])
        cj = np.vstack([CJ, CJ])
        states = np.array([LOCK, SLIDE])
        out_batch = contact_contributions(
            SpringGeometry.build(p1, e1, e2, r, ci, cj), states,
            np.array([100.0, 100.0]), np.array([40.0, 40.0]),
            np.array([0.0, 2.0]), np.array([1.0, 1.0]),
        )
        for k in range(2):
            out_one = contact_contributions(
                SpringGeometry.build(
                    p1[k : k + 1], e1[k : k + 1], e2[k : k + 1],
                    r[k : k + 1], ci[k : k + 1], cj[k : k + 1],
                ),
                states[k : k + 1],
                np.array([100.0]), np.array([40.0]),
                np.array([0.0, 2.0])[k : k + 1], np.array([1.0]),
            )
            for a, b in zip(out_batch, out_one):
                np.testing.assert_allclose(a[k], b[0], atol=1e-12)


class TestSpringBlocks:
    """The one place the spring-block arithmetic lives, held to the
    formula written out — scale *after* the outer product, accumulate
    into zeros — through the sign bit."""

    @staticmethod
    def _written_out(a, b, w, a_s, b_s, ws):
        out = np.zeros((a.shape[0], 6, 6))
        out += w[:, None, None] * (a[:, :, None] * b[:, None, :])
        if ws is not None:
            out += ws[:, None, None] * (a_s[:, :, None] * b_s[:, None, :])
        return out

    @pytest.mark.parametrize("shear", [False, True])
    @pytest.mark.parametrize("rows", [0, 1, 257])
    def test_equals_written_out_formula(self, rows, shear):
        rng = np.random.default_rng(rows)
        a, b, a_s, b_s = (
            rng.standard_normal((rows, 6)) * 10.0 ** rng.integers(-3, 4, (rows, 1))
            for _ in range(4)
        )
        w = np.where(rng.random(rows) < 0.3, 0.0, rng.random(rows) * 1e9)
        ws = rng.random(rows) * 1e8 if shear else None
        expected = self._written_out(a, b, w, a_s, b_s, ws)
        for work in (
            {},
            dict(out=np.full((rows, 6, 6), np.nan),
                 scratch=np.full((rows, 6, 6), np.nan)),
        ):
            got = spring_blocks(a, b, w, a_s, b_s, ws, **work)
            np.testing.assert_array_equal(
                got.view(np.uint64), expected.view(np.uint64)
            )
        if rows > 1:
            assert np.signbit(w[:, None, None] * (a[:, :, None] * b[:, None, :]))[
                w == 0.0
            ].any()
