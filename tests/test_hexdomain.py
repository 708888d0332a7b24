import random

import numpy as np

from eisencf.exact import (
    EisensteinInt,
    F_ZERO,
    FieldElement,
    MINUS_ZETA,
    ZETA_BAR,
    embed,
    j_element,
)
from eisencf.floatpath import ETA_C, S3_C, SQRT3, hex_margin, nearest_digits
from eisencf.hexdomain import _nearest, floor_J, floor_J_candidates, in_U, in_U0


def nearest_digits_search(w, tol=1e-12):
    """Reference: the nine-candidate search around the rounded lattice
    coordinates m = 2x/3, n = y - x/3, keeping the smallest hexagon margin."""
    w = np.asarray(w, dtype=np.complex128)
    x, y = w.real, w.imag / SQRT3
    m0 = np.rint(2.0 * x / 3.0).astype(np.int64)
    n0 = np.rint(y - x / 3.0).astype(np.int64)
    alpha = np.empty_like(w)
    best = np.full(w.shape, np.inf)
    for dm in (0, 1, -1):
        for dn in (0, 1, -1):
            cand = (m0 + dm) * ETA_C + (n0 + dn) * S3_C
            marg = hex_margin(w - cand)
            take = marg < best
            best = np.where(take, marg, best)
            alpha = np.where(take, cand, alpha)
    return alpha, best < -tol


def rand_field(rng, bound=1000):
    return FieldElement(rng.randint(-bound, bound), rng.randint(-bound, bound),
                        rng.randint(1, bound))


class TestBoundaryConvention:
    def test_kept_vertices(self):
        assert in_U(ZETA_BAR)
        assert in_U(MINUS_ZETA)

    def test_excluded_vertices(self):
        for z in (FieldElement(1, 0), FieldElement(-1, 0),
                  FieldElement(1, 1, 2), FieldElement(-1, 1, 2)):
            assert not in_U(z)

    def test_interior(self):
        assert in_U(F_ZERO)
        assert in_U(FieldElement(1, 1, 4))

    def test_top_edge_open_ends(self):
        assert in_U(FieldElement(0, 1, 2))          # midpoint of the top edge
        assert in_U(FieldElement(9, 10, 20))
        assert not in_U(FieldElement(-1, 1, 2))     # left end excluded
        # bottom edge is not part of U away from the kept vertices
        assert not in_U(FieldElement(0, -1, 2))

    def test_kept_slanted_edges(self):
        # x - y = 1 with -1/2 <= y < 0
        assert in_U(FieldElement(3, -1, 4))         # 3/4 - 1/4 r
        assert not in_U(FieldElement(1, 0))          # endpoint y = 0 excluded
        # x + y = -1 with -1/2 <= y < 0
        assert in_U(FieldElement(-3, -1, 4))
        # the opposite slanted edges are excluded
        assert not in_U(FieldElement(-3, 1, 4))
        assert not in_U(FieldElement(3, 1, 4))

    def test_abs_bound_on_u(self):
        rng = random.Random(11)
        seen_eq = 0
        for _ in range(4000):
            z = rand_field(rng)
            if not in_U(z):
                continue
            s = z.abs_sq()
            assert s <= 1
            if s == 1:
                seen_eq += 1
                assert z in (MINUS_ZETA, ZETA_BAR)
        assert in_U(MINUS_ZETA) and MINUS_ZETA.abs_sq() == 1


class TestFloorExamples:
    def test_zero(self):
        assert floor_J(F_ZERO) == EisensteinInt(0, 0)

    def test_two(self):
        # 2 - eta = conj(zeta) is in U while 2 - 3 = -1 and 2 - conj(eta)
        # = zeta are not
        assert floor_J(FieldElement(2, 0)) == EisensteinInt(1, 1)

    def test_five_halves(self):
        assert floor_J(FieldElement(5, 0, 2)) == EisensteinInt(3, 0)

    def test_lattice_points_fix_themselves(self):
        rng = random.Random(12)
        for _ in range(100):
            alpha = j_element(rng.randint(-20, 20), rng.randint(-20, 20))
            assert floor_J(embed(alpha)) == alpha


class TestTiling:
    def test_unique_representative(self):
        rng = random.Random(13)
        for _ in range(20000):
            z = rand_field(rng)
            cands = floor_J_candidates(z)
            assert len(cands) == 1, str(z)
            assert in_U(z - embed(cands[0]))

    def test_vertices_and_edge_midpoints(self):
        # the six vertices of U and its edge midpoints are ties of the
        # nearest-point rounding, translated by elements of J
        ties = [FieldElement(*v) for v in (
            (1, 0, 1), (1, 1, 2), (-1, 1, 2), (-1, 0, 1), (-1, -1, 2), (1, -1, 2),
            (3, 1, 4), (0, 1, 2), (-3, 1, 4), (-3, -1, 4), (0, -1, 2), (3, -1, 4),
        )]
        fallbacks = 0
        for m in range(-2, 3):
            for n in range(-2, 3):
                for t in ties:
                    z = t + embed(j_element(m, n))
                    cands = floor_J_candidates(z)
                    assert len(cands) == 1 and floor_J(z) == cands[0], str(z)
                    # the closed-form point fails U: the search decided
                    m0, n0, _, _ = _nearest(z.a, z.b, z.c)
                    fallbacks += not in_U(z - embed(j_element(m0, n0)))
        assert fallbacks > 0

    def test_equivariance(self):
        rng = random.Random(14)
        for _ in range(500):
            z = rand_field(rng)
            alpha = j_element(rng.randint(-5, 5), rng.randint(-5, 5))
            assert floor_J(z + embed(alpha)) == floor_J(z) + alpha

    def test_voronoi_minimality_in_interior(self):
        # points of the open hexagon round to 0 and are norm-minimal among
        # the 9 candidates
        rng = random.Random(15)
        checked = 0
        while checked < 300:
            z = rand_field(rng, 500)
            if not in_U0(z):
                continue
            checked += 1
            assert floor_J(z) == EisensteinInt(0, 0)
            base = z.abs_sq()
            for dm in (-1, 0, 1):
                for dn in (-1, 0, 1):
                    if dm == dn == 0:
                        continue
                    other = (z - embed(j_element(dm, dn))).abs_sq()
                    assert base <= other


class TestFloatPath:
    """The float rounding that orbits use, against the exact rounding map."""

    def test_membership_bands(self):
        z = np.array([0, 2, complex(0.25, 0.8660254037844386), complex(5.0, 0.8660254)])
        marg = hex_margin(z)
        assert marg[0] < -1e-12                      # inside
        assert marg[1] > 1e-12                       # outside
        assert abs(marg[2]) <= 1e-12                 # on the top edge
        # far outside but near a constraint-line extension is still outside
        assert marg[3] > 1e-12

    def test_margin_matches_stacked_reduce(self):
        # the nested maximum gives the bits of the stacked three-row reduce
        rng = np.random.default_rng(74)
        verts = np.exp(1j * np.pi / 3 * np.arange(6))
        t = np.array([0.0, 0.25, 0.5, 1 / 3, 1.0])
        edges = (verts[:, None] * (1 - t) + np.roll(verts, -1)[:, None] * t).ravel()
        for z in (rng.uniform(-2, 2, 5000) + 1j * rng.uniform(-2, 2, 5000),
                  np.concatenate([edges, -edges, [0j, 2j, -1.5 + 0j]])):
            x, y = z.real, z.imag / SQRT3
            ref = np.maximum.reduce(
                [np.abs(y) - 0.5, np.abs(x + y) - 1.0, np.abs(x - y) - 1.0])
            assert hex_margin(z).tobytes() == ref.tobytes()

    def test_floor_float_matches_exact(self):
        rng = random.Random(17)
        zs = [rand_field(rng, 400) for _ in range(2000)]
        alpha, ok, _band = nearest_digits(np.array([z.approx() for z in zs]))
        assert ok.mean() > 0.95
        for z, a, good in zip(zs, alpha, ok):
            if good:
                assert abs(a - floor_J(z).approx()) < 1e-9, str(z)

    def test_floor_float_band(self):
        _alpha, ok, band = nearest_digits(np.array([1.0 + 0j]))
        assert band[0] and not ok[0]

    def _same_as_search(self, w):
        alpha, ok, band = nearest_digits(w)
        ref_alpha, ref_ok = nearest_digits_search(w)
        assert np.array_equal(ok, ref_ok)
        assert not (ok & band).any()
        # bitwise, as the orbits' digits and residuals depend on it
        assert np.array_equal(alpha[ok].view(np.float64), ref_alpha[ok].view(np.float64))
        return ok

    def test_decoder_matches_search_on_random_points(self):
        rng = np.random.default_rng(71)
        for scale in (1.0, 3.0, 40.0, 1e4, 1e9):
            w = scale * (rng.uniform(-1, 1, 50000) + 1j * rng.uniform(-1, 1, 50000))
            assert self._same_as_search(w).mean() > 0.999

    def test_decoder_matches_search_on_j_translates(self):
        rng = np.random.default_rng(72)
        u = rng.uniform(-1, 1, 40000) + 1j * rng.uniform(-1, 1, 40000)
        u = u[hex_margin(u) < 0]
        m = rng.integers(-10**6, 10**6, u.size)
        n = rng.integers(-10**6, 10**6, u.size)
        for w in (u + m * ETA_C + n * S3_C, u + (m % 7) * ETA_C + (n % 5 - 2) * S3_C):
            assert self._same_as_search(w).mean() > 0.999

    def test_decoder_matches_search_near_the_hexagon_edges(self):
        rng = np.random.default_rng(73)
        verts = np.exp(1j * np.pi / 3 * np.arange(6))
        t = rng.uniform(0, 1, (6, 200))
        edges = (verts[:, None] * (1 - t) + np.roll(verts, -1)[:, None] * t).ravel()
        base = np.concatenate([verts, edges, 0.5 * (verts + np.roll(verts, -1))])
        dist = 10.0 ** rng.uniform(-13, -9, (base.size, 8))
        phase = np.exp(2j * np.pi * rng.uniform(0, 1, (base.size, 8)))
        w = (base[:, None] + dist * phase).ravel()
        m = rng.integers(-50, 50, w.size)
        n = rng.integers(-50, 50, w.size)
        for pts in (w, w + m * ETA_C + n * S3_C):
            ok = self._same_as_search(pts)
            assert 0 < ok.sum() < ok.size
