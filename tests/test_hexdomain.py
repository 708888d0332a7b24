import random

import numpy as np
import pytest

from eisencf.exact import (
    EisensteinInt,
    F_ZERO,
    FieldElement,
    MINUS_ZETA,
    ZETA_BAR,
    embed,
    j_element,
)
from eisencf.floatpath import ETA_C, S3_C, SQRT3, _alive, _stepper, hex_margin, t_step
from eisencf.hexdomain import _nearest, floor_J, in_U, in_U0
from oracles import floor_J_candidates


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


def t_step_coordinatewise(z, tol=1e-12):
    """Reference: t_step with each coset of J rounded on its own, the digit
    cast to integers and formed as m*eta + n*sqrt(-3)."""
    z = np.asarray(z, dtype=np.complex128)
    with np.errstate(all="ignore"):
        w = 1.0 / z
        x = w.real
        y = w.imag / SQRT3
        p0, q0 = np.rint(x / 3.0), np.rint(y)
        p1, q1 = np.rint((x - 1.5) / 3.0), np.rint(y - 0.5)
        one = ((x - 3.0 * p1 - 1.5) ** 2 + 3.0 * (y - q1 - 0.5) ** 2
               < (x - 3.0 * p0) ** 2 + 3.0 * (y - q0) ** 2)
        p = np.where(one, p1, p0)
        m = (2.0 * p + one).astype(np.int64)
        n = (np.where(one, q1, q0) - p).astype(np.int64)
        alpha = m * ETA_C + n * S3_C
        marg = hex_margin(w - alpha)
        alive = (np.abs(z) > 1e-15) & (marg < -tol)
        z_next = np.where(alive, w - alpha, 0.0)
    return alpha, z_next, alive


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
        alpha, _, alive = t_step(1.0 / np.array([z.approx() for z in zs]))
        assert alive.mean() > 0.95
        for z, a, good in zip(zs, alpha, alive):
            if good:
                assert abs(a - floor_J(z).approx()) < 1e-9, str(z)

    def test_floor_float_band(self):
        # 1 lies on an edge of the hexagon around the digit 0
        alpha, z_next, alive = t_step(np.array([1.0 + 0j]))
        assert not alive[0] and z_next[0] == 0
        assert abs(hex_margin(1.0 - alpha)[0]) <= 1e-12

    def test_beyond_float_resolution_is_never_ok(self):
        # digits are formed in floats, which stop resolving J at 2^52; an
        # entry is alive only for |z| > 1e-15, |w| < 1e15, and a non-finite
        # entry is never alive, and raises no RuntimeWarning
        w = np.array([2.0**52, 3.0 * 2**60, 1e300, 2.0**53 * ETA_C, 1e300j, 1.5e15 + 0.25,
                      3e14 + 0.25, np.nan, np.inf, complex(0.0, -np.inf), complex(1e308, 1e308)])
        with np.errstate(all="ignore"):
            z = 1.0 / w
        _alpha, _z_next, alive = t_step(z)
        assert alive.tolist() == [False] * 6 + [True] + [False] * 4

    def test_infinite_points_are_dead(self):
        # 1/inf = 0 rounds to the digit 0 with residual 0, inside the hexagon
        _alpha, z_next, alive = t_step(np.array([np.inf, -np.inf, complex(np.inf, 1)]))
        assert not alive.any() and (z_next == 0).all()

    def _same_as_search(self, w):
        # t_step rounds 1/z, bitwise the argument handed to the search
        z = 1.0 / w
        alpha, z_next, alive = t_step(z)
        ref_alpha, ref_ok = nearest_digits_search(1.0 / z)
        assert np.array_equal(alive, ref_ok & (np.abs(z) > 1e-15))
        # bitwise, as the orbits' digits and residuals depend on it
        assert np.array_equal(alpha[alive].view(np.float64), ref_alpha[alive].view(np.float64))
        assert np.array_equal(z_next[alive], (1.0 / z - alpha)[alive])
        return alive

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


class TestStepBitwise:
    """t_step against the coordinate-wise reference, bit for bit: the digit
    on live entries, the next point and the alive mask."""

    @staticmethod
    def _same(z, tol=1e-12):
        alpha, z_next, alive = t_step(z, tol)
        ref_alpha, ref_next, ref_alive = t_step_coordinatewise(z, tol)
        assert np.array_equal(alive, ref_alive)
        assert alpha[alive].tobytes() == ref_alpha[alive].tobytes()
        assert z_next.tobytes() == ref_next.tobytes()
        return alive, z_next

    def test_random_points_of_u(self):
        rng = np.random.default_rng(81)
        z = rng.uniform(-1, 1, 60000) + 1j * rng.uniform(-SQRT3 / 2, SQRT3 / 2, 60000)
        alive, _ = self._same(z[hex_margin(z) < 0])
        assert alive.mean() > 0.999

    def test_inverse_within_1e_13_of_a_hexagon_edge(self):
        rng = np.random.default_rng(82)
        verts = np.exp(1j * np.pi / 3 * np.arange(6))
        t = rng.uniform(0, 1, (6, 500))
        edges = (verts[:, None] * (1 - t) + np.roll(verts, -1)[:, None] * t).ravel()
        off = rng.choice([-1.0, 1.0], edges.size) * 10.0 ** rng.uniform(-16, -13, edges.size)
        normal = np.exp(1j * (np.pi / 6 + np.pi / 3 * np.repeat(np.arange(6), 500)))
        m = rng.integers(-40, 40, edges.size)
        n = rng.integers(-40, 40, edges.size)
        w = edges + off * normal + m * ETA_C + n * S3_C
        w = w[np.abs(w) > 1.5]
        for tol in (1e-12, 1e-14, 1e-16):
            alive, _ = self._same(1.0 / w, tol)
            if tol == 1e-16:
                assert 0 < alive.sum() < alive.size

    def test_near_ties_on_every_voronoi_edge(self):
        # w on each edge of U, which J's Voronoi cells share: two of them
        # tie rounding within a lattice, four tie the choice of lattice, by
        # 3 dt^2 + du^2; moved 0 and 1e-16 ... 1e-9 off the edge, and by a
        # digit of J
        rng = np.random.default_rng(84)
        verts = np.exp(1j * np.pi / 3 * np.arange(7))
        t = np.concatenate([[0.5], rng.uniform(0.01, 0.99, 40)])
        edges = verts[:-1, None] * (1 - t) + verts[1:, None] * t
        normal = np.exp(1j * (np.pi / 6 + np.pi / 3 * np.arange(6)))[:, None]
        off = np.concatenate([[0.0], 10.0 ** np.arange(-16, -8.5)])
        off = np.concatenate([off, -off[1:]])
        m = rng.integers(-30, 30, (6, t.size, 1))
        n = rng.integers(-30, 30, (6, t.size, 1))
        w = ((edges + off[:, None, None] * normal).transpose(1, 2, 0)
             + m * ETA_C + n * S3_C).ravel()
        w = w[np.abs(w) > 1.5]
        for tol in (1e-12, 1e-14, 1e-16):
            alive, _ = self._same(1.0 / w, tol)
            assert 0 < alive.sum() < alive.size

    def test_zero_and_the_underflow_threshold(self):
        phase = np.exp(1j * np.array([0.0, 0.3, 1.0, 2.5, -2.0]))
        mods = np.array([0.0, 5e-324, 1e-300, 9.999999999999999e-16, 1e-15,
                         1.0000000000000002e-15, 1.1e-15, 1e-14])
        z = np.concatenate([(mods[:, None] * phase).ravel(),
                            [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]])
        alive, z_next = self._same(z)
        assert not alive[:len(phase) * 4].any()
        assert (z_next[~alive] == 0).all()

    def test_orbits_at_a_wide_band(self):
        # at tol 1e-3 many entries fall in the band on every step
        rng = np.random.default_rng(83)
        z = rng.uniform(-1, 1, 4000) + 1j * rng.uniform(-SQRT3 / 2, SQRT3 / 2, 4000)
        z = z[hex_margin(z) < 0][:2000]
        dead = 0
        for _ in range(30):
            alive, z = self._same(z, 1e-3)
            dead += int((~alive).sum())
        assert dead > 1000

    @pytest.mark.parametrize("width", [1, 64, 129])
    def test_a_bound_step_keeps_nothing_of_its_last_call(self, width):
        # a step reuses its buffers: on B after A it must give what the
        # reference gives on B alone.  A's inverses round to both cosets of
        # J, B's all to J's unshifted lattice, so a p, q or lattice choice
        # that B's step failed to overwrite would be A's
        rng = np.random.default_rng(85 + width)
        u = rng.uniform(-1, 1, (2, 4 * width)) + 1j * rng.uniform(-SQRT3 / 2, SQRT3 / 2,
                                                                   (2, 4 * width))
        u = [v[hex_margin(v) < -1e-3][:width] for v in u]
        m = rng.integers(-40, 40, (2, width))
        n = rng.integers(-40, 40, (2, width))
        a = 1.0 / (ETA_C + 0.5 * u[0] + m[0] * ETA_C + n[0] * S3_C)
        b = 1.0 / (0.5 * u[1] + m[1] * 2 * ETA_C + n[1] * S3_C + 3.0)
        for tol in (1e-12, 1e-16):
            rows = np.empty((2, 1, width), dtype=np.complex128)
            step = _stepper(rows)
            with np.errstate(all="ignore"):
                for z in (a, b):
                    rows[0, 0] = z
                    alpha = step(0)
            alive = _alive(b, rows[1, 0], tol)
            ref_alpha, ref_next, ref_alive = t_step_coordinatewise(b, tol)
            assert np.array_equal(alive, ref_alive)
            assert alpha[alive].tobytes() == ref_alpha[alive].tobytes()
            assert np.where(alive, rows[1, 0], 0.0).tobytes() == ref_next.tobytes()
