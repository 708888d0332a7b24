import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from eisencf.exact import (
    ETAS,
    SQRT3,
    F_ZERO,
    FieldElement,
    MINUS_ZETA,
    ZETA,
    ZETA_BAR,
    embed,
)
from eisencf.hexdomain import DomainError, in_U
from eisencf.regions import (
    HEX_OPEN,
    INSIDE,
    UNIT_CIRCLE_GT,
    BoundaryPoint,
    Primitive,
    Region,
    build_catalog,
    cell_of,
    circle,
    classify_cells_complex,
    half_plane,
    _disk,
    _sextant_tables,
)
from eisencf.verifier import DEPTH, U0_BOX
from oracles import rational_points_on, scale_float_reference

CAT = build_catalog()
ZETA_F = FieldElement(1, 1, 2)


def classify_xy_loop(reg, x, y, tol=1e-12):
    """Reference: +1 inside, 0 within the boundary band, -1 outside, one
    primitive at a time; `Region.inside_xy` is its == 1."""
    out = np.ones(np.shape(x), dtype=np.int8)
    band = np.zeros(np.shape(x), dtype=bool)
    for p in reg.prims:
        v = p.qq * (x * x + 3.0 * y * y) + p.bx * x + p.by * y + p.dd
        s = p.scale_float() * tol
        if p.rel in ("<", "<="):
            out = np.where(v > s, -1, out)
        elif p.rel in (">", ">="):
            out = np.where(v < -s, -1, out)
        else:
            out = np.where(np.abs(v) > s, -1, out)
        band |= np.abs(v) <= s
    return np.where((out == 1) & band, 0, out)


def classify_cells_loop(z, tol=1e-12):
    """Reference: every point against all 36 cells."""
    z = np.asarray(z)
    x, y = z.real, z.imag / SQRT3
    idx = np.full(z.shape, -1, dtype=np.int64)
    count = np.zeros(z.shape, dtype=np.int64)
    for (k, l), reg in CAT.v_cells.items():
        inside = classify_xy_loop(reg, x, y, tol) == 1
        idx = np.where(inside, 6 * (k - 1) + (l - 1), idx)
        count += inside
    idx[count != 1] = -1
    return idx


def points_near_curve(p, rng, n=40):
    """Float points on the curve of a primitive and at 1e-13..1e-11 off it."""
    if p.qq:
        cx, cy, r_sq = p.circle_data()
        t = rng.uniform(0, 2 * math.pi, n)
        r = math.sqrt(float(r_sq))
        on, normal = complex(float(cx), float(cy) * SQRT3) + r * np.exp(1j * t), np.exp(1j * t)
    else:
        g = complex(p.bx, p.by / SQRT3)
        g /= abs(g)
        base = -p.dd * g / math.hypot(p.bx, p.by / SQRT3)
        on, normal = base + rng.uniform(-2, 2, n) * 1j * g, np.full(n, g)
    off = np.array([0.0, 1e-13, -1e-13, 1e-12, -1e-12, 1.01e-12, -1.01e-12, 1e-11])
    return (on[:, None] + off * normal[:, None]).ravel()


def rand_field(rng, bound=1000, den=997):
    return FieldElement(rng.randint(-bound, bound), rng.randint(-bound, bound),
                        rng.randint(1, den))


def rotate(z, times):
    for _ in range(times % 6):
        z = ZETA_F * z
    return z


class TestValueSemantics:
    # as for EisensteinInt in test_exact: equality, hash and repr as a frozen
    # dataclass has them, so no set order, message or artifact moves (the
    # repr of every catalogue primitive is pinned by test_catalog_digest)
    def test_primitive(self):
        p = Primitive(-2, 4, 0, 6, "<")
        assert (p.qq, p.bx, p.by, p.dd, p.rel) == (1, -2, 0, -3, ">")
        assert hash(p) == hash((1, -2, 0, -3, ">"))
        assert p == Primitive(1, -2, 0, -3, ">") and p != Primitive(1, -2, 0, -3, "<")
        assert (p == (1, -2, 0, -3, ">")) is False and p.__eq__(p.rel) is NotImplemented
        assert repr(p) == "Primitive(qq=1, bx=-2, by=0, dd=-3, rel='>')"

    def test_region(self):
        r = Region("R", (half_plane(0, 1, 0, "<"),))
        assert hash(r) == hash(("R", r.prims))
        assert r == Region("R", (Primitive(0, 0, 1, 0, "<"),)) and r != Region("S", r.prims)
        assert (r == ("R", r.prims)) is False and r.__eq__(CAT) is NotImplemented
        assert repr(r) == "Region(name='R', prims=(Primitive(qq=0, bx=0, by=1, dd=0, rel='<'),))"


class TestCatalogExamples:
    def test_dual_cell_six(self):
        reg = CAT.v_star[(6, 1)]
        assert len(reg.prims) == 2
        assert reg.contains(FieldElement(3, 0))
        assert not reg.contains(FieldElement(1, 0))
        # |z - eta| > 1 excludes eta itself
        assert not reg.contains(embed(ETAS[1]))

    def test_dual_cell_one(self):
        reg = CAT.v_star[(1, 1)]
        assert reg.contains(FieldElement(3, 0))
        assert not reg.contains(FieldElement(1, 0))
        assert not reg.contains(FieldElement(5, 1, 4))  # inside eta/2 disk

    def test_lens_cell_example(self):
        p = FieldElement.from_xy(Fraction(3, 4), Fraction(1, 12))
        assert CAT.v_cells[(4, 1)].contains(p)

    def test_segment_five(self):
        reg = CAT.segments[5]
        assert reg.contains(FieldElement(1, 0, 3))
        assert not reg.contains(FieldElement(1, 0))      # endpoint excluded
        assert not reg.contains(FieldElement(1, 1, 3))   # off the axis

    def test_catalog_digest(self):
        # name and primitives of every catalogue region, pinned so that a
        # rewrite of build_catalog cannot move one of them
        lines = [f"u0|{CAT.u0.name}|{CAT.u0.prims}"]
        for fam in ("u_cells", "v_cells", "v_star", "segments", "s_sets"):
            for key, reg in sorted(getattr(CAT, fam).items()):
                lines.append(f"{fam}{key}|{reg.name}|{reg.prims}")
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "801b4d5c899567e4af9bd0a3d6c405f1356527ee3f93c954c0decc19e1f6e46a")

    def test_cell_count(self):
        assert len(CAT.v_cells) == 36
        assert len(CAT.v_star) == 36
        assert len(CAT.u_cells) == 30
        assert len(CAT.segments) == 12
        assert len(CAT.s_sets) == 8


H, THIRD, TWO_THIRDS = Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)
C_S3 = circle(0, H, Fraction(1, 4), ">")
C_ETA = circle(Fraction(3, 4), Fraction(1, 4), Fraction(1, 4), ">")
C_ETA_BIG = circle(Fraction(3, 2), H, 1, ">")


class TestMirrorBuilt:
    """The regions the catalogue builds by symmetry, against the hand-written
    definitions that it once listed."""

    # the listed primitives of the cells and dual cells at l = 1
    HAND_SETS = {
        ("v_cells", 5): HEX_OPEN + (_disk(2, THIRD, "<"), _disk(1, TWO_THIRDS, "<")),
        ("v_star", 3): (UNIT_CIRCLE_GT, C_S3, C_ETA),
        ("v_star", 5): (UNIT_CIRCLE_GT, C_ETA_BIG, C_S3),
    }
    # V_{3,1} as listed: one of its two sextant lines is not the mirror image
    # of a quadrant line of V_{2,1}, so the two are proved equal as sets
    HAND_V31 = HEX_OPEN + (_disk(1, TWO_THIRDS, ">"), _disk(6, THIRD, ">"),
                           half_plane(0, 1, 0, ">"), half_plane(-1, 1, 0, "<"))
    # L2, L3, L5, L6 as listed, with the ends (x, y) of each segment
    HAND_EDGES = {
        2: ((half_plane(1, 1, -1, "=="), half_plane(0, 1, -H, ">"), half_plane(0, 1, 0, "<")),
            (-1, 0), (-H, -H)),
        3: ((half_plane(1, -1, 1, "=="), half_plane(0, 1, -H, ">"), half_plane(0, 1, 0, "<")),
            (1, 0), (H, -H)),
        5: ((half_plane(0, 1, 0, "=="), half_plane(1, 0, -1, ">"), half_plane(1, 0, 1, "<")),
            (-1, 0), (1, 0)),
        6: ((half_plane(1, 1, 0, "=="), half_plane(1, 0, -H, ">"), half_plane(1, 0, H, "<")),
            (-H, H), (H, -H)),
    }

    def test_equal_primitive_sets(self):
        for (fam, k), prims in self.HAND_SETS.items():
            hand = Region("hand", prims)
            for l in range(1, 7):
                got = getattr(CAT, fam)[(k, l)]
                assert set(got.prims) == set(hand.rotate(l - 1).prims), (fam, k, l)

    def test_v31_equals_the_listed_cell(self):
        hand, built = Region("hand", self.HAND_V31), CAT.v_cells[(3, 1)]
        for a, b in ((hand, built), (built, hand)):
            res = a.excess(b, U0_BOX, 12)
            assert res.fails == 0 and res.example is None
            assert res.residue <= Fraction(4, 10**7)

    def test_edges_equal_the_listed_segments(self):
        rng = random.Random(44)
        for j, (prims, end1, end2) in self.HAND_EDGES.items():
            hand, built = Region("hand", prims), CAT.segments[j]
            assert built.name == f"L{j}" and built.prims[0] == prims[0]
            ends = [FieldElement.from_xy(Fraction(x), Fraction(y)) for x, y in (end1, end2)]
            mid = FieldElement.from_xy(*((Fraction(a) + b) / 2 for a, b in zip(end1, end2)))
            for reg in (hand, built):
                assert not any(reg.contains(e) for e in ends) and reg.contains(mid), j
            ts = [Fraction(rng.randint(-400, 400), rng.randint(1, 200)) for _ in range(200)]
            for z in rational_points_on(prims[0], ts):
                assert hand.contains(z) == built.contains(z), (j, str(z))


class TestCellOf:
    def test_example_cell(self):
        p = FieldElement.from_xy(Fraction(3, 4), Fraction(1, 12))
        assert cell_of(p) == (4, 1)
        assert cell_of(ZETA_F * p) == (4, 2)

    def test_origin_is_boundary(self):
        # and so are the special vertices, the other points where an orbit ends
        for z in (F_ZERO, MINUS_ZETA, ZETA_BAR):
            with pytest.raises(BoundaryPoint):
                cell_of(z)

    def test_outside(self):
        with pytest.raises(DomainError):
            cell_of(FieldElement(5, 0))


class TestExcess:
    def test_thin_counterexample_found_at_the_final_depth(self):
        # no box of depth 3 (height 1/8) fits in the strip 1/32 < y < 3/32,
        # so only the centres of the final boxes, at y = 1/16, show that the
        # strip is not below y = 0
        strip = Region("strip", (half_plane(0, 1, Fraction(1, 32), ">"),
                                 half_plane(0, 1, Fraction(3, 32), "<")))
        below = Region("below", (half_plane(0, 1, 0, "<"),))
        res = strip.excess(below, (0, 1, 0, 1), 3)
        assert (res.residue, res.fails) == (Fraction(1, 8), 8)
        assert res.example == FieldElement.from_xy(Fraction(1, 16), Fraction(1, 16))
        *_, tree = strip.box_tree(below, (0, 1, 0, 1), 3)
        assert INSIDE not in (verdict for verdict, *_ in tree)
        assert strip.excess(None, (0, 1, 0, 1), 3) == res


class TestPartition:
    def test_exactly_one_cell_off_boundary(self):
        rng = random.Random(31)
        boundary = 0
        for _ in range(20000):
            z = rand_field(rng)
            if not in_U(z):
                continue
            hits = [kl for kl, reg in CAT.v_cells.items() if reg.contains(z)]
            if len(hits) == 0:
                closures = [kl for kl, reg in CAT.v_cells.items()
                            if reg.contains(z, closed=True)]
                assert closures, f"{z} uncovered"
                boundary += 1
            else:
                assert len(hits) == 1, (str(z), hits)
        # rational sample points rarely sit on a cell boundary
        assert boundary < 100

    def test_cells_pairwise_disjoint_on_box_trees(self):
        # adjacent cells share a curve with opposite sides; every other pair
        # is proved on a box tree over U0 that holds no point of both
        by_rows = 0
        for (ka, a), (kb, b) in itertools.combinations(CAT.v_cells.items(), 2):
            rows_b = {r[:4] for r in b._ints}
            by_rows += any((-q, -x, -y, -d) in rows_b for q, x, y, d, _ in a._ints)
            res = Region("both", a.prims + b.prims).excess(None, U0_BOX, DEPTH)
            assert res.fails == 0 and res.example is None, (ka, kb)
        assert by_rows == 141

    def test_rotation_equivariance(self):
        rng = random.Random(32)
        for _ in range(400):
            z = rand_field(rng)
            k = rng.randint(1, 6)
            l = rng.randint(2, 6)
            assert (CAT.v_cells[(k, l)].contains(rotate(z, l - 1))
                    == CAT.v_cells[(k, 1)].contains(z))
            assert (CAT.v_star[(k, l)].contains(rotate(z, l - 1))
                    == CAT.v_star[(k, 1)].contains(z))
            ku = rng.randint(1, 5)
            assert (CAT.u_cells[(ku, l)].contains(rotate(z, l - 1))
                    == CAT.u_cells[(ku, 1)].contains(z))

    def test_u_cells_are_cell_unions(self):
        # membership in a coarse cell is decided by the fine cell alone
        rng = random.Random(33)
        constituents: dict[tuple, set] = {kl: set() for kl in CAT.u_cells}
        samples = []
        for _ in range(4000):
            z = rand_field(rng)
            try:
                fine = cell_of(z)
            except (BoundaryPoint, DomainError):
                continue
            samples.append((z, fine))
        for ukl, ureg in CAT.u_cells.items():
            inside = {f for z, f in samples if ureg.contains(z)}
            outside = {f for z, f in samples if not ureg.contains(z)}
            assert not (inside & outside), (ukl, inside & outside)

    def test_classify_cells_vectorized_matches_exact(self):
        rng = random.Random(34)
        pts = []
        cells = []
        while len(pts) < 300:
            z = rand_field(rng)
            try:
                kl = cell_of(z)
            except (BoundaryPoint, DomainError):
                continue
            pts.append(z.approx())
            cells.append(6 * (kl[0] - 1) + (kl[1] - 1))
        got = classify_cells_complex(np.array(pts))
        assert (got == np.array(cells)).all()


class TestDualRelations:
    def test_vstar_2_equals_rotated_3(self):
        rng = random.Random(35)
        for _ in range(3000):
            z = rand_field(rng, 4000, 700)
            l = rng.randint(1, 6)
            lm = l - 1 if l > 1 else 6
            assert (CAT.v_star[(2, l)].contains(z)
                    == CAT.v_star[(3, lm)].contains(z))

    def test_far_ring_inside_every_dual_cell(self):
        # (sqrt(3) + 1)^2 = 4 + 2 sqrt(3) < 7.47
        rng = random.Random(36)
        checked = 0
        while checked < 2000:
            z = rand_field(rng, 6000, 700)
            if z.abs_sq() <= Fraction(747, 100):
                continue
            checked += 1
            for reg in CAT.v_star.values():
                assert reg.contains(z)

    def test_inverted_dual_cells_in_unit_disk(self):
        rng = random.Random(37)
        for kl, reg in CAT.v_star.items():
            inv = reg.invert()
            hits = 0
            for _ in range(600):
                z = rand_field(rng, 1000, 900)
                if z.is_zero():
                    continue
                if inv.contains(z):
                    hits += 1
                    assert z.abs_sq() < 1
            assert hits > 0

    def test_rotation_relation_between_duals(self):
        # zeta * (Vstar_{3,l})^-1 = (Vstar_{2,l})^-1, the instance of the
        # index-shift relation that Definition-style dual cells satisfy
        rng = random.Random(38)
        for _ in range(1500):
            z = rand_field(rng, 1000, 900)
            if z.is_zero():
                continue
            for l in (1, 4):
                lhs = CAT.v_star[(3, l)].invert().rotate(1)
                rhs = CAT.v_star[(2, l)].invert()
                assert lhs.contains(z) == rhs.contains(z)


class TestInversion:
    def test_big_circle_family(self):
        e1 = embed(ETAS[1])
        src = circle(Fraction(2, 3) * e1.x, Fraction(2, 3) * e1.y,
                     Fraction(1, 3), "==")
        tgt = circle(1, -Fraction(1, 3), Fraction(1, 3), "==")  # (2/3) conj(eta)
        inv = src.invert()
        assert (inv.qq, inv.bx, inv.by, inv.dd) == (tgt.qq, tgt.bx, tgt.by, tgt.dd)

    def test_small_circle_to_line(self):
        src = circle(Fraction(1, 2), Fraction(1, 6), Fraction(1, 3), "==")
        inv = src.invert()
        assert inv.qq == 0
        # y = x - 1 in x + y sqrt(-3) coordinates
        assert (inv.bx, inv.by, inv.dd) in ((-1, 1, 1), (1, -1, -1))

    def test_real_line_fixed(self):
        src = half_plane(0, 1, 0, "==")
        inv = src.invert()
        assert (inv.qq, inv.bx, abs(inv.by), inv.dd) == (0, 0, 1, 0)

    def test_involution(self):
        rng = random.Random(39)
        for _ in range(200):
            p = circle(Fraction(rng.randint(-5, 5), 3),
                       Fraction(rng.randint(-5, 5), 3),
                       Fraction(rng.randint(1, 9), 3), ">")
            if p.dd == 0:
                continue
            try:
                back = p.invert().invert()
            except ValueError:
                continue
            assert (back.qq, back.bx, back.by, back.dd, back.rel) == (
                p.qq, p.bx, p.by, p.dd, p.rel)

    def test_pointwise_on_every_dual_primitive(self):
        # three exact points determine the image circle/line; verify each
        # dual-cell primitive maps pointwise onto its coefficient image
        rng = random.Random(40)
        for kl in ((1, 1), (4, 1), (6, 3)):
            for prim in CAT.v_star[kl].prims:
                eq = Primitive(prim.qq, prim.bx, prim.by, prim.dd, "==")
                img = eq.invert()
                pts = []
                while len(pts) < 3:
                    t = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
                    for z in rational_points_on(eq, [t]):
                        if not z.is_zero():
                            pts.append(z)
                for z in pts:
                    assert img.value_int(z.inv()) == 0

    def test_degenerate_inversion_rejected(self):
        # an empty "circle" (x^2 + 3y^2 + 1 = 0) has no real image
        bad = Primitive(1, 0, 0, 1, "==")
        with pytest.raises(ValueError):
            bad.invert()


class TestSSets:
    def test_ratio_tracks_exact(self):
        from eisencf.cf import convergents, special_digits

        for point, tag in ((MINUS_ZETA, "minus_zeta"), (ZETA_BAR, "zeta_bar")):
            cs = convergents(special_digits(point, 33))
            for n in range(1, 33):
                ratio = -(embed(cs[n].q) / embed(cs[n].q_prev))
                assert CAT.s_sets[(tag, n % 4)].contains(ratio), (tag, n)

    def test_first_ratios(self):
        assert CAT.s_sets[("minus_zeta", 1)].contains(FieldElement(0, -1))
        assert CAT.s_sets[("minus_zeta", 2)].contains(FieldElement(0, -2, 3))
        assert CAT.s_sets[("minus_zeta", 3)].contains(FieldElement(3, 0, 2))
        assert CAT.s_sets[("zeta_bar", 3)].contains(FieldElement(-3, 0, 2))


def xy(z):
    z = np.asarray(z)
    return z.real, z.imag / SQRT3


class TestFloatClassification:
    def test_scale_float_matches_the_float_formula(self):
        # the band scale 2|qq| r reads r from _curve; every distinct
        # primitive of the catalogue and of its inversions matches the
        # centre-and-radius float formula bit for bit, so no band edge moves
        regions = [CAT.u0, *CAT.u_cells.values(), *CAT.v_cells.values(),
                   *CAT.v_star.values(), *CAT.segments.values(), *CAT.s_sets.values()]
        prims = {p for reg in regions for p in reg.prims}
        prims |= {p.invert() for p in prims}
        assert (len(prims), sum(1 for p in prims if p.qq)) == (105, 60)
        for p in prims:
            assert p.scale_float().hex() == scale_float_reference(p).hex(), p

    def test_band_reporting(self):
        reg = CAT.v_star[(6, 1)]
        z = np.array([3 + 0j, 1 + 0j, 0.999999 + 0j])
        assert classify_xy_loop(reg, *xy(z)).tolist() == [1, 0, -1]
        assert reg.inside_xy(*xy(z)).tolist() == [True, False, False]

    def test_stacked_matches_primitive_loop(self):
        rng = np.random.default_rng(42)
        regions = [CAT.u0, *CAT.u_cells.values(), *CAT.v_cells.values(),
                   *CAT.v_star.values(), *(r.invert() for r in CAT.v_star.values()),
                   *CAT.segments.values(), *CAT.s_sets.values()]
        grid = rng.uniform(-3, 3, (2, 30, 40))
        for reg in regions:
            near = np.concatenate([points_near_curve(p, rng) for p in reg.prims])
            x1, y1 = xy(near)
            for x, y in ((grid[0], grid[1]), (x1, y1), (x1[:1], y1[:1])):
                got = reg.inside_xy(x, y)
                assert got.dtype == bool and got.shape == np.shape(x), reg.name
                assert np.array_equal(got, classify_xy_loop(reg, x, y) == 1), reg.name
            for x, y in ((float(x1[0]), float(y1[0])), (x1[3], y1[3]), (0.0, 0.0)):
                got = reg.inside_xy(x, y)
                assert got.shape == () and got.dtype == bool, reg.name
                assert got == (classify_xy_loop(reg, x, y) == 1), reg.name
        # band points do occur above: every region has some on its curves,
        # and the inside mask leaves them out
        near = points_near_curve(CAT.v_cells[(1, 1)].prims[-1], rng)
        band = classify_xy_loop(CAT.v_cells[(1, 1)], *xy(near)) == 0
        assert band.any() and not CAT.v_cells[(1, 1)].inside_xy(*xy(near))[band].any()

    def test_non_finite_points_are_outside(self):
        bad = np.array([complex(np.nan, np.nan), complex(np.nan, 0.1), complex(np.inf, 0.0),
                        complex(-np.inf, 0.0), complex(0.0, np.inf), complex(0.0, -np.inf),
                        complex(np.inf, np.inf), complex(1e200, 1e200)])
        regions = [CAT.u0, *CAT.v_cells.values(), *CAT.v_star.values(),
                   *(r.invert() for r in CAT.v_star.values()), *CAT.s_sets.values()]
        for reg in regions:
            assert not reg.inside_xy(*xy(bad)).any(), reg.name

    def test_sextant_fold_matches_all_cells(self):
        rng = np.random.default_rng(43)
        bulk = rng.uniform(-1, 1, 20000) + 1j * rng.uniform(-SQRT3 / 2, SQRT3 / 2, 20000)
        rays = np.exp(1j * np.pi / 3 * np.arange(6))
        r = rng.uniform(0, 1.2, (6, 60))
        off = np.concatenate([[0.0], 10.0 ** np.arange(-14, -8.5, 0.5)])
        off = np.concatenate([off, -off[1:], [1e-12, -1e-12, 1.01e-12, -1.01e-12]])
        ray_pts = (rays[:, None, None]
                   * (r[:, :, None] + 1j * off[None, None, :])).ravel()
        z = np.concatenate([[0j, -0.0 + 0j, complex(-0.0, -0.0), complex(-0.5, 0.0)],
                            bulk, ray_pts])
        got = classify_cells_complex(z)
        assert np.array_equal(got, classify_cells_loop(z))
        assert set(got[:4].tolist()) == {-1}
        assert 0 < (got[-ray_pts.size:] >= 0).sum() < ray_pts.size
        # where cells meet: every cell's curves, on them and 1e-13 to 1e-11 off
        near = np.concatenate([points_near_curve(p, rng) for reg in CAT.v_cells.values()
                               for p in reg.prims])
        near = near[np.abs(near.real) <= 1.0]
        at_curves = classify_cells_complex(near)
        assert np.array_equal(at_curves, classify_cells_loop(near))
        assert 0 < (at_curves >= 0).sum() < near.size
        bad = np.array([complex(np.nan, 0.1), complex(0.1, np.nan), complex(np.inf, 0.0),
                        complex(-np.inf, 0.5), complex(0.2, np.inf), complex(np.inf, -np.inf)])
        assert (classify_cells_complex(bad) == -1).all()
        assert np.array_equal(classify_cells_complex(z.reshape(2, -1)), got.reshape(2, -1))
        for zs in (z[10], complex(z[10]), 0j):
            one = classify_cells_complex(zs)
            assert one.shape == () and one == classify_cells_loop(zs)

    def test_bbox_contains_samples(self):
        rng = random.Random(41)
        for kl in ((1, 1), (6, 4)):
            reg = CAT.v_star[kl].invert()
            xlo, xhi, ylo, yhi = reg.bbox_real()
            for _ in range(300):
                z = rand_field(rng, 1000, 900)
                if z.is_zero() or not reg.contains(z):
                    continue
                w = z.approx()
                assert xlo - 1e-9 <= w.real <= xhi + 1e-9
                assert ylo - 1e-9 <= w.imag <= yhi + 1e-9

    def test_bbox_is_tight(self):
        # cells bounded by circle exteriors and lines, with cusps, and an
        # inverted dual cell, against boxes worked out by hand
        r3 = math.sqrt(3)
        expected = {
            CAT.v_cells[(2, 1)]: (0.0, 1.0, 0.0, r3 / 6),
            CAT.v_cells[(6, 1)]: (0.5, 1.0, 0.0, r3 / 2),
            CAT.v_star[(1, 1)].invert(): (-1.0, 1.0, -r3 / 2, 1.0),
        }
        for reg, box in expected.items():
            assert np.allclose(reg.bbox_real(), box, rtol=0, atol=1e-12), reg.name
        # lens cells: the inside points of a fine grid reach each side of the
        # box to within a grid step
        n = 801
        for reg in (CAT.v_cells[(1, 2)], CAT.v_cells[(5, 4)]):
            xlo, xhi, ylo, yhi = reg.bbox_real()
            xs, ys = np.linspace(xlo - 0.01, xhi + 0.01, n), np.linspace(ylo - 0.01, yhi + 0.01, n)
            gx, gy = np.meshgrid(xs, ys, indexing="ij")
            inside = reg.inside_xy(gx, gy / SQRT3)
            got = (gx[inside].min(), gx[inside].max(), gy[inside].min(), gy[inside].max())
            step = max(xs[1] - xs[0], ys[1] - ys[0])
            assert np.allclose(got, (xlo, xhi, ylo, yhi), rtol=0, atol=step), reg.name


class TestCellLookup:
    """`classify_cells_complex` reads a per-sextant table of distinct rows,
    built once, against the cell-by-cell reference."""

    def test_thirteen_rows_and_54_references_per_sextant(self):
        for s, (coef, scale, refs, cells) in enumerate(_sextant_tables()):
            rows = [tuple(r) for r in coef.tolist()]
            assert len(rows) == len(set(rows)) == 13 and scale.shape == (13, 1)
            assert sum(len(CAT.v_cells[(k, s + 1)]._ints) for k in range(1, 7)) == 54
            for k, ref in enumerate(refs.tolist(), 1):
                # every row of the cell, found up to sign, and nothing else
                want = set()
                for qq, bx, by, dd, _ in CAT.v_cells[(k, s + 1)]._ints:
                    if (qq, bx, by, dd) in rows:
                        want.add(rows.index((qq, bx, by, dd)))
                    else:
                        want.add(13 + rows.index((-qq, -bx, -by, -dd)))
                assert set(ref) == want
                assert cells[7 - k] == 6 * (k - 1) + s
            assert cells[0] == -1

    def test_tables_are_read_only(self):
        for table in _sextant_tables():
            for a in table:
                with pytest.raises(ValueError):
                    a[(0,) * a.ndim] = 0

    def test_orbit_points_match_all_cells(self):
        from eisencf.ergodic import simulate_orbits
        z = simulate_orbits(8, 2000, 7).points.ravel()
        got = classify_cells_complex(z, CAT)
        assert np.array_equal(got, classify_cells_loop(z)) and (got >= 0).all()
        # finite, but x^2 + 3y^2 overflows
        huge = np.array([complex(1e200, 1e200), complex(-1e200, 1e100)])
        assert (classify_cells_complex(huge) == -1).all()

    def test_only_the_built_catalog(self):
        with pytest.raises(ValueError):
            classify_cells_complex(np.zeros(3, complex), CAT._replace(u0=CAT.u0.rotate(1)))


class TestBoundary:
    def test_pieces_lie_on_the_boundary(self):
        regions = [CAT.u0, *CAT.u_cells.values(), *CAT.v_cells.values(),
                   *CAT.segments.values(), *(r.invert() for r in CAT.v_star.values())]
        for reg in regions:
            pieces = reg.boundary()
            assert pieces, reg.name
            two_d = all(p.rel != "==" for p in reg.prims)
            for pc in pieces:
                tm = 0.5 * (pc.t1 + pc.t2)
                z, n = complex(pc.at(tm)), complex(pc.normal(tm))
                assert classify_xy_loop(reg, *xy(z)) == 0, (reg.name, pc)
                assert not reg.inside_xy(*xy(z)), (reg.name, pc)
                if two_d:
                    assert reg.inside_xy(*xy(z - 1e-7 * n)), (reg.name, pc)
                    assert classify_xy_loop(reg, *xy(z + 1e-7 * n)) == -1, (reg.name, pc)

    def test_half_disk(self):
        # the unit circle cuts the real axis where no other constraint does
        reg = Region("D", (circle(0, 0, 1, "<"), half_plane(0, 1, 0, ">")))
        arc, seg = reg.boundary()
        assert (arc.radius, arc.t1) == (1.0, 0.0) and abs(arc.t2 - math.pi) < 1e-15
        assert abs(seg.start - 1) < 1e-15 and abs(seg.end + 1) < 1e-15
        assert abs(seg.normal(0.0) + 1j) < 1e-15

    def test_mirror_regions_have_mirror_pieces(self):
        # x -> -x maps the conj(zeta) track onto the -zeta track; no piece
        # breaks where nothing cuts its curve
        a = CAT.s_sets[("zeta_bar", 1)].boundary()
        b = CAT.s_sets[("minus_zeta", 1)].boundary()
        assert len(a) == len(b) == 1
        ends = lambda pcs: sorted((round(z.real, 12), round(z.imag, 12))
                                  for pc in pcs for z in (pc.start, pc.end))
        assert ends(a) == sorted((round(-x, 12) + 0.0, y) for x, y in ends(b))

    def test_unbounded_boundary_rejected(self):
        with pytest.raises(ValueError):
            Region("H", (half_plane(1, 0, 0, "<"),)).boundary()
