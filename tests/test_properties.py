"""Property-based tests of the exact layer."""

import math
from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

from eisencf.cf import INF, TerminatedAtZero, eval_cf, expand, step_T
from eisencf.exact import (
    F_ONE, F_ZERO, MINUS_ZETA, SQRT_M3, ZETA, ZETA_BAR, EisensteinInt, FieldElement, embed,
    j_element,
)
from eisencf.hexdomain import _in_U, _nearest, floor_J, floor_J_candidates, in_U, in_U0
from eisencf.regions import (
    BoundaryPoint, NotInU, Primitive, _box_range, _box_row, build_catalog, cell_of,
    rational_points_on,
)
from eisencf.verifier import (
    _claim_table, _frs_claims, _pullback, dual_inclusion_blocks,
)

CAT = build_catalog()
REGIONS = sorted(
    [CAT.u0, *CAT.u_cells.values(), *CAT.v_cells.values(), *CAT.v_star.values(),
     *CAT.segments.values(), *CAT.s_sets.values()],
    key=lambda r: r.name,
)
ZETA_F = FieldElement(1, 1, 2)

exact = settings(derandomize=True, database=None, deadline=None, max_examples=150)

ints = st.integers(-10**6, 10**6)
eisenstein = st.builds(EisensteinInt, ints, ints)
fields = st.builds(FieldElement, ints, ints, ints.filter(bool))
# small denominators put many points on region boundaries
near_points = st.builds(FieldElement, st.integers(-60, 60), st.integers(-60, 60),
                        st.integers(1, 40))
# generic points of U, as residuals w - [w]
u_points = fields.map(lambda w: w - embed(floor_J(w)))


@exact
@given(eisenstein, eisenstein, eisenstein)
def test_eisenstein_ring_axioms(x, y, z):
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == EisensteinInt(0, 0) and x * EisensteinInt(1, 0) == x
    assert (x * y).norm() == x.norm() * y.norm()
    assert (x * y).conj() == x.conj() * y.conj()
    # embed is a ring homomorphism into the field
    assert embed(x + y) == embed(x) + embed(y)
    assert embed(x * y) == embed(x) * embed(y)


@exact
@given(fields, fields, fields)
def test_field_axioms(x, y, z):
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x - x == F_ZERO and x * F_ONE == x
    if x:
        assert x * x.inv() == F_ONE
        assert (y / x) * x == y


@exact
@given(ints, ints, ints.filter(bool), ints.filter(bool))
def test_canonical_form(a, b, c, k):
    z = FieldElement(a, b, c)
    assert z.c > 0 and math.gcd(z.a, z.b, z.c) == 1
    # equal values have equal representations
    assert FieldElement(k * a, k * b, k * c) == z
    assert hash(FieldElement(k * a, k * b, k * c)) == hash(z)


@settings(exact, max_examples=300)
@given(st.one_of(fields, near_points))
def test_floor_J_is_the_unique_candidate(z):
    alpha = floor_J(z)
    assert floor_J_candidates(z) == [alpha]
    assert in_U(z - embed(alpha))


@settings(exact, max_examples=200)
@given(st.integers(-1000, 1000), st.integers(-1000, 1000), st.integers(1, 1000))
def test_terminating_expansion_evaluates_back(a, b, c):
    w = FieldElement(a, b, c)
    z = w - embed(floor_J(w))
    e = expand(z, 256)
    assume(isinstance(e.terminal, TerminatedAtZero))
    assert eval_cf(e.digits) == z


@settings(exact, max_examples=400)
@given(st.sampled_from(REGIONS), st.integers(0, 5), near_points, st.booleans())
def test_region_contains_rotation_equivariant(reg, times, z, closed):
    rz = z
    for _ in range(times):
        rz = ZETA_F * rz
    assert reg.rotate(times).contains(rz, closed) == reg.contains(z, closed)
    # and under the mirror z -> -conj(z)
    assert reg.mirror().contains(-z.conj(), closed) == reg.contains(z, closed)


def _sign_holds(v, rel, closed):
    if closed and rel in ("<", ">"):
        rel += "="
    return {"<": v < 0, "<=": v <= 0, "==": v == 0, ">=": v >= 0, ">": v > 0}[rel]


@settings(exact, max_examples=60)
@given(near_points, st.fractions(-20, 20, max_denominator=30))
@example(FieldElement(0, -1), Fraction(0))  # on the "x <= 0" side of S_minus_zeta_1
def test_region_contains_matches_primitive_signs(z, t):
    # open and closed differ only on boundaries, so besides z every region
    # is also tested at the point with parameter t on each of its primitives
    for reg in REGIONS:
        pts = [z]
        for p in reg.prims:
            pts += rational_points_on(p, [t])
        for w in pts:
            for closed in (False, True):
                want = all(_sign_holds(p.value_int(w), p.rel, closed)
                           for p in reg.prims)
                assert reg.contains(w, closed) == want


# the translated and inverted dual cells whose inclusions verify_dual_inclusions
# proves, with their six rotations
DUAL_TERMS = [_pullback(CAT.v_star[kl], [alpha]).rotate(rot)
              for terms in dual_inclusion_blocks().values()
              for kl, alpha in terms for rot in range(6)]


small = st.integers(-12, 12)


@settings(exact, max_examples=400)
@given(small, small, small, small, st.sampled_from(["<", "==", ">"]))
@example(1, 2, 0, 1, "<")  # the circle of radius 0 about -1: degenerate
def test_invert_degeneracy_matches_circle_data(qq, bx, by, dd, rel):
    # the integer sign test of Primitive.invert against the radius of circle_data
    p = Primitive(qq, bx, by, dd, rel)
    inv = Primitive(p.dd, p.bx, -p.by, p.qq, p.rel)
    degenerate = inv.qq != 0 and inv.dd != 0 and inv.circle_data()[2] <= 0
    try:
        assert p.invert() == inv and not degenerate
    except ValueError:
        assert degenerate


def _cell_by_scan(z):
    """cell_of's verdict from all 36 cells: a (k, l) key or the exception type."""
    hits = [kl for kl, reg in CAT.v_cells.items() if reg.contains(z)]
    assert len(hits) <= 1, (str(z), hits)
    if hits:
        return hits[0]
    return BoundaryPoint if in_U(z) else NotInU


def _cell_folded(z):
    try:
        return cell_of(z)
    except (BoundaryPoint, NotInU) as exc:
        return type(exc)


# exact points of the box of U, |x| <= 1 and |y| <= 1/2
u_box_points = st.integers(60, 600).flatmap(lambda c: st.builds(
    FieldElement, st.integers(-c, c), st.integers(-c // 2, c // 2), st.just(c)))
# points of the lines b = 0, a = b and a = -b that carry the six sextant rays
ray_points = st.builds(lambda t, c, m: FieldElement(t, m * t, c), st.integers(-300, 300),
                       st.integers(1, 300), st.sampled_from([0, 1, -1]))


@settings(exact, max_examples=400)
@given(u_box_points)
def test_cell_of_sextant_fold_matches_the_scan(z):
    assert _cell_folded(z) == _cell_by_scan(z)


@settings(exact, max_examples=400)
@given(st.one_of(near_points, ray_points))
def test_cell_of_sextant_fold_matches_the_scan_off_cells(z):
    assert _cell_folded(z) == _cell_by_scan(z)


def test_cell_of_at_the_hexagon_vertices():
    for x, y in ((1, 0), (Fraction(1, 2), Fraction(1, 2)), (Fraction(-1, 2), Fraction(1, 2)),
                 (-1, 0), (Fraction(-1, 2), Fraction(-1, 2)), (Fraction(1, 2), Fraction(-1, 2))):
        z = FieldElement.from_xy(Fraction(x), Fraction(y))
        # U is half-open: some vertices lie in it, on a cell boundary, some not
        assert _cell_folded(z) == _cell_by_scan(z) in (BoundaryPoint, NotInU)


# the rows of the catalogue, and of the dual terms and the pulled-back claim
# tables at all six rotations
ROWS = sorted({r[:4] for reg in REGIONS + DUAL_TERMS + [
    _claim_table(c).rotate(m) for c in _frs_claims(CAT) for m in range(6)] for r in reg._ints})


@settings(exact, max_examples=300)
@given(st.sampled_from(ROWS), st.integers(0, 12), st.data())
def test_box_range_is_exact(row, k, data):
    # a dyadic box [u0, u1] x [v0, v1] / 2^k inside |x|, |y| <= 8
    s = 1 << k
    u0, v0 = (data.draw(st.integers(-8 * s, 4 * s)) for _ in range(2))
    u1, v1 = (lo + data.draw(st.integers(0, 4 * s)) for lo in (u0, v0))
    qq, bx, by, dd = row
    weight = 12 * abs(qq) or 1

    def value(u, v):  # weight * s^2 * P at (x, y) = (u, v) / s
        return weight * (qq * (u * u + 3 * v * v) + bx * s * u + by * s * v + dd * s * s)

    lo, hi = _box_range(_box_row(row, s), u0, u1, v0, v1)
    # sound: the range brackets P at the corners and at dyadic interior points
    assert all(lo <= value(u, v) <= hi for u in (u0, u1) for v in (v0, v1))
    m = data.draw(st.integers(0, 8))
    for _ in range(4):
        i, j = (data.draw(st.integers(0, 1 << m)) for _ in range(2))
        assert lo <= value(u0 + Fraction((u1 - u0) * i, 1 << m),
                           v0 + Fraction((v1 - v0) * j, 1 << m)) <= hi
    # exact: both ends are attained at a corner or vertex coordinate
    us = {u0, u1} | ({Fraction(-bx * s, 2 * qq)} if qq else set())
    vs = {v0, v1} | ({Fraction(-by * s, 6 * qq)} if qq else set())
    values = [value(u, v) for u in us if u0 <= u <= u1 for v in vs if v0 <= v <= v1]
    assert (lo, hi) == (min(values), max(values))


def step_T_reference(z):
    """One step built from the field operations: round 1/z, subtract."""
    w = z.inv()
    digit = floor_J(w)
    return digit, w - embed(digit)


@exact
@given(st.one_of(u_points, near_points.map(lambda w: w - embed(floor_J(w)))))
def test_step_T_residual_is_inverse_minus_digit(z):
    assume(z and z not in (MINUS_ZETA, ZETA_BAR))
    assert step_T(z) == step_T_reference(z)


@settings(exact, max_examples=500)
@given(st.one_of(u_points, near_points.map(lambda w: w - embed(floor_J(w)))))
def test_step_T_is_dihedrally_equivariant(z):
    # J and U0 are invariant under z -> conj(z) and z -> zeta*z; the second
    # turns 1/z into zeta^5/z
    assume(z and in_U0(z))
    digit, z_next = step_T(z)
    assume(in_U0(z_next))
    assert step_T(z.conj()) == (digit.conj(), z_next.conj())
    assert step_T(embed(ZETA) * z) == (ZETA**5 * digit, embed(ZETA**5) * z_next)


# U's vertices 1, zeta, -conj(zeta), -1, -zeta, conj(zeta) as (x, y), z = x + y*sqrt(-3)
HEX_VERTICES = [(Fraction(x, 2), Fraction(y, 2))
                for x, y in ((2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1))]


def test_step_T_on_boundary_residuals():
    # 1/z = alpha + e with e on one of U's six edges or vertices: the
    # closed-form rounding of 1/z ties, and the neighbour search decides
    digits = [j_element(m, n) for m in range(-3, 4) for n in range(-3, 4)
              if j_element(m, n).norm() >= 9]
    edge_points = [FieldElement.from_xy(*v) for v in HEX_VERTICES]
    for (x0, y0), (x1, y1) in zip(HEX_VERTICES, HEX_VERTICES[1:] + HEX_VERTICES[:1]):
        for t in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 5)):
            edge_points.append(FieldElement.from_xy(x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
    fallbacks = 0
    for alpha in digits:
        for e in edge_points:
            w = embed(alpha) + e
            z = w.inv()
            got = step_T(z)
            assert got == step_T_reference(z), (alpha, e)
            assert floor_J_candidates(w) == [got[0]] and in_U(got[1])
            _, _, ra, rb = _nearest(w.a, w.b, w.c)
            fallbacks += not _in_U(ra, rb, 2 * w.c)
    assert fallbacks > 0


def eval_cf_reference(digits, tail=F_ZERO):
    """The projective evaluation on field elements."""
    num, den = (F_ONE, F_ZERO) if tail is INF else (tail, F_ONE)
    for b in reversed(digits):
        num, den = den, embed(b) * den + num
    return INF if den.is_zero() else num / den


small_digits = st.builds(j_element, st.integers(-3, 3), st.integers(-3, 3))
# [sqrt(-3)]^k makes some partial denominator vanish for many tails
vanishing = st.integers(0, 13).map(lambda k: [SQRT_M3] * k)


@settings(exact, max_examples=400)
@given(st.one_of(st.lists(small_digits, max_size=8), st.lists(eisenstein, max_size=6),
                 vanishing),
       st.one_of(st.just(INF), st.just(F_ZERO), near_points, fields))
def test_eval_cf_matches_field_evaluation(digits, tail):
    assert eval_cf(digits, tail) == eval_cf_reference(digits, tail)


# the frs chains and their rotations (zeta^m d_1, zeta^-m d_2, ...)
FRS_CHAINS = [[ZETA ** (m if i % 2 == 0 else -m % 6) * d for i, d in enumerate(c["chain"])]
              for c in _frs_claims(CAT) for m in range(6)]


@exact
@given(u_points, st.sampled_from(FRS_CHAINS))
def test_chain_preimage_is_composed_inverse_branches(w, chain):
    z = w
    for d in reversed(chain):
        z = (embed(d) + z).inv()
    assert eval_cf(chain, w) == z
