"""Exact regions: cells of the hexagon partition, dual cells, and named curves.

Every region is a conjunction of sign constraints on integer polynomials

    P(x, y) = qq*(x^2 + 3 y^2) + bx*x + by*y + dd        (z = x + y*sqrt(-3))

which covers circles (qq != 0), lines and half-planes (qq = 0).  In these
coordinates every circle and line appearing in the construction has integer
data, membership of a field element (a + b*sqrt(-3))/c reduces to one integer
sign, and the maps z -> 1/z, z -> zeta*z, the mirror z -> -conj(z) (which is
x -> -x) and z -> z + t act on coefficient vectors:

    inversion     (qq, bx, by, dd) -> (dd, bx, -by, qq)
    rotation      (qq, bx, by, dd) -> (2 qq, bx - by, 3 bx + by, 2 dd)
    mirror        (qq, bx, by, dd) -> (qq, -bx, by, dd)
    translation   substitute z - t and clear denominators.

Every membership test (exact `contains`, float `inside_xy`, the box tree of
`excess`) reads a region in one row form, built once: rows (qq, bx, by, dd)
meaning "P <= 0", or "P < 0" where the row is strict and the region open.  A
">" or ">=" primitive becomes its negated row, "==" the two rows P and -P, and
each row keeps its primitive's float scale for the boundary band.  The float
half (`Piece.at`, `inside_xy`, `classify_cells_complex`) imports numpy when it
first runs, so the exact layer and `verify` load without it.

Some catalogued cells deviate from their customary printed definitions; each
repair is documented in REGION_ERRATA.md and is forced by the partition
property (exactly one cell per interior point), which the test-suite checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .exact import ETAS, SQRT3, FieldElement, embed
from .hexdomain import in_U

if TYPE_CHECKING:
    import numpy as np

_FLIP = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "==": "=="}
# the signs each relation's rows carry in the row form
_ROW_SIGNS = {"<": (1,), "<=": (1,), "==": (1, -1), ">=": (-1,), ">": (-1,)}


@dataclass(frozen=True)
class Primitive:
    qq: int
    bx: int
    by: int
    dd: int
    rel: str

    def __post_init__(self):
        qq, bx, by, dd, rel = self.qq, self.bx, self.by, self.dd, self.rel
        g = math.gcd(qq, bx, by, dd)
        if g > 1:
            qq, bx, by, dd = qq // g, bx // g, by // g, dd // g
        lead = next((v for v in (qq, bx, by, dd) if v != 0), 0)
        if lead < 0:
            qq, bx, by, dd, rel = -qq, -bx, -by, -dd, _FLIP[rel]
        for name, v in zip(("qq", "bx", "by", "dd", "rel"), (qq, bx, by, dd, rel)):
            object.__setattr__(self, name, v)

    def value_int(self, z: FieldElement) -> int:
        a, b, c = z.a, z.b, z.c
        return (
            self.qq * (a * a + 3 * b * b)
            + self.bx * a * c
            + self.by * b * c
            + self.dd * c * c
        )

    # -- float path -------------------------------------------------------
    def scale_float(self) -> float:
        """Gradient-magnitude scale so |P|/scale approximates real distance."""
        if self.qq == 0:
            return math.hypot(self.bx, self.by / SQRT3)
        cx = -self.bx / (2.0 * self.qq)
        cy = -self.by / (6.0 * self.qq)
        r_sq = cx * cx + 3.0 * cy * cy - self.dd / self.qq
        r = math.sqrt(max(r_sq, 1e-18))
        return 2.0 * abs(self.qq) * r

    # -- exact transforms ---------------------------------------------------
    def invert(self) -> Primitive:
        inv = Primitive(self.dd, self.bx, -self.by, self.qq, self.rel)
        # a circle off 0 stays a circle; reject inversions that would degenerate:
        # 12 qq^2 r^2 = 3 bx^2 + by^2 - 12 qq dd (see circle_data)
        if inv.qq != 0 and inv.dd != 0 and 3 * inv.bx ** 2 + inv.by ** 2 <= 12 * inv.qq * inv.dd:
            raise ValueError(f"inversion of {self} degenerates")
        return inv

    def rotate(self, times: int = 1) -> Primitive:
        p = self
        for _ in range(times % 6):
            p = Primitive(2 * p.qq, p.bx - p.by, 3 * p.bx + p.by, 2 * p.dd, p.rel)
        return p

    def mirror(self) -> Primitive:
        """Primitive of the mirror image of the region under z -> -conj(z)."""
        return Primitive(self.qq, -self.bx, self.by, self.dd, self.rel)

    def translate(self, t: FieldElement) -> Primitive:
        """Primitive of the translated region R + t."""
        ta, tb, tc = t.a, t.b, t.c
        qq = self.qq * tc * tc
        bx = (self.bx * tc - 2 * self.qq * ta) * tc
        by = (self.by * tc - 6 * self.qq * tb) * tc
        dd = (
            self.qq * (ta * ta + 3 * tb * tb)
            - self.bx * ta * tc
            - self.by * tb * tc
            + self.dd * tc * tc
        )
        return Primitive(qq, bx, by, dd, self.rel)

    def circle_data(self) -> tuple[Fraction, Fraction, Fraction]:
        """(center_x, center_y, r_sq) of a circle primitive (qq != 0)."""
        cx = Fraction(-self.bx, 2 * self.qq)
        cy = Fraction(-self.by, 6 * self.qq)
        r_sq = cx * cx + 3 * cy * cy - Fraction(self.dd, self.qq)
        return cx, cy, r_sq


def circle(cx, cy, r_sq, rel: str) -> Primitive:
    """|z - (cx + cy*sqrt(-3))|^2  rel  r_sq, as an integer primitive."""
    cx, cy, r_sq = Fraction(cx), Fraction(cy), Fraction(r_sq)
    den = math.lcm(cx.denominator, cy.denominator, r_sq.denominator)
    den2 = den * den
    return Primitive(
        den2,
        int(-2 * cx * den2),
        int(-6 * cy * den2),
        int((cx * cx + 3 * cy * cy - r_sq) * den2),
        rel,
    )


def half_plane(u, v, w, rel: str) -> Primitive:
    """u*x + v*y - w  rel  0."""
    u, v, w = Fraction(u), Fraction(v), Fraction(w)
    den = math.lcm(u.denominator, v.denominator, w.denominator)
    return Primitive(0, int(u * den), int(v * den), int(-w * den), rel)


UNIT_CIRCLE_GT = circle(0, 0, 1, ">")

# open hexagon: |y| < 1/2, |x+y| < 1, |x-y| < 1
HEX_OPEN = (
    half_plane(0, 2, 1, "<"),
    half_plane(0, 2, -1, ">"),
    half_plane(1, 1, 1, "<"),
    half_plane(1, 1, -1, ">"),
    half_plane(1, -1, 1, "<"),
    half_plane(1, -1, -1, ">"),
)


@dataclass(frozen=True)
class Piece:
    """An arc or a segment of a region's boundary, on the curve of `prim`.

    An arc is z(t) = base + radius*e^(it), t an angle; a segment (radius 0) is
    z(t) = base + t*i*grad, t a length along the line with unit normal grad.
    """

    prim: Primitive
    t1: float
    t2: float
    base: complex
    radius: float
    grad: complex

    def at(self, t):
        import numpy as np
        return self.base + (self.radius * np.exp(1j * t) if self.radius else t * 1j * self.grad)

    def gradient(self, t):
        """Unit gradient of P at z(t); i times it is the tangent along t."""
        import numpy as np
        return np.exp(1j * t) if self.radius else np.full(np.shape(t), self.grad)[()]

    def normal(self, t):
        """Unit normal at z(t) pointing out of the region."""
        g = self.gradient(t)
        return -g if self.prim.rel in (">", ">=") else g

    @property
    def start(self) -> complex:
        return complex(self.at(self.t1))

    @property
    def end(self) -> complex:
        return complex(self.at(self.t2))


# a cut within this relative distance of a tangency is taken as the tangency;
# a piece is kept when its midpoint clears the other constraints by _PIECE_EPS
# on the side _SIDE names ("==" admits no piece of another curve)
_TANGENT_SNAP, _PIECE_EPS = 1e-12, 1e-13
_SIDE = {"<": -1, "<=": -1, "==": 0, ">=": 1, ">": 1}


def _curve(p: Primitive) -> tuple[complex, float, complex]:
    """(center, radius, 0) of a circle; (a point, 0, unit normal) of a line."""
    if p.qq:
        cx, cy, r_sq = p.circle_data()
        return complex(float(cx), float(cy) * SQRT3), math.sqrt(float(r_sq)), 0j
    g = complex(p.bx, p.by / SQRT3)            # P = <z, g> + dd
    return -p.dd * g / abs(g) ** 2, 0.0, g / abs(g)


def _dot(u: complex, v: complex) -> float:
    return u.real * v.real + u.imag * v.imag


def _meet(cosv: float) -> float | None:
    """acos(cosv), snapped to 0 or pi at a tangency; None when the curves miss."""
    if abs(abs(cosv) - 1.0) <= _TANGENT_SNAP:
        return 0.0 if cosv > 0 else math.pi
    return math.acos(cosv) if abs(cosv) <= 1.0 else None


def _cuts(ci: tuple[complex, float, complex], cj: tuple[complex, float, complex]) -> list[float]:
    """Parameters on curve ci (angles or lengths) where curve cj meets it."""
    (c, r, g), (c2, r2, g2) = ci, cj
    if r and r2:
        dist = abs(c2 - c)
        if dist < 1e-15:
            return []
        cosv = (dist * dist + r * r - r2 * r2) / (2 * dist * r)
        phi = math.atan2((c2 - c).imag, (c2 - c).real)
    elif r:
        cosv, phi = -_dot(c - c2, g2) / r, math.atan2(g2.imag, g2.real)
    elif r2:
        # the chord of circle cj about the foot of its center on line ci
        a, foot = _meet(_dot(c2 - c, g) / r2), _dot(c2 - c, 1j * g)
        return [] if a is None else [foot - r2 * math.sin(a), foot + r2 * math.sin(a)]
    else:
        slope = _dot(1j * g, g2)
        return [] if abs(slope) < 1e-15 else [-_dot(c - c2, g2) / slope]
    a = _meet(cosv)
    return [] if a is None else [(phi - a) % (2 * math.pi), (phi + a) % (2 * math.pi)]


def _box_row(row: tuple[int, int, int, int], s: int) -> tuple[int, ...]:
    """A row (qq, bx, by, dd) at the scale x = u/s, y = v/s, as `_box_range`
    reads it: (0, BX, BY, DD) for a line, P s^2 = BX u + BY v + DD, and
    (g, 2q, g BX, 6q, g BY, K) for a circle, q = |qq|, g = sign(qq), where
    12 q g P s^2 = 3 (2q u + g BX)^2 + (6q v + g BY)^2 - K."""
    qq, bx, by, dd = row
    bx, by, dd = bx * s, by * s, dd * s * s
    if not qq:
        return (0, bx, by, dd)
    g = 1 if qq > 0 else -1
    return (g, 2 * g * qq, g * bx, 6 * g * qq, g * by, 3 * bx * bx + by * by - 12 * qq * dd)


def _box_range(row: tuple[int, ...], u0: int, u1: int, v0: int, v1: int) -> tuple[int, int]:
    """The exact (min, max) of a `_box_row` over [u0, u1] x [v0, v1], times its
    positive weight (1 for a line, 12 |qq| for a circle): P is a quadratic in
    u plus one in v, so each extreme lies at a corner coordinate or at the
    vertex, where a square's base changes sign."""
    if not row[0]:
        _, bx, by, dd = row
        lo, hi = (dd + bx * u0, dd + bx * u1) if bx > 0 else (dd + bx * u1, dd + bx * u0)
        return (lo + by * v0, hi + by * v1) if by > 0 else (lo + by * v1, hi + by * v0)
    g, q2, bx, q6, by, k = row
    p0, p1, r0, r1 = q2 * u0 + bx, q2 * u1 + bx, q6 * v0 + by, q6 * v1 + by
    a, b, c, d = p0 * p0, p1 * p1, r0 * r0, r1 * r1  # p0 <= p1 and r0 <= r1
    lo = 3 * (a if p0 > 0 else b if p1 < 0 else 0) + (c if r0 > 0 else d if r1 < 0 else 0) - k
    hi = 3 * (a if a > b else b) + (c if c > d else d) - k
    return (lo, hi) if g > 0 else (-hi, -lo)


def _sift(rows, u0: int, u1: int, v0: int, v1: int, hold: int) -> list | None:
    """None when a row is positive on the box, else the rows not decided on
    it: those whose maximum is >= hold."""
    left = []
    for r in rows:
        lo, hi = _box_range(r, u0, u1, v0, v1)
        if lo > 0:
            return None
        if hi >= hold:
            left.append(r)
    return left


class Excess(NamedTuple):
    """What `Region.excess` proved."""

    residue: Fraction   # upper bound on the area of A \ cl(B), in (x, y)
    fails: int          # final-depth box centres strictly in A, outside cl(B)
    example: FieldElement | None   # the first of them


# the verdicts of `Region.box_tree`: a box dropped as outside A, a box proved
# strictly inside A whose parent was not, or neither
OUTSIDE, INSIDE, UNDECIDED = -1, 1, 0


class BoundaryPoint(Exception):
    pass


class NotInU(Exception):
    pass


@dataclass(frozen=True)
class Region:
    name: str
    prims: tuple[Primitive, ...]
    includes_infinity: bool = False

    @cached_property
    def _ints(self) -> tuple[tuple[int, int, int, int, bool], ...]:
        """The rows (qq, bx, by, dd, strict) of the row form."""
        return tuple((g * p.qq, g * p.bx, g * p.by, g * p.dd, p.rel in ("<", ">"))
                     for p in self.prims for g in _ROW_SIGNS[p.rel])

    @cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The (R, 4) rows (qq, bx, by, dd) as floats and their (R,) scales."""
        import numpy as np
        scale = [p.scale_float() for p in self.prims for _ in _ROW_SIGNS[p.rel]]
        return np.array([row[:4] for row in self._ints], dtype=float), np.array(scale)

    def contains(self, z: FieldElement, closed: bool = False) -> bool:
        # Primitive.value_int with the terms every row shares hoisted
        a, b, c = z.a, z.b, z.c
        n, ac, bc, cc = a * a + 3 * b * b, a * c, b * c, c * c
        for qq, bx, by, dd, strict in self._ints:
            v = qq * n + bx * ac + by * bc + dd * cc
            if v > 0 or v == 0 and strict and not closed:
                return False
        return True

    # -- exact box tree ---------------------------------------------------
    def excess(self, other: Region | None, box, depth: int) -> Excess:
        """An exact dyadic bound on the area of A \\ cl(B), A = self and
        B = other (None: the empty set), within box = (x0, x1, y0, y1), by
        branch and bound on exact row ranges (R. E. Moore, Interval Analysis,
        1966): the residue and the counterexamples of `box_tree`."""
        den, (u0, u1, v0, v1), tree = self.box_tree(other, box, depth)
        count = fails = 0
        example = None
        for _, u, v, weight, bad in tree:
            count += weight
            if bad and example is None:
                example = FieldElement(u, v, den)
            fails += bad
        return Excess(Fraction(count * (u1 - u0) * (v1 - v0), den * den << 2 * depth),
                      fails, example)

    def box_tree(self, other: Region | None, box, depth: int
                 ) -> tuple[int, tuple[int, ...], Iterator[tuple[int, int, int, int, int]]]:
        """The box tree of `excess`, as den, the box's corners (u0, u1, v0, v1)
        over den, and a lazy breadth-first stream of (verdict, u, v, weight,
        bad): the box centred at (u, v) / den gets a verdict (OUTSIDE, INSIDE
        or UNDECIDED) and adds weight final-depth boxes to the residue, bad of
        them counterexamples.  A box with no verdict and no weight is not
        emitted.

        The box is split in four, `depth` times.  A box is dropped when a row
        of A is positive on it, or when every row of B left is <= 0 on it; a
        row of A negative on a box, or of B <= 0, is not evaluated on its
        children.  A row of B equal to a row of A holds on all of A and is
        dropped up front; an A with two opposite rows lies on a curve, and
        emits nothing.  A box strictly inside A where a row of B is positive
        is all counterexample; any other box left at the final depth adds to
        the residue, and its centre is a counterexample when strictly inside A
        and outside cl(B).
        """
        box = [Fraction(v) for v in box]
        den = math.lcm(*(v.denominator for v in box)) << (depth + 1)
        corners = tuple(v.numerator * (den // v.denominator) for v in box)
        a_set = dict.fromkeys(r[:4] for r in self._ints)
        if any((-qq, -bx, -by, -dd) in a_set for qq, bx, by, dd in a_set):
            return den, corners, iter(())
        root = (*corners, [_box_row(r, den) for r in a_set], None if other is None else
                [_box_row(r[:4], den) for r in other._ints if r[:4] not in a_set])

        def walk():
            level = [root]
            for d in range(depth + 1):
                level, boxes = [], level
                for u0, u1, v0, v1, a_rows, b_rows in boxes:
                    um, vm = (u0 + u1) >> 1, (v0 + v1) >> 1
                    keep_a = _sift(a_rows, u0, u1, v0, v1, 0)
                    if keep_a is None:
                        yield OUTSIDE, um, vm, 0, 0
                        continue
                    verdict = INSIDE if a_rows and not keep_a else UNDECIDED
                    keep_b = b_rows and _sift(b_rows, u0, u1, v0, v1, 1)
                    if keep_b == []:
                        weight = bad = 0
                    elif keep_b is None and not keep_a:
                        weight = bad = 4 ** (depth - d)
                    elif d < depth:
                        level += [(x, xx, y, yy, keep_a, keep_b) for x, xx in ((u0, um), (um, u1))
                                  for y, yy in ((v0, vm), (vm, v1))]
                        weight = bad = 0
                    else:  # the centre decides
                        c = (um, um, vm, vm)
                        weight, bad = 1, int(all(_box_range(r, *c)[0] < 0 for r in keep_a) and (
                            keep_b is None or any(_box_range(r, *c)[0] > 0 for r in keep_b)))
                    if verdict or weight:
                        yield verdict, um, vm, weight, bad

        return den, corners, walk()

    def rotate(self, times: int, name: str | None = None) -> Region:
        return Region(
            name or f"zeta^{times}*{self.name}",
            tuple(p.rotate(times) for p in self.prims),
            self.includes_infinity,
        )

    def mirror(self, name: str | None = None) -> Region:
        """Image under z -> -conj(z), which is x -> -x."""
        return Region(name or f"mirror({self.name})",
                      tuple(p.mirror() for p in self.prims), self.includes_infinity)

    def translate(self, t: FieldElement, name: str | None = None) -> Region:
        return Region(
            name or f"{self.name}+t",
            tuple(p.translate(t) for p in self.prims),
            self.includes_infinity,
        )

    def invert(self, name: str | None = None) -> Region:
        """Primitive-wise image under z -> 1/z (valid for our dual cells)."""
        return Region(
            name or f"({self.name})^-1",
            tuple(p.invert() for p in self.prims),
            includes_infinity=False,
        )

    # -- float path -------------------------------------------------------
    def inside_xy(self, x: np.ndarray, y: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        """Vectorized strict membership: every row's value qq*r + bx*x + by*y
        + dd, r = x^2 + 3y^2, lies below minus its band half-width scale*tol
        (scale the primitive's `scale_float`), at a point where r is finite.
        A point within the band of a row is outside."""
        import numpy as np
        x, y = np.asarray(x), np.asarray(y)
        col = (-1,) + (1,) * x.ndim
        coef, scale = self._rows
        qq, bx, by, dd = (c.reshape(col) for c in coef.T)
        with np.errstate(invalid="ignore", over="ignore"):
            r = x * x + 3.0 * y * y
            v = qq * r + bx * x + by * y + dd
        return (v < -scale.reshape(col) * tol).all(axis=0) & np.isfinite(r)

    def bbox_real(self) -> tuple[float, float, float, float]:
        """(xlo, xhi, ylo, yhi) in real coordinates, from the boundary: the
        piece ends and the points where an arc runs parallel to an axis."""
        pts = []
        for pc in self.boundary():
            pts += [pc.start, pc.end]
            if pc.radius:
                quarter = math.pi / 2
                pts += [complex(pc.at(j * quarter)) for j in
                        range(math.ceil(pc.t1 / quarter), math.floor(pc.t2 / quarter) + 1)]
        xs, ys = [z.real for z in pts], [z.imag for z in pts]
        return min(xs), max(xs), min(ys), max(ys)

    def boundary(self) -> list[Piece]:
        """The arcs and segments that bound the region, in primitive order.

        Each constraint curve is cut where the others meet it, and a piece is
        kept when every other constraint holds at its midpoint.  A region with
        an "==" constraint is a trace of that curve, which alone is cut.
        Raises ValueError when a kept piece is unbounded.
        """
        curves = [_curve(p) for p in self.prims]
        carriers = [i for i, p in enumerate(self.prims) if p.rel == "=="]
        pieces: list[Piece] = []
        for i in carriers or range(len(curves)):
            c, r, g = curves[i]
            cuts = [t for j, cj in enumerate(curves) if j != i for t in _cuts(curves[i], cj)]
            brk = sorted(set(cuts)) or [0.0]
            if r:
                spans = zip(brk, brk[1:] + [brk[0] + 2 * math.pi])
            else:
                spans = zip([-math.inf] + brk, brk + [math.inf])
            for t1, t2 in spans:
                if t2 - t1 < _PIECE_EPS:
                    continue
                tm = 0.5 * (t1 + t2)
                if r:
                    zm = c + r * complex(math.cos(tm), math.sin(tm))
                else:  # on a ray, any point of it will do
                    tm = t2 - 1.0 if tm == -math.inf else t1 + 1.0 if tm == math.inf else tm
                    zm = c + tm * 1j * g
                if all(_SIDE[self.prims[j].rel] * (abs(zm - c2) - r2 if r2 else _dot(zm - c2, g2))
                       >= _PIECE_EPS for j, (c2, r2, g2) in enumerate(curves) if j != i):
                    if math.isinf(t2 - t1):
                        raise ValueError(f"{self.name} has an unbounded boundary")
                    pieces.append(Piece(self.prims[i], t1, t2, c, r, g))
        return pieces


def _disk(k: int, scale: Fraction, rel: str) -> Primitive:
    """|z - scale*eta_k| rel sqrt(1/3), as a primitive."""
    eta = embed(ETAS[k])
    return circle(scale * eta.x, scale * eta.y, Fraction(1, 3), rel)


@dataclass(frozen=True)
class Catalog:
    u0: Region
    u_cells: dict[tuple[int, int], Region]
    v_cells: dict[tuple[int, int], Region]
    v_star: dict[tuple[int, int], Region]
    segments: dict[int, Region]
    s_sets: dict[tuple[str, int], Region]


# V_{k,1} and its dual cell for k a key are the images of V_{j,1} and its dual
# cell, j the value, under R(z) = zeta*conj(z), the reflection in the bisector
# of the first sextant: a mirror pair with equal integrals
MIRROR_PAIRS = {3: 2, 5: 4}


def _rotations(stem: str, bases: dict[int, tuple[Primitive, ...]]
               ) -> dict[tuple[int, int], Region]:
    """The family {(k, l): zeta^(l-1) times base k}, named stem_k_l; a base
    k of MIRROR_PAIRS that `bases` leaves out is R of its partner: the
    mirror z -> -conj(z), then zeta^4."""
    base = {k: Region(f"{stem}_{k}_1", prims) for k, prims in bases.items()}
    base.update({k: base[j].mirror().rotate(4, f"{stem}_{k}_1")
                 for k, j in MIRROR_PAIRS.items() if k not in bases})
    return {(k, l): base[k].rotate(l - 1, f"{stem}_{k}_{l}")
            for k in sorted(base) for l in range(1, 7)}


@lru_cache(maxsize=1)
def build_catalog() -> Catalog:
    u0 = Region("U0", HEX_OPEN)
    h = Fraction(1, 2)
    third = Fraction(1, 3)
    two_thirds = Fraction(2, 3)

    # U-cells at l = 1; U_{k,l} = zeta^(l-1) U_{k,1}.
    above_diag = half_plane(-1, 1, 0, ">")   # y > x, i.e. Im > sqrt(3) Re
    below_diag = half_plane(-1, 1, 0, "<")
    u_cells = _rotations("U", {
        1: HEX_OPEN + (_disk(4, two_thirds, ">"),),
        2: HEX_OPEN + (_disk(4, third, ">"),),
        3: HEX_OPEN + (above_diag,),
        4: HEX_OPEN + (_disk(4, two_thirds, ">"), above_diag),
        5: HEX_OPEN + (_disk(5, two_thirds, ">"), below_diag),
    })

    # V-cells at l = 1 (the six faces of the first sextant); V_{3,1} and
    # V_{5,1} are the mirror images of V_{2,1} and V_{4,1}.
    quadrant = (half_plane(1, 0, 0, ">"), half_plane(0, 1, 0, ">"))
    v_cells = _rotations("V", {
        1: HEX_OPEN + (_disk(6, third, "<"), _disk(2, third, "<")),
        2: HEX_OPEN + (_disk(1, two_thirds, ">"), _disk(2, third, ">")) + quadrant,
        4: HEX_OPEN + (_disk(6, third, "<"), _disk(1, two_thirds, "<")),
        6: HEX_OPEN + (_disk(6, third, ">"), _disk(2, third, ">")) + quadrant,
    })

    # Dual cells at l = 1; all are intersections of circle exteriors, and
    # Vstar_{3,1} and Vstar_{5,1} are mirror images as above.
    out_unit = UNIT_CIRCLE_GT
    c_s3 = circle(0, h, Fraction(1, 4), ">")          # |z - sqrt(-3)/2| > 1/2
    c_eta = circle(Fraction(3, 4), Fraction(1, 4), Fraction(1, 4), ">")
    c_etabar = circle(Fraction(3, 4), -Fraction(1, 4), Fraction(1, 4), ">")
    c_eta_big = circle(Fraction(3, 2), h, 1, ">")      # |z - eta| > 1
    v_star = _rotations("Vstar", {
        1: (out_unit, c_s3, c_eta, c_etabar),
        2: (out_unit, c_eta, c_etabar),
        4: (out_unit, c_eta_big, c_etabar),
        6: (out_unit, c_eta_big),
    })

    # Boundary segments and arcs reachable as images of degenerate cylinders:
    # L1 the top edge of U and L4 the diameter through zeta, L2 and L3 the
    # edges zeta^2 L1 and zeta^4 L1, L5 and L6 the diameters zeta^2 L4 and
    # zeta L4.
    x_lt = lambda w: half_plane(1, 0, w, "<")
    x_gt = lambda w: half_plane(1, 0, w, ">")
    y_lt = lambda w: half_plane(0, 1, w, "<")
    top = Region("L1", (half_plane(0, 1, h, "=="), x_gt(-h), x_lt(h)))
    diameter = Region("L4", (half_plane(-1, 1, 0, "=="), x_gt(-h), x_lt(h)))
    segments = {1: top, 2: top.rotate(2, "L2"), 3: top.rotate(4, "L3"),
                4: diameter, 5: diameter.rotate(2, "L5"), 6: diameter.rotate(1, "L6")}
    # arcs L7..L12: circle traces inside the open hexagon (printed with "<",
    # which would be two-dimensional; see REGION_ERRATA.md)
    for j, (scale, k) in enumerate(product((two_thirds, third), (2, 4, 6)), 7):
        segments[j] = Region(f"L{j}", (_disk(k, scale, "=="), *HEX_OPEN))

    # Ratio tracks of the two special-vertex expansions (eighth circles/rays).
    # The conj(zeta) family is the mirror image z -> -conj(z) of the -zeta
    # family, which repairs two printed side-constraints (REGION_ERRATA.md).
    minus_zeta = [
        Region("S_minus_zeta_0", (half_plane(0, 1, -h, "=="), x_lt(-h)), includes_infinity=True),
        Region("S_minus_zeta_1",
               (circle(0, -two_thirds, third, "=="), y_lt(-h), half_plane(1, 0, 0, "<="))),
        Region("S_minus_zeta_2", (circle(0, -third, third, "=="), y_lt(-h),
                                  half_plane(1, 0, 0, "<="), UNIT_CIRCLE_GT)),
        Region("S_minus_zeta_3", (half_plane(0, 1, 0, "=="), x_gt(1))),
    ]
    s_sets = {("minus_zeta", n): reg for n, reg in enumerate(minus_zeta)}
    s_sets.update({("zeta_bar", n): reg.mirror(f"S_zeta_bar_{n}")
                   for n, reg in enumerate(minus_zeta)})

    return Catalog(u0, u_cells, v_cells, v_star, segments, s_sets)


def cell_of(z: FieldElement) -> tuple[int, int]:
    """The unique (k, l) with z in the open cell V_{k,l}: the key of that cell
    in `Catalog.v_cells` and of its dual cell in `Catalog.v_star`.

    V_{k,l} lies in the closed sextant (l-1)pi/3 <= arg z <= l*pi/3, so the
    open cell lies in the open sextant.  For z = (a + b*sqrt(-3))/c, c > 0,
    the six rays are b = 0, a = b and a = -b: a point on one lies in no cell,
    and any other point is tested against the six cells of its own sextant.
    """
    cat = build_catalog()
    a, b = z.a, z.b
    hits = []
    if b and a != b and a != -b:
        if b > 0:
            s = 0 if a > b else 1 if a > -b else 2
        else:
            s = 3 if a < b else 4 if a < -b else 5
        hits = [(k, s + 1) for k in range(1, 7) if cat.v_cells[(k, s + 1)].contains(z)]
    if len(hits) == 1:
        return hits[0]
    if len(hits) > 1:
        raise AssertionError(f"{z} lies in several cells: {hits}")
    if in_U(z):
        raise BoundaryPoint(f"{z} lies on a cell boundary")
    raise NotInU(f"{z} is not in U")


def classify_cells_complex(
    z: np.ndarray, catalog: Catalog | None = None, tol: float = 1e-12
) -> np.ndarray:
    """Vectorized cell classification: index 6*(k-1)+(l-1), or -1 off-cell.

    The sextant is read as `cell_of` reads it, from the signs of y, x - y
    and x + y (z = x + y*sqrt(-3)); a point on a ray, or not finite, lies in
    no sextant.  A point in sextant s is tested against V_{1,s+1}, ...,
    V_{6,s+1} in turn, each test only on the points no earlier cell took,
    and belongs to the first cell it lies strictly inside (`inside_xy`).
    The cells are disjoint open sets and the band is far wider than float
    error, so the first hit is the only one.  A point within tol of a
    sextant ray is within tol of a cell boundary and comes back -1.
    """
    import numpy as np
    cat = catalog or build_catalog()
    z = np.asarray(z)
    flat = z.reshape(-1)
    x, y = flat.real, flat.imag / SQRT3
    # with t = [x > y] + [x > -y], the sextant is 2 - t above the real axis
    # and 3 + t below it
    t = (x > y).view(np.int8) + (x > -y).view(np.int8)
    sextant = np.where(y > 0, 2 - t, 3 + t)
    sextant[~((y != 0) & (x != y) & (x != -y) & np.isfinite(flat))] = -1
    idx = np.full(flat.shape, -1, dtype=np.int64)
    for s in range(6):
        left = np.flatnonzero(sextant == s)
        for k in range(1, 7):
            if not left.size:
                break
            hit = cat.v_cells[(k, s + 1)].inside_xy(x[left], y[left], tol)
            idx[left[hit]] = 6 * (k - 1) + s
            left = left[~hit]
    return idx.reshape(z.shape)


def rational_points_on(prim: Primitive, ts: Iterable[Fraction]) -> list[FieldElement]:
    """Rational points on a circle/line primitive, one per parameter t.

    Circles are swept by chords of rational slope through a rational base
    point; lines are parametrized directly.
    """
    pts: list[FieldElement] = []
    if prim.qq == 0:
        # line bx*x + by*y + dd = 0
        bx, by, dd = Fraction(prim.bx), Fraction(prim.by), Fraction(prim.dd)
        for t in map(Fraction, ts):
            x, y = (t, -(bx * t + dd) / by) if by else (-dd / bx, t)
            pts.append(FieldElement.from_xy(x, y))
        return pts
    x0, y0 = _rational_base_point(prim)
    qq, bx, by, dd = (Fraction(v) for v in (prim.qq, prim.bx, prim.by, prim.dd))
    for t in map(Fraction, ts):
        # chord (x0 + s, y0 + t*s): qq((x0+s)^2 + 3(y0+t s)^2) + ... = 0
        s = -(2 * qq * (x0 + 3 * t * y0) + bx + by * t) / (qq * (1 + 3 * t * t))
        if s != 0:
            pts.append(FieldElement.from_xy(x0 + s, y0 + t * s))
    return pts


@lru_cache(maxsize=64)
def _rational_base_point(prim: Primitive) -> tuple[Fraction, Fraction]:
    """Some rational point on the circle primitive."""
    cx, cy, r_sq = prim.circle_data()
    # try intersections with horizontal rational lines y = cy + u
    for num in range(0, 200):
        for den in (1, 2, 3, 4, 6, 12):
            for sgn in (1, -1):
                u = Fraction(sgn * num, den)
                rem = r_sq - 3 * u * u
                if rem < 0:
                    continue
                root = Fraction(math.isqrt(rem.numerator), math.isqrt(rem.denominator))
                if root * root == rem:
                    return cx + root, cy + u
    raise ValueError(f"no rational point found on {prim}")
