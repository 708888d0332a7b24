"""The hexagonal fundamental domain U of C/J and the rounding map z -> [z].

U is the hexagon with vertices 1, zeta, -conj(zeta), -1, -zeta, conj(zeta):
the Voronoi cell of 0 in the lattice J = eta*Z[zeta], taken with a half-open
boundary so that the translates alpha + U, alpha in J, tile the plane with
exactly one representative per coset.  In coordinates z = x + y*sqrt(-3)
the convention is

    z in U  iff  |y| < 1/2 and |x+y| < 1 and |x-y| < 1           (interior)
             or  y = 1/2  and -1/2 < x < 1/2                     (top edge)
             or  x - y = 1 and -1/2 <= y < 0                     (edge incl. conj(zeta))
             or  x + y = -1 and -1/2 <= y < 0                    (edge incl. -zeta)

so the two vertices -zeta and conj(zeta) belong to U while zeta, -conj(zeta)
and +-1 do not.

As U is a Voronoi cell, [z] is a nearest point of J.  _round_J rounds z in
integers to each coset of J (the lattice {x in 3Z, y in Z} and its shift by
(3/2, 1/2)) and keeps the nearer point with its residual z - [z], the A2
decoder of Conway and Sloane (IEEE Trans. Inf. Theory 28, 1982).  A residual
in U certifies the result; ties and boundary points fall back to a search of
the nine nearby points.  floor_J returns the point alone.
"""

from __future__ import annotations

from .exact import EisensteinInt, FieldElement, j_element


class DomainError(ValueError):
    """Argument outside the fundamental domain U."""


class TilingError(RuntimeError):
    """The neighbour search of _round_J did not find exactly one representative."""


def _in_U0(a: int, b: int, c: int) -> bool:
    # z = (a + b*sqrt(-3))/c with c > 0, not necessarily in lowest terms
    return 2 * abs(b) < c and abs(a + b) < c and abs(a - b) < c


def _in_U(a: int, b: int, c: int) -> bool:
    if _in_U0(a, b, c):
        return True
    if 2 * b == c and 2 * abs(a) < c:
        return True
    if -c <= 2 * b and b < 0:
        if a - b == c or a + b == -c:
            return True
    return False


def in_U0(z: FieldElement) -> bool:
    """Whether z lies in the open hexagon U0, the interior of U."""
    return _in_U0(z.a, z.b, z.c)


def in_U(z: FieldElement) -> bool:
    return _in_U(z.a, z.b, z.c)


_OFFSETS = (
    (0, 0), (1, 0), (-1, 0), (0, 1), (0, -1),
    (1, 1), (1, -1), (-1, 1), (-1, -1),
)


def _nearest(a: int, b: int, c: int) -> tuple[int, int, int, int]:
    """A nearest point m*eta + n*sqrt(-3) of J to z = (a + b*sqrt(-3))/c,
    c > 0, as (m, n, ra, rb) with z - alpha = (ra + rb*sqrt(-3))/(2c)."""
    # round to the cosets x = 3p, y = q and x = 3p + 3/2, y = q + 1/2, then
    # compare the squared distances times 4c^2
    p1, q1 = (2 * a + 3 * c) // (6 * c), (2 * b + c) // (2 * c)
    p2, q2 = a // (3 * c), b // c
    ra1, rb1 = 2 * a - 6 * p1 * c, 2 * b - 2 * q1 * c
    ra2, rb2 = 2 * a - (6 * p2 + 3) * c, 2 * b - (2 * q2 + 1) * c
    if ra1 * ra1 + 3 * rb1 * rb1 <= ra2 * ra2 + 3 * rb2 * rb2:
        return 2 * p1, q1 - p1, ra1, rb1
    return 2 * p2 + 1, q2 - p2, ra2, rb2


def _round_J(a: int, b: int, c: int) -> tuple[int, int, int, int]:
    """[z] = m*eta + n*sqrt(-3) for z = (a + b*sqrt(-3))/c, c > 0, in lowest
    terms or not, as (m, n, ra, rb) with z - [z] = (ra + rb*sqrt(-3))/(2c)."""
    m, n, ra, rb = _nearest(a, b, c)
    if _in_U(ra, rb, 2 * c):
        return m, n, ra, rb
    # z - alpha lies on the boundary of U; the loop tries all nine points
    # alpha + dm*eta + dn*sqrt(-3), |dm|, |dn| <= 1: alpha, its six
    # neighbours in J and the two offsets +-(eta + sqrt(-3)), of norm 9.
    # Each residual is z - alpha less (3dm + (dm + 2dn) sqrt(-3))/2
    hit: tuple[int, int, int, int] | None = None
    for dm, dn in _OFFSETS:
        r = (m + dm, n + dn, ra - 3 * dm * c, rb - (dm + 2 * dn) * c)
        if _in_U(r[2], r[3], 2 * c):
            if hit is not None:
                raise TilingError(f"multiple representatives for "
                                  f"{FieldElement(a, b, c)!r}: {hit[:2]}, {r[:2]}")
            hit = r
    if hit is None:
        raise TilingError(f"no representative found for {FieldElement(a, b, c)!r}")
    return hit


def floor_J(z: FieldElement) -> EisensteinInt:
    """The unique alpha in J with z - alpha in U."""
    return j_element(*_round_J(z.a, z.b, z.c)[:2])
