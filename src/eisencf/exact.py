"""Exact arithmetic in Z[zeta] and Q(sqrt(-3)).

zeta = (1 + sqrt(-3))/2 is a primitive sixth root of unity and Z[zeta] is the
ring of integers of Q(sqrt(-3)).  Field elements are stored in the canonical
form (a + b*sqrt(-3))/c with integers a, b, c, c > 0, gcd(a, b, c) = 1, so
that every predicate in the package reduces to bounded integer arithmetic.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

SQRT3 = math.sqrt(3.0)
# the float layer's band: a point this near a constraint lies on neither side
BAND = 1e-12
# b * SQRT3 stays a finite float for |b| below this; a constant, since the
# compiler folds no power this large and would rebuild it on every call
_FLOAT_SAFE = 2**1023


class EisensteinInt:
    """Element a + b*zeta of Z[zeta], zeta^2 = zeta - 1; treated as immutable.

    Equal when the fields are; the hash is that of (a, b), which fixes the
    order in which a set of them iterates.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def __eq__(self, other) -> bool:
        if other.__class__ is not EisensteinInt:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        return f"EisensteinInt(a={self.a!r}, b={self.b!r})"

    def __add__(self, other: EisensteinInt) -> EisensteinInt:
        return EisensteinInt(self.a + other.a, self.b + other.b)

    def __sub__(self, other: EisensteinInt) -> EisensteinInt:
        return EisensteinInt(self.a - other.a, self.b - other.b)

    def __neg__(self) -> EisensteinInt:
        return EisensteinInt(-self.a, -self.b)

    def __mul__(self, other: EisensteinInt | int) -> EisensteinInt:
        if isinstance(other, int):
            return EisensteinInt(self.a * other, self.b * other)
        # (a1 + b1 z)(a2 + b2 z), z^2 = z - 1
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return EisensteinInt(a1 * a2 - b1 * b2, a1 * b2 + a2 * b1 + b1 * b2)

    def __rmul__(self, other: int) -> EisensteinInt:
        return self * other

    def __pow__(self, n: int) -> EisensteinInt:
        if n < 0:
            raise ValueError("negative powers are not integral")
        out = E_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> EisensteinInt:
        return EisensteinInt(self.a + self.b, -self.b)

    def norm(self) -> int:
        return self.a * self.a + self.a * self.b + self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def approx(self) -> complex:
        return complex(self.a + self.b / 2.0, self.b * SQRT3 / 2.0)

    def __str__(self) -> str:
        return f"{self.a}{self.b:+}z"


E_ZERO = EisensteinInt(0, 0)
E_ONE = EisensteinInt(1, 0)
ZETA = EisensteinInt(0, 1)
ETA = EisensteinInt(1, 1)              # (3 + sqrt(-3))/2 = 1 + zeta, norm 3
ETA_BAR = EisensteinInt(2, -1)         # conj(eta) = (3 - sqrt(-3))/2
SQRT_M3 = EisensteinInt(-1, 2)         # sqrt(-3) = 2*zeta - 1


def eta_k(k: int) -> EisensteinInt:
    """The six norm-3 generators eta_k = zeta^(k-1) * eta, k = 1..6."""
    return ZETA ** ((k - 1) % 6) * ETA


ETAS = {k: eta_k(k) for k in range(1, 7)}


def in_J(e: EisensteinInt) -> bool:
    """Whether e lies in the digit module J = eta * Z[zeta].

    eta | (a + b*zeta) iff a = b (mod 3): in Z[zeta]/(eta) = Z/3 one has
    zeta = -1, so a + b*zeta = a - b.  (Cross-checked against the quotient
    (a + b*zeta) * conj(eta) / 3 in the test-suite.)
    """
    return (e.a - e.b) % 3 == 0


def j_element(m: int, n: int) -> EisensteinInt:
    """m*eta + n*sqrt(-3); {eta, sqrt(-3)} is a Z-basis of J."""
    return EisensteinInt(m - n, m + 2 * n)


class FieldElement:
    """Element (a + b*sqrt(-3))/c of Q(sqrt(-3)) in canonical reduced form;
    treated as immutable."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int = 1):
        if c == 0:
            raise ZeroDivisionError("zero denominator")
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(a, b, c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        self.a, self.b, self.c = a, b, c

    @property
    def x(self) -> Fraction:
        return Fraction(self.a, self.c)

    @property
    def y(self) -> Fraction:
        return Fraction(self.b, self.c)

    @classmethod
    def from_xy(cls, x, y) -> FieldElement:
        fx, fy = Fraction(x), Fraction(y)
        d = fx.denominator * fy.denominator // math.gcd(fx.denominator, fy.denominator)
        return cls(int(fx * d), int(fy * d), d)

    def __add__(self, other: FieldElement) -> FieldElement:
        return FieldElement(
            self.a * other.c + other.a * self.c,
            self.b * other.c + other.b * self.c,
            self.c * other.c,
        )

    def __sub__(self, other: FieldElement) -> FieldElement:
        return FieldElement(
            self.a * other.c - other.a * self.c,
            self.b * other.c - other.b * self.c,
            self.c * other.c,
        )

    def __neg__(self) -> FieldElement:
        return FieldElement(-self.a, -self.b, self.c)

    def __mul__(self, other: FieldElement) -> FieldElement:
        # (a1 + b1 r)(a2 + b2 r) = a1 a2 - 3 b1 b2 + (a1 b2 + a2 b1) r
        return FieldElement(
            self.a * other.a - 3 * self.b * other.b,
            self.a * other.b + other.a * self.b,
            self.c * other.c,
        )

    def inv(self) -> FieldElement:
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(sqrt(-3))")
        n = self.a * self.a + 3 * self.b * self.b
        return FieldElement(self.c * self.a, -self.c * self.b, n)

    def __truediv__(self, other: FieldElement) -> FieldElement:
        return self * other.inv()

    def conj(self) -> FieldElement:
        return FieldElement(self.a, -self.b, self.c)

    def abs_sq(self) -> Fraction:
        return Fraction(self.a * self.a + 3 * self.b * self.b, self.c * self.c)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.c == other.c

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c))

    def approx(self) -> complex:
        # b * SQRT3 turns b into a float, which overflows where b / c need not
        y = self.b * SQRT3 / self.c if max(abs(self.b), self.c) < _FLOAT_SAFE else (
            self.b / self.c * SQRT3)
        return complex(self.a / self.c, y)

    def to_eisenstein(self) -> EisensteinInt | None:
        """Inverse of embed() when the value is an algebraic integer."""
        # x + y r = (x - y) + 2y * zeta
        if (2 * self.b) % self.c or (self.a - self.b) % self.c:
            return None
        return EisensteinInt((self.a - self.b) // self.c, 2 * self.b // self.c)

    def __str__(self) -> str:
        return format_field_element(self)

    def __repr__(self) -> str:
        return f"FieldElement({self.a}, {self.b}, {self.c})"


F_ZERO = FieldElement(0, 0)
F_ONE = FieldElement(1, 0)
MINUS_ZETA = FieldElement(-1, -1, 2)
ZETA_BAR = FieldElement(1, -1, 2)


def embed(e: EisensteinInt) -> FieldElement:
    """Exact image of a + b*zeta = (2a + b)/2 + (b/2) sqrt(-3)."""
    return FieldElement(2 * e.a + e.b, e.b, 2)


_RAT = r"[+-]?\d+(?:/\d+)?"
_FIELD_RE = re.compile(rf"^\s*({_RAT})\s*([+-])\s*(\d+(?:/\d+)?)r\s*$")


def parse_field_element(text: str) -> FieldElement:
    """Parse the textual form ``X+Yr`` with rational X, Y and r = sqrt(-3)."""
    m = _FIELD_RE.match(text)
    if m is None:
        raise ValueError(f"not a field element literal: {text!r}")
    try:
        x, y = Fraction(m.group(1)), Fraction(m.group(3))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    if m.group(2) == "-":
        y = -y
    return FieldElement.from_xy(x, y)


def _fmt_rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_field_element(f: FieldElement) -> str:
    y = f.y
    sign = "+" if y >= 0 else "-"
    return f"{_fmt_rat(f.x)}{sign}{_fmt_rat(abs(y))}r"


def field_element_to_json(f: FieldElement) -> dict:
    return {"x": _fmt_rat(f.x), "y": _fmt_rat(f.y)}
