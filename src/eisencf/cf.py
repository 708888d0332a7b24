"""The continued fraction map T, digit expansions, and convergents.

T(z) = 1/z - [1/z] on U \\ {0}, T(0) = 0, with digits [1/z] in the module
J = eta*Z[zeta].  The two hexagon vertices -zeta and conj(zeta) that belong
to U are fixed points of T whose raw digit sequence (sqrt(-3) forever) does
not converge; they carry hand-defined period-4 expansions instead, which
``expand`` splices in whenever an orbit reaches them.  ``step_T`` alone
decides where T is defined and where it stops: it raises ``OrbitSignal`` at
the points of ``STOPS`` (0 and the two vertices) and ``DomainError`` outside
U, so ``expand`` raises that error at its first step.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Union

from .exact import (
    ETA,
    ETA_BAR,
    E_ONE,
    EisensteinInt,
    F_ZERO,
    FieldElement,
    MINUS_ZETA,
    SQRT_M3,
    ZETA_BAR,
    embed,
    j_element,
)
from .hexdomain import DomainError, _round_J, in_U


class OrbitSignal(Exception):
    """The orbit reached a point of STOPS, kept as ``point``."""

    def __init__(self, point: FieldElement):
        super().__init__(f"the orbit stops at {point}")
        self.point = point


class Infinity:
    def __repr__(self) -> str:
        return "INF"


INF = Infinity()

# Period-4 digit cycles of the two special vertices.  The cycle for -zeta is
# (sqrt(-3), sqrt(-3), -conj(eta), eta); the one for conj(zeta) is its image
# under z -> -conj(z) and is the unique candidate whose convergents actually
# reach conj(zeta) (the tests pin it against the sign-flipped alternative
# (sqrt(-3), sqrt(-3), -eta, conj(eta)) of tests/oracles.py, which converges
# elsewhere).
SPECIAL_PERIOD: dict[FieldElement, tuple[EisensteinInt, ...]] = {
    MINUS_ZETA: (SQRT_M3, SQRT_M3, -ETA_BAR, ETA),
    ZETA_BAR: (SQRT_M3, SQRT_M3, ETA, -ETA_BAR),
}
# where T stops: 0, where an expansion terminates, and the two vertices
STOPS = frozenset((F_ZERO, *SPECIAL_PERIOD))


def special_digits(point: FieldElement, count: int) -> list[EisensteinInt]:
    if point not in SPECIAL_PERIOD:
        raise ValueError(f"{point} is not a special point")
    period = SPECIAL_PERIOD[point]
    return [period[i % 4] for i in range(count)]


def step_T(z: FieldElement) -> tuple[EisensteinInt, FieldElement]:
    """One step of the map: digit [1/z] and the image 1/z - [1/z]; raises
    OrbitSignal(z) at a point of STOPS and DomainError outside U."""
    if z in STOPS:
        raise OrbitSignal(z)
    if not in_U(z):
        raise DomainError(f"{z} is not in U")
    # 1/z = (c*a - c*b*sqrt(-3))/(a^2 + 3b^2), rounded without reducing it
    a, b, c = z.a, z.b, z.c
    n = a * a + 3 * b * b
    m, k, ra, rb = _round_J(c * a, -c * b, n)
    return j_element(m, k), FieldElement(ra, rb, 2 * n)


class TerminatedAtZero(NamedTuple):
    step: int


class Truncated(NamedTuple):
    """The digit budget ran out.  An empty tuple, so it is falsy: tell the
    terminals apart by type, never by truth value."""


class SpecialPeriodic(NamedTuple):
    point: FieldElement
    entry_index: int


Terminal = Union[TerminatedAtZero, Truncated, SpecialPeriodic]


class Expansion(NamedTuple):
    digits: tuple[EisensteinInt, ...]
    terminal: Terminal
    points: tuple[FieldElement, ...]  # z_0 .. z_n along the expansion

    exact = True   # every digit and point is computed exactly


def expand(z: FieldElement, max_digits: int = 256) -> Expansion:
    """Digit expansion of z in U, splicing special expansions when needed.
    A point outside U raises DomainError at its first step.

    Exact-value growth is roughly geometric in the digit count, which is why
    the depth is capped.
    """
    digits: list[EisensteinInt] = []
    points: list[FieldElement] = [z]
    cur = z
    while len(digits) < max_digits:
        try:
            d, cur = step_T(cur)
        except OrbitSignal as stop:
            entry = len(digits)
            if stop.point == F_ZERO:
                return Expansion(tuple(digits), TerminatedAtZero(entry), tuple(points))
            # the spliced digits walk the vertex's 4-cycle and rebind cur,
            # so the terminal names stop.point
            for d in special_digits(stop.point, max_digits - entry):
                cur = cur.inv() - embed(d)
                digits.append(d)
                points.append(cur)
            return Expansion(tuple(digits), SpecialPeriodic(stop.point, entry), tuple(points))
        digits.append(d)
        points.append(cur)
    return Expansion(tuple(digits), Truncated(), tuple(points))


class ConvergentPair(NamedTuple):
    """Matrix state ((p_{n-1}, p_n), (q_{n-1}, q_n)) after n digits."""

    p_prev: EisensteinInt
    p: EisensteinInt
    q_prev: EisensteinInt
    q: EisensteinInt

    def det(self) -> EisensteinInt:
        return self.p_prev * self.q - self.p * self.q_prev

    def push(self, digit: EisensteinInt) -> ConvergentPair:
        return ConvergentPair(
            self.p, digit * self.p + self.p_prev,
            self.q, digit * self.q + self.q_prev,
        )

    def ratio(self) -> FieldElement:
        if self.q.is_zero():
            raise ZeroDivisionError("q_n = 0")
        return embed(self.p) / embed(self.q)

    def dual_ratio(self) -> FieldElement:
        """-q_n/q_(n-1), the point w_n of the dual system after n digits."""
        return -(embed(self.q) / embed(self.q_prev))


INITIAL_CONVERGENT = ConvergentPair(E_ONE, EisensteinInt(0, 0), EisensteinInt(0, 0), E_ONE)


def convergents(digits: Sequence[EisensteinInt]) -> list[ConvergentPair]:
    """Convergent states after 0, 1, ..., len(digits) digits."""
    out = [INITIAL_CONVERGENT]
    for d in digits:
        out.append(out[-1].push(d))
    return out


def eval_cf(
    digits: Sequence[EisensteinInt], tail: FieldElement | Infinity = F_ZERO
) -> FieldElement | Infinity:
    """Value of 1/(b_1 + 1/(b_2 + ... + 1/(b_n + tail))), exactly.

    The evaluation is projective, so intermediate infinities (vanishing
    partial denominators) are harmless; INF is returned only when the full
    value is the point at infinity.  Conventions: 1/INF = 0.
    """
    # num/den with num = p + q*zeta and den = r + s*zeta in Z[zeta];
    # (a + b*sqrt(-3))/c = ((a - b) + 2b*zeta)/c.  Each step is unimodular
    # over Z[zeta], so the pair keeps its common integer factor and needs
    # no gcd.
    if isinstance(tail, Infinity):
        p, q, r, s = 1, 0, 0, 0
    else:
        p, q, r, s = tail.a - tail.b, 2 * tail.b, tail.c, 0
    for d in reversed(digits):
        # (num, den) -> (den, d*den + num), zeta^2 = zeta - 1
        p, q, r, s = r, s, d.a * r - d.b * s + p, d.a * s + d.b * (r + s) + q
    if r == s == 0:
        return INF
    # num/den = (P + q*sqrt(-3))(R - s*sqrt(-3))/(R^2 + 3s^2), P = 2p + q, R = 2r + s
    P, R = 2 * p + q, 2 * r + s
    return FieldElement(P * R + 3 * q * s, q * R - P * s, R * R + 3 * s * s)
