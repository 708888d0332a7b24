"""The continued fraction map T, digit expansions, and convergents.

T(z) = 1/z - [1/z] on U \\ {0}, T(0) = 0, with digits [1/z] in the module
J = eta*Z[zeta].  The two hexagon vertices -zeta and conj(zeta) that belong
to U are fixed points of T whose raw digit sequence (sqrt(-3) forever) does
not converge; they carry hand-defined period-4 expansions instead, which
``expand`` splices in whenever an orbit reaches them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

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
from .hexdomain import _round_J, in_U


class DomainError(ValueError):
    """Argument outside the fundamental domain U."""


class OrbitSignal(Exception):
    pass


class ZeroOrbit(OrbitSignal):
    """The orbit reached 0; the expansion terminates."""


class SpecialPoint(OrbitSignal):
    """The orbit reached -zeta or conj(zeta)."""

    def __init__(self, point: FieldElement):
        super().__init__(f"special point {point}")
        self.point = point


class Infinity:
    def __repr__(self) -> str:
        return "INF"


INF = Infinity()

# Period-4 digit cycles of the two special vertices.  The cycle for -zeta is
# (sqrt(-3), sqrt(-3), -conj(eta), eta); the one for conj(zeta) is its image
# under z -> -conj(z) and is the unique candidate whose convergents actually
# reach conj(zeta) (pinned by an oracle test against the sign-flipped
# alternative (sqrt(-3), sqrt(-3), -eta, conj(eta)), which converges
# elsewhere).
SPECIAL_PERIOD: dict[FieldElement, tuple[EisensteinInt, ...]] = {
    MINUS_ZETA: (SQRT_M3, SQRT_M3, -ETA_BAR, ETA),
    ZETA_BAR: (SQRT_M3, SQRT_M3, ETA, -ETA_BAR),
}

REJECTED_ZETA_BAR_PERIOD: tuple[EisensteinInt, ...] = (SQRT_M3, SQRT_M3, -ETA, ETA_BAR)


def special_digits(point: FieldElement, count: int) -> list[EisensteinInt]:
    if point not in SPECIAL_PERIOD:
        raise ValueError(f"{point} is not a special point")
    period = SPECIAL_PERIOD[point]
    return [period[i % 4] for i in range(count)]


def step_T(z: FieldElement) -> tuple[EisensteinInt, FieldElement]:
    """One step of the map: digit [1/z] and the image 1/z - [1/z]."""
    if z.is_zero():
        raise ZeroOrbit()
    if z == MINUS_ZETA or z == ZETA_BAR:
        raise SpecialPoint(z)
    if not in_U(z):
        raise DomainError(f"{z} is not in U")
    # 1/z = (c*a - c*b*sqrt(-3))/(a^2 + 3b^2), rounded without reducing it
    a, b, c = z.a, z.b, z.c
    n = a * a + 3 * b * b
    m, k, ra, rb = _round_J(c * a, -c * b, n)
    return j_element(m, k), FieldElement(ra, rb, 2 * n)


@dataclass(frozen=True)
class TerminatedAtZero:
    step: int


@dataclass(frozen=True)
class Truncated:
    pass


@dataclass(frozen=True)
class SpecialPeriodic:
    point: FieldElement
    entry_index: int


Terminal = Union[TerminatedAtZero, Truncated, SpecialPeriodic]


@dataclass(frozen=True)
class Expansion:
    digits: tuple[EisensteinInt, ...]
    terminal: Terminal
    exact: bool
    points: tuple[FieldElement, ...]  # z_0 .. z_n along the expansion

    def __len__(self) -> int:
        return len(self.digits)


def expand(z: FieldElement, max_digits: int = 256) -> Expansion:
    """Digit expansion of z in U, splicing special expansions when needed.

    Exact-value growth is roughly geometric in the digit count, which is why
    the depth is capped.
    """
    if not in_U(z):
        raise DomainError(f"{z} is not in U")
    digits: list[EisensteinInt] = []
    points: list[FieldElement] = [z]
    cur = z
    while len(digits) < max_digits:
        try:
            d, cur = step_T(cur)
        except ZeroOrbit:
            return Expansion(tuple(digits), TerminatedAtZero(len(digits)), True, tuple(points))
        except SpecialPoint as sp:
            entry = len(digits)
            # cur is the special vertex; the spliced digits walk its 4-cycle
            for d in special_digits(sp.point, max_digits - entry):
                cur = cur.inv() - embed(d)
                digits.append(d)
                points.append(cur)
            return Expansion(tuple(digits), SpecialPeriodic(sp.point, entry), True, tuple(points))
        digits.append(d)
        points.append(cur)
    return Expansion(tuple(digits), Truncated(), True, tuple(points))


@dataclass(frozen=True)
class ConvergentPair:
    """Matrix state ((p_{n-1}, p_n), (q_{n-1}, q_n)) after n digits."""

    p_prev: EisensteinInt
    p: EisensteinInt
    q_prev: EisensteinInt
    q: EisensteinInt
    n: int

    def det(self) -> EisensteinInt:
        return self.p_prev * self.q - self.p * self.q_prev

    def push(self, digit: EisensteinInt) -> ConvergentPair:
        return ConvergentPair(
            self.p, digit * self.p + self.p_prev,
            self.q, digit * self.q + self.q_prev,
            self.n + 1,
        )

    def ratio(self) -> FieldElement:
        if self.q.is_zero():
            raise ZeroDivisionError("q_n = 0")
        return embed(self.p) / embed(self.q)


INITIAL_CONVERGENT = ConvergentPair(E_ONE, EisensteinInt(0, 0), EisensteinInt(0, 0), E_ONE, 0)


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


def error_product_check(z: FieldElement, n: int) -> tuple[Fraction, Fraction]:
    """Both sides of |z - p_n/q_n|^2 = |1/q_n|^2 * |z_0 z_1 ... z_n|^2, exact."""
    e = expand(z, n)
    if not isinstance(e.terminal, Truncated):
        raise ValueError(f"orbit of {z} ends before depth {n}")
    conv = convergents(e.digits)[n]
    lhs = (z - conv.ratio()).abs_sq()
    q_norm = Fraction(conv.q.norm())
    prod = Fraction(1)
    for zk in e.points:
        prod *= zk.abs_sq()
    rhs = prod / q_norm
    return lhs, rhs


def jump_map(
    z: FieldElement, max_steps: int = 64
) -> tuple[int | None, FieldElement]:
    """First index N with digit norm >= 9, and the point after N+1 steps.

    Returns (None, z) unchanged when no such index shows up within
    max_steps.  |b| >= 3 is tested as norm(b) >= 9, never in floats.
    """
    if not in_U(z):
        raise DomainError(f"{z} is not in U")
    cur = z
    for n in range(1, max_steps + 1):
        d, cur = step_T(cur)
        if d.norm() >= 9:
            _, out = step_T(cur)
            return n, out
    return None, z


def inverse_branch_derivative(c: ConvergentPair, z_n: FieldElement) -> FieldElement:
    """Derivative 1/(q_n + q_{n-1} z_n)^2 of the local inverse branch."""
    den = embed(c.q) + embed(c.q_prev) * z_n
    if den.is_zero():
        raise ZeroDivisionError("vanishing branch denominator")
    return (den * den).inv()
