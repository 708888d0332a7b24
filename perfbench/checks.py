"""Correctness checks on the artifacts the CLI prints.

Each check takes one parsed artifact and returns a list of failure messages
(empty when the artifact is correct).  The expand check recomputes what it
needs with its own integer arithmetic in Z[zeta] (zeta^2 = zeta - 1), so it
does not trust the package's arithmetic it is checking.
"""

from __future__ import annotations

import math
from fractions import Fraction

# acceptance 11: the Birkhoff and space-average growth rates agree within 2%
LEVY_REL_TOL = 0.02
# the occupation frequencies of the open cells sum to 1 up to band losses
OCCUPATION_TOL = 0.02
# rounding bound of the CLI's float |z - p_n/q_n| for |z| < 1: the inputs,
# the complex division and the difference each round by a few units of
# 2^-53 of a quantity near 1
ABS_ERROR_TOL = 4e-15


def _mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    (a1, b1), (a2, b2) = x, y
    return a1 * a2 - b1 * b2, a1 * b2 + a2 * b1 + b1 * b2


def _norm(x: tuple[int, int]) -> int:
    a, b = x
    return a * a + a * b + b * b


def _pair(d: dict) -> tuple[int, int]:
    return int(d["a"]), int(d["b"])


def field_literal(a: int, b: int, c: int) -> str:
    """The CLI literal X+Yr of (a + b*sqrt(-3))/c."""
    x, y = Fraction(a, c), Fraction(b, c)
    return f"{x}{'+' if y >= 0 else '-'}{abs(y)}r"


def check_verify(doc: dict, n_checks: int) -> list[str]:
    """Every structural check ran and returned PASS."""
    fails = [f"check {c.get('name')} verdict {c.get('verdict')}"
             for c in doc.get("checks", []) if c.get("verdict") != "PASS"]
    if len(doc.get("checks", [])) != n_checks:
        fails.append(f"{len(doc.get('checks', []))} checks reported, "
                     f"{n_checks} expected")
    if doc.get("verdict") != "PASS":
        fails.append(f"overall verdict {doc.get('verdict')}")
    return fails


def check_expand(doc: dict, z: tuple[int, int, int], digits: int) -> list[str]:
    """Digits in J, convergent recurrences, unit determinants and the error
    identity.

    The identity |q_n z - p_n| = |z_0 z_1 ... z_n| < 1 is checked exactly:
    with z = (a + b*sqrt(-3))/c and q_n = Q1/2 + (Q2/2)*sqrt(-3),
    |q_n z - p_n|^2 = (R^2 + 3 S^2) / (4 c^2) for the integers R, S below.
    The printed `abs_errors[n]` is a float difference, so it is checked
    against the exact |z - p_n/q_n| to within ABS_ERROR_TOL.  The product
    abs_errors[n] * |q_n| itself is not bounded by 1: once |q_n| passes
    about 6e15, the float difference bottoms out near 1e-16 while the true
    error is far smaller.
    """
    fails: list[str] = []
    a, b, c = z
    if doc.get("z") != {"x": str(Fraction(a, c)), "y": str(Fraction(b, c))}:
        fails.append("artifact point differs from the requested point")
    digs = [_pair(d) for d in doc["digits"]]
    convs = doc["convergents"]
    errs = doc["abs_errors"]
    ended = doc["terminal"]["type"] != "Truncated"
    if len(digs) != digits and not ended:
        fails.append(f"{len(digs)} digits for a truncated expansion of {digits}")
    if not (len(convs) == len(errs) == len(digs)):
        fails.append("digit, convergent and error lists differ in length")
    p_prev, p, q_prev, q = (1, 0), (0, 0), (0, 0), (1, 0)
    for n, (d, conv, err) in enumerate(zip(digs, convs, errs), start=1):
        if (d[0] - d[1]) % 3 or d == (0, 0):
            fails.append(f"digit {n} = {d} is not a nonzero element of J")
        pn, qn = _pair(conv["p"]), _pair(conv["q"])
        dp, dq = _mul(d, p), _mul(d, q)
        if pn != (dp[0] + p_prev[0], dp[1] + p_prev[1]) or \
                qn != (dq[0] + q_prev[0], dq[1] + q_prev[1]):
            fails.append(f"convergent {n} breaks the recurrence")
        x, y = _mul(p, qn), _mul(pn, q)
        if _norm((x[0] - y[0], x[1] - y[1])) != 1:
            fails.append(f"determinant {n} does not have norm 1")
        if _norm(qn) == 0:
            if err is not None:
                fails.append(f"error {n} reported for q_n = 0")
        else:
            fails += _error_identity(n, z, pn, qn, err)
        p_prev, p, q_prev, q = p, pn, q, qn
    return fails


def _error_identity(n: int, z: tuple[int, int, int], p: tuple[int, int],
                    q: tuple[int, int], err: float | None) -> list[str]:
    a, b, c = z
    # q = (q1 + q2*sqrt(-3))/2, p likewise; (q z - p) = (r + s*sqrt(-3))/(2c)
    q1, q2 = 2 * q[0] + q[1], q[1]
    r = q1 * a - 3 * q2 * b - (2 * p[0] + p[1]) * c
    s = q1 * b + q2 * a - p[1] * c
    fails = []
    if not r * r + 3 * s * s < 4 * c * c:
        fails.append(f"error identity fails at {n}: |q_n z - p_n| >= 1")
    exact = math.sqrt(Fraction(r * r + 3 * s * s, 4 * c * c * _norm(q)))
    if err is None or not abs(err - exact) <= ABS_ERROR_TOL:
        fails.append(f"abs_errors[{n - 1}] = {err} but |z - p_n/q_n| = {exact:.6g}")
    return fails


def check_levy(doc: dict, err_cap: float | None) -> list[str]:
    """Acceptance 11's agreement of the two routes, occupation mass, C0,
    and a quadrature error no larger than the benchmark's reference."""
    fails: list[str] = []
    birk = doc["levy_birkhoff"]["value"]
    integral = doc["levy_integral"]["value"]
    err = doc["levy_integral"]["error"]
    c0 = doc["C0"]["value"]
    if not (math.isfinite(birk) and birk > 0):
        fails.append(f"Birkhoff estimate {birk} not finite and positive")
    elif not (math.isfinite(integral) and integral > 0):
        fails.append(f"integral estimate {integral} not finite and positive")
    elif abs(integral - birk) / birk > LEVY_REL_TOL:
        fails.append(f"routes disagree: Birkhoff {birk:.5f}, integral "
                     f"{integral:.5f}, rel {abs(integral - birk) / birk:.4f}")
    occ = sum(o["frequency"] for o in doc["occupation"])
    if abs(occ - 1.0) > OCCUPATION_TOL:
        fails.append(f"occupation sums to {occ:.4f}")
    if not (math.isfinite(c0) and c0 > 0):
        fails.append(f"C0 = {c0} not finite and positive")
    if err_cap is not None and not err <= err_cap:
        fails.append(f"quadrature error {err:.6f} above the reference cap "
                     f"{err_cap:.6f}")
    return fails
