"""Test oracles of paper claims: exact or statistical identities that the
tests check and no command runs."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from eisencf._util import CheckReport, derive_seed
from eisencf.cf import ConvergentPair, Truncated, convergents, expand, step_T
from eisencf.ergodic import (_ROOTS, _RULES, CELLS, ArcQuadrature, _graded_rule,
                             occupation_frequencies, simulate_orbits)
from eisencf.exact import (ETA, ETA_BAR, SQRT3, SQRT_M3, EisensteinInt, FieldElement, embed,
                           j_element)
from eisencf.hexdomain import _OFFSETS, DomainError, in_U
from eisencf.regions import Catalog, Primitive, Region, _rational_base_point, rational_point

# the sign-flipped alternative to cf.SPECIAL_PERIOD[ZETA_BAR]: its
# convergents converge, but not to conj(zeta)
REJECTED_ZETA_BAR_PERIOD: tuple[EisensteinInt, ...] = (SQRT_M3, SQRT_M3, -ETA, ETA_BAR)


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


def field_element_from_json(d: dict) -> FieldElement:
    """The inverse of `exact.field_element_to_json`."""
    return FieldElement.from_xy(Fraction(d["x"]), Fraction(d["y"]))


def scale_float_reference(prim: Primitive) -> float:
    """`Primitive.scale_float` with a circle's centre and radius computed
    in floats from its coefficients: 2 |qq| r, or |grad P| of a line."""
    if prim.qq == 0:
        return math.hypot(prim.bx, prim.by / SQRT3)
    cx = -prim.bx / (2.0 * prim.qq)
    cy = -prim.by / (6.0 * prim.qq)
    r_sq = cx * cx + 3.0 * cy * cy - prim.dd / prim.qq
    return 2.0 * abs(prim.qq) * math.sqrt(max(r_sq, 1e-18))


def rational_points_on(prim: Primitive, ts) -> list[FieldElement]:
    """Rational points on a circle/line primitive, one per rational t (an int
    or a Fraction) that `regions.rational_point` maps to a point."""
    pts = (rational_point(prim, t.numerator, t.denominator) for t in ts)
    return [z for z in pts if z is not None]


def rational_points_on_reference(prim: Primitive, ts) -> list[FieldElement]:
    """`rational_points_on` in Fraction arithmetic: a line solved for
    y (for x where by = 0), a circle's chord (x0 + s, y0 + t*s) of slope t
    through its base point solved for s, and the tangent (s = 0) skipped."""
    pts: list[FieldElement] = []
    if prim.qq == 0:
        bx, by, dd = Fraction(prim.bx), Fraction(prim.by), Fraction(prim.dd)
        for t in map(Fraction, ts):
            x, y = (t, -(bx * t + dd) / by) if by else (-dd / bx, t)
            pts.append(FieldElement.from_xy(x, y))
        return pts
    x0, y0, d = _rational_base_point(prim)
    x0, y0 = Fraction(x0, d), Fraction(y0, d)
    qq, bx, by, dd = (Fraction(v) for v in (prim.qq, prim.bx, prim.by, prim.dd))
    for t in map(Fraction, ts):
        # qq((x0+s)^2 + 3(y0+t s)^2) + bx(x0+s) + by(y0+t s) + dd = 0, s != 0
        s = -(2 * qq * (x0 + 3 * t * y0) + bx + by * t) / (qq * (1 + 3 * t * t))
        if s != 0:
            pts.append(FieldElement.from_xy(x0 + s, y0 + t * s))
    return pts


def segment_points_reference(rep: CheckReport, cat: Catalog, j: int, rng, n: int
                             ) -> list[FieldElement]:
    """`verifier._segment_points` with its parameter t a Fraction: k/8001,
    or 1/t half the time, mapped by `rational_points_on_reference`."""
    reg = cat.segments[j]
    eq = next(p for p in reg.prims if p.rel == "==")
    pts: list[FieldElement] = []
    tries = 0
    while len(pts) < n and tries < 400 * n:
        tries += 1
        t = Fraction(rng.randint(-8000, 8000), 8001)
        if t and rng.random() < 0.5:
            t = 1 / t
        pts += (z for z in rational_points_on_reference(eq, [t]) if reg.contains(z))
    if len(pts) < n:
        rep.fail(curve=f"L{j}", kind="sampling_starved", valid=len(pts))
    return pts[:n]


def inversion_points_reference(rng) -> list[FieldElement]:
    """The points `verifier.verify_inversions` checks, in its order: per
    family, t = k/m a Fraction mapped by `rational_points_on_reference`
    until it has _POINTS_PER_FAMILY nonzero points."""
    from eisencf.verifier import _POINTS_PER_FAMILY, _inversion_families
    pts: list[FieldElement] = []
    for _, src, _ in _inversion_families():
        fam: list[FieldElement] = []
        while len(fam) < _POINTS_PER_FAMILY:
            t = Fraction(rng.randint(-400, 400), rng.randint(1, 60))
            fam += (z for z in rational_points_on_reference(src, [t]) if not z.is_zero())
        pts += fam
    return pts


def invariance_check(quad, orbits: int = 64, length: int = 20000,
                     seed: int = 0) -> CheckReport:
    """Empirical occupation of long orbits against the density cell masses
    of `quad`, an `ergodic.Quadrature`.

    PASS when every cell discrepancy is below max(3 * stderr, 0.01), the
    stderr of the occupation; the masses are exact to about 1e-10.
    """
    rep = CheckReport("invariance")
    freq, mean_freq = occupation_frequencies(simulate_orbits(orbits, length, seed))
    rep.samples = orbits * length
    masses = quad.cell_masses()
    sum_f = float(mean_freq.sum())
    rep.info["frequency_sum"] = sum_f
    if abs(sum_f - 1.0) > 0.02:
        rep.fail(kind="band_loss", frequency_sum=sum_f)
    worst = 0.0
    for ci, kl in enumerate(CELLS):
        f = float(mean_freq[ci])
        sf = float(freq[:, ci].std(ddof=1) / math.sqrt(len(freq)))
        mu = masses[kl]
        tol_cell = max(3.0 * sf, 0.01)
        worst = max(worst, abs(f - mu))
        if abs(f - mu) > tol_cell:
            rep.fail(cell=kl, empirical=f, quadrature=mu, tolerance=tol_cell)
    rep.info["max_discrepancy"] = worst
    # rotation symmetry of the construction: occupation of V_{k,l}
    # should not depend on l
    by_k = mean_freq.reshape(6, 6)
    rep.info["rotation_spread"] = float(np.max(by_k.max(axis=1) - by_k.min(axis=1)))
    return rep


def pair_check_reference(kl: tuple[int, int], cell: tuple[Region, Region, tuple, tuple],
                         m: int, seed: int, tol: float) -> tuple[float, float, float]:
    """`ergodic._pair_check` in one whole-array pass: every pair's
    membership, distance and integrand at once."""
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, f"quad:{kl}")))
    v, u_reg, box, ub = cell
    zp = rng.uniform(box[0], box[1], m) + 1j * rng.uniform(box[2], box[3], m)
    u = rng.uniform(ub[0], ub[1], m) + 1j * rng.uniform(ub[2], ub[3], m)
    both = (v.inside_xy(zp.real, zp.imag / SQRT3, tol)
            & u_reg.inside_xy(u.real, u.imag / SQRT3, tol))
    dist = np.abs(zp * u - 1.0)
    # the kernel times the weight, formed once for the mean and the spread
    integrand = np.where(both, 1.0 / np.maximum(dist, 1e-30) ** 4, 0.0)
    integrand *= np.where(both, -np.log(np.maximum(np.abs(u), 1e-300)), 0.0)
    scale = ((box[1] - box[0]) * (box[3] - box[2])
             * (ub[1] - ub[0]) * (ub[3] - ub[2]))
    return (scale * float(integrand.mean()),
            scale * float(integrand.std(ddof=1)) / math.sqrt(m),
            float(dist[both].min()) if both.any() else math.inf)


def floor_J_candidates(z: FieldElement) -> list[EisensteinInt]:
    """Every alpha among the nine points of J around z's rounded lattice
    coordinates with z - alpha in U; the tiling gives exactly one."""
    # rounded lattice coordinates m = 2x/3, n = y - x/3, in pure integers
    a, b, c = z.a, z.b, z.c
    m0, n0 = (4 * a + 3 * c) // (6 * c), (2 * (3 * b - a) + 3 * c) // (6 * c)
    return [
        alpha
        for dm, dn in _OFFSETS
        if in_U(z - embed(alpha := j_element(m0 + dm, n0 + dn)))
    ]


# the vertices 1, zeta, -conj(zeta), -1, -zeta, conj(zeta) of cl(U0), doubled
_U0_VERTICES2 = ((2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1))


def row_max_sign(row: tuple[int, ...]) -> int:
    """The exact sign of the maximum over the closed hexagon cl(U0) of the
    row P = qq(x^2 + 3y^2) + bx x + by y + dd, with no box tree.  For qq >= 0
    P is convex, and its maximum is at a vertex, where 4P is an integer.
    For qq < 0 P is concave: its maximum is at its centre if that lies in
    cl(U0), and otherwise on an edge, at an end or at the edge's critical
    point."""
    qq, bx, by, dd = row[:4]
    best = max(qq * (x * x + 3 * y * y) + 2 * bx * x + 2 * by * y + 4 * dd
               for x, y in _U0_VERTICES2)
    if qq < 0:
        def p4(x: Fraction, y: Fraction) -> Fraction:
            return 4 * (qq * (x * x + 3 * y * y) + bx * x + by * y + dd)

        cx, cy = Fraction(-bx, 2 * qq), Fraction(-by, 6 * qq)
        if 2 * abs(cy) <= 1 and abs(cx + cy) <= 1 and abs(cx - cy) <= 1:
            best = p4(cx, cy)
        else:
            ends = [(Fraction(x, 2), Fraction(y, 2)) for x, y in _U0_VERTICES2]
            for (x0, y0), (x1, y1) in zip(ends, ends[1:] + ends[:1]):
                # P(x0 + t dx, y0 + t dy) = A t^2 + B t + C, A < 0
                dx, dy = x1 - x0, y1 - y0
                t = -(2 * qq * (x0 * dx + 3 * y0 * dy) + bx * dx + by * dy) / (
                    2 * qq * (dx * dx + 3 * dy * dy))
                if 0 < t < 1:
                    best = max(best, p4(x0 + t * dx, y0 + t * dy))
    return (best > 0) - (best < 0)


def region_area_flux(arcs: ArcQuadrature) -> float:
    """Exact-area cross-check: the field u/2 has divergence one."""
    return float(np.sum(np.real(arcs.nodes / 2 * np.conj(arcs.normals))
                        * arcs.weights))


def _sextant_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and area weights of a Gauss rule over U that ignores the cells.

    Each sextant triangle (0, v_s, v_{s+1}) is cut at the midpoint of its
    outer edge into two triangles, each mapped to the square by a Duffy
    transform from its vertex on the unit circle.  The radius is graded
    toward the vertex, and the angle toward both sides, which the cusps of
    the cells hug.  The jumps of h across cell boundaries limit the rule to
    about 1e-3, so it grades only to 1e-2.
    """
    r, wr = _graded_rule(1.0, True, False, 1e-2, 0.5, n)
    f, wf = _graded_rule(1.0, True, True, 1e-2, 0.5, n)
    zs, ws = [], []
    for s in range(6):
        v0, v1 = _ROOTS[s], _ROOTS[(s + 1) % 6]
        mid = 0.5 * (v0 + v1)
        for vert, a, b in ((v0, mid, 0j), (v1, 0j, mid)):
            # z = vert + r*((a - vert) + f*(b - a)), Jacobian r * 2 * area
            jac = abs((np.conj(a - vert) * (b - a)).imag)
            zs.append((vert + r[:, None] * ((a - vert) + f * (b - a))).ravel())
            ws.append(((r * wr * jac)[:, None] * wf).ravel())
    return np.concatenate(zs), np.concatenate(ws)


def density_integral(quad) -> tuple[float, float]:
    """Total mass of the density h of `quad`, an `ergodic.Quadrature`, by the
    cell-blind sextant rule (should be ~ 1).

    Returns the fine rule's value and its difference from the coarse rule's;
    nodes in a boundary band count as 0."""
    vals = []
    for n in _RULES:
        z, w = _sextant_rule(n)
        vals.append(float(np.sum(w * np.nan_to_num(quad.density(z), nan=0.0))))
    return vals[-1], abs(vals[-1] - vals[0])
