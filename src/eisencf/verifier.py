"""Executable checks for the identities and classifications of the system.

The finite range structure and the dual inclusions are proved on exact box
trees (`Region.box_tree`), once per process through `CHECKS`, as they depend
on no input; the other checks draw exact points from a stream derived
deterministically from (master seed, check name).  Every check
returns a machine-readable CheckReport whose verdict is PASS exactly when no
counterexample was found.

Both proofs take one representative per dihedral class: `frs` one entry of
its table of one-step images (`_frs_pairs`), `dual` one block.  J and U0
are invariant under z -> zeta*z, so on U0 the digit of zeta^-m z is zeta^m
times the digit of z, and T(zeta^-m z) = zeta^m T(z); a chain (d_1, d_2,
d_3, ...) rotates to (zeta^m d_1, zeta^-m d_2, zeta^m d_3, ...).  M(z) =
-conj(z) commutes with T with no alternation: the digit of M(z) is -conj(d).
Under each of the twelve symmetries a chain's w-space table, source and
target map exactly, as sets of primitives, as do a dual block's terms
(Vstar_kl)^-1 - alpha and its target; dual blocks 3 and 5 are the images of
blocks 2 and 4 under R = zeta*M (`regions.MIRROR_PAIRS`).  A residue bounds
an area, which the symmetries preserve, so each proof holds for its twelve
images, as the reports' `symmetries` entry states.  The sampled checks seed
on every boundary curve: on the edges of U the half-open convention breaks
the symmetry.  Every exact orbit is walked by `cf.expand`, and a step counts
only while the walk is `Truncated`: T stops at the points of `cf.STOPS`.
"""

from __future__ import annotations

import copy
import math
import random
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Iterator, Sequence

from ._util import CheckReport, derive_seed
from .exact import (
    ETAS,
    EisensteinInt,
    FieldElement,
    ZETA_BAR,
    embed,
    in_J,
    j_element,
)
from .cf import (
    INF,
    STOPS,
    SpecialPeriodic,
    Truncated,
    convergents,
    eval_cf,
    expand,
    special_digits,
    SPECIAL_PERIOD,
)
from .hexdomain import _in_U0, in_U, in_U0
from .regions import (
    INSIDE,
    MIRROR_PAIRS,
    OUTSIDE,
    BoundaryPoint,
    Catalog,
    Excess,
    Primitive,
    Region,
    build_catalog,
    cell_of,
    circle,
    half_plane,
    rational_point,
)

def random_orbit_seed(rng: random.Random, digits10: int) -> FieldElement:
    """Random exact point of U0 with denominator around 10^digits10."""
    while True:
        c = rng.randint(10**digits10, 4 * 10**digits10)
        z = FieldElement(rng.randint(-c, c), rng.randint(-c, c), c)
        if in_U0(z):
            return z


# --------------------------------------------------------------------------
# inversion identities
# --------------------------------------------------------------------------

def _inversion_families() -> list[tuple[str, Primitive, Primitive]]:
    """The partition's circles and lines through the six eta_k, each with its
    image under z -> 1/z as stated by the geometry, not by `Primitive.invert`:
    the circle of radius sqrt(1/3) about c = (2/3)eta_k has |c|^2 - 1/3 = 1,
    so its image is the circle about conj(c) (one k per conjugate pair); the
    circle about c = (1/3)eta_k passes through 0, so its image is the line
    Re(3c*w) = 3/2; a line through 0 maps to its mirror image in the real
    axis."""
    third, two_thirds = Fraction(1, 3), Fraction(2, 3)
    fams: list[tuple[str, Primitive, Primitive]] = []
    for k in (1, 4, 2):
        c = embed(ETAS[k])
        fams.append((f"circle(2/3 eta{k}) -> circle(2/3 conj(eta{k}))",
                     circle(two_thirds * c.x, two_thirds * c.y, third, "=="),
                     circle(two_thirds * c.x, -two_thirds * c.y, third, "==")))
    for k in range(1, 7):
        c = embed(ETAS[k])
        fams.append((f"circle(1/3 eta{k}) -> line Re(eta{k} w) = 3/2",
                     circle(third * c.x, third * c.y, third, "=="),
                     half_plane(c.x, -3 * c.y, Fraction(3, 2), "==")))
    for u, v in ((1, -1), (1, 1), (0, 1)):
        fams.append((f"line {u}x{v:+}y = 0 -> line {u}x{-v:+}y = 0",
                     half_plane(u, v, 0, "=="), half_plane(u, -v, 0, "==")))
    return fams


_POINTS_PER_FAMILY = 5


def verify_inversions(seed: int = 0) -> CheckReport:
    """The catalogue of circle/line images under z -> 1/z, exactly.

    Each family is checked two ways: the coefficient-level inversion of the
    source primitive must equal the stated target, and _POINTS_PER_FAMILY
    exact rational points on the source must land exactly on the target.
    """
    rng = random.Random(derive_seed(seed, "inversions"))
    rep = CheckReport("inversions")
    for name, src, tgt in _inversion_families():
        inv = src.invert()
        if (inv.qq, inv.bx, inv.by, inv.dd) != (tgt.qq, tgt.bx, tgt.by, tgt.dd):
            rep.fail(family=name, kind="coefficients", got=str(inv))
            continue
        pts: list[FieldElement] = []
        while len(pts) < _POINTS_PER_FAMILY:
            z = rational_point(src, rng.randint(-400, 400), rng.randint(1, 60))
            if z is not None and not z.is_zero():
                pts.append(z)
        for z in pts:
            w = z.inv()
            rep.samples += 1
            if tgt.value_int(w) != 0:
                rep.fail(family=name, kind="point", z=str(z), w=str(w))
    return rep


# --------------------------------------------------------------------------
# finite range structure
# --------------------------------------------------------------------------

FRS_NORM = 12  # the `frs` table holds every digit of norm <= FRS_NORM


@cache
def _frs_pairs() -> tuple[tuple[Region | None, EisensteinInt], ...]:
    """The rule of the `frs` table: one (source, alpha) per dihedral class of
    the pairs of U0 (None) or a U-cell and a digit alpha of norm <= FRS_NORM,
    the first of its class over the sources U0 and U_{1,1} ... U_{4,1}:
    U_{5,1} = M zeta^5 U_{4,1} needs no entry of its own.  The classes come
    from index arithmetic (module docstring): zeta^-m maps (U_{k,l}, d) to
    (U_{k,l-m}, zeta^m d), and M maps (U_{k,1}, d) to (M U_{k,1}, -conj(d)),
    M U_{k,1} looked up once by its primitives."""
    cells = build_catalog().u_cells
    keys = {frozenset(reg.prims): kl for kl, reg in cells.items()}
    mirror = {k: keys[frozenset(cells[(k, l)].mirror().prims)] for k, l in cells if l == 1}
    r = math.isqrt(4 * FRS_NORM // 3)  # norm(a + b zeta) >= 3 max(|a|, |b|)^2 / 4
    digits = [d for a in range(-r, r + 1) for b in range(-r, r + 1)
              if in_J(d := EisensteinInt(a, b)) and 0 < d.norm() <= FRS_NORM]
    seen, pairs = set(), []
    for key in (None, (1, 1), (2, 1), (3, 1), (4, 1)):
        for alpha in (d for d in digits if (key, d) not in seen):
            pairs.append((key and cells[key], alpha))
            for kl, d in ((key, alpha), (key and mirror[key[0]], -alpha.conj())):
                for m in range(6):
                    seen.add((kl and (kl[0], (kl[1] - m - 1) % 6 + 1), d))
                    d = EisensteinInt(-d.b, d.a + d.b)  # zeta * d
    return tuple(pairs)


def _pullback(reg: Region, chain: Sequence[EisensteinInt]) -> Region:
    """The condition "z_k in reg" as a region in w = z_n, for the digits
    chain = d_(k+1), ..., d_n.  Each z_(j-1) = 1/(d_j + z_j) pulls every
    primitive back by one inversion and one translation, which multiply its
    value by a positive factor, so each sign is kept exactly."""
    for d in chain:
        reg = reg.invert().translate(-embed(d))
    return reg


def _claim_table(claim: dict) -> Region:
    """A claim's conditions as one region in w = z_n: U0's six edge lines at
    z_0, ..., z_n and the source cell at z_0, each pulled back to w."""
    chain, source = claim["chain"], claim["source"]
    u0 = build_catalog().u0
    regs = [_pullback(u0, chain[k:]) for k in range(len(chain) + 1)]
    if source is not None:
        regs.append(_pullback(source, chain))
    return Region("claim table", tuple(p for reg in regs for p in reg.prims))


def _accepted_exact(claim: dict, w: FieldElement) -> bool:
    """The scalar path: whether the chain preimage z of w lies in U and in
    the source cell, if any, and T steps it through the chain's digits, with
    no stop at 0 or a special vertex before the last (no spliced digit)."""
    chain, source = claim["chain"], claim["source"]
    z = eval_cf(chain, w)
    if z is INF or not in_U(z) or source is not None and not source.contains(z):
        return False
    e = expand(z, len(chain))
    return isinstance(e.terminal, Truncated) and e.digits == tuple(chain)


DEPTH = 10  # levels of every certificate's box tree
_WITNESS_DEPTH = 3  # levels of the tree the exact witnesses are taken from
_WITNESSES = 8  # box centres per verdict and entry re-run through `_accepted_exact`
U0_BOX = (-1, 1, Fraction(-1, 2), Fraction(1, 2))  # the bounding box of U0


def _residue_info(rep: CheckReport, residues: dict[str, dict[str, Fraction]]) -> None:
    rep.info["depth"] = DEPTH
    rep.info["residues"] = {key: {k: str(v) for k, v in res.items()}
                            for key, res in residues.items()}
    rep.info["worst_residue"] = str(max(v for res in residues.values() for v in res.values()))


def _record(rep: CheckReport, res: Excess, **where) -> Fraction:
    """Record a bound on the area of A \\ cl(B) into rep: an exact
    counterexample fails the report; returns the residue."""
    if res.fails:
        rep.fail(**where, counterexamples=res.fails, example=str(res.example))
    return res.residue


def _witnesses(table: Region) -> tuple[list[FieldElement], list[FieldElement]]:
    """The centres of the first _WITNESSES boxes a tree of depth
    _WITNESS_DEPTH proves inside the table, and of the first _WITNESSES in U0
    it drops outside, in traversal order; the walk stops once it holds both."""
    den, _, tree = table.box_tree(None, U0_BOX, _WITNESS_DEPTH)
    inside: list[FieldElement] = []
    outside: list[FieldElement] = []
    for verdict, u, v, _, _ in tree:
        if verdict == INSIDE and len(inside) < _WITNESSES:
            inside.append(FieldElement(u, v, den))
        elif verdict == OUTSIDE and len(outside) < _WITNESSES and _in_U0(u, v, den):
            outside.append(FieldElement(u, v, den))
        if len(inside) == len(outside) == _WITNESSES:
            break
    return inside, outside


def _coverage(target: Region, table: Region) -> Fraction | None:
    """The residue of target \\ cl(table) over U0 that `Region.excess` bounds,
    from one walk of their box tree; None at its first counterexample.  The
    target, U0 or a U-cell, carries U0's six rows."""
    _, unit, tree = target.box_tree(table, U0_BOX, DEPTH)
    count = 0
    for _, _, _, weight, bad in tree:
        if bad:
            return None
        count += weight
    return count * unit


def _frs_entry(rep: CheckReport, source: Region | None, alpha: EisensteinInt) -> dict:
    """Find and prove T(source & <alpha>) on one build of its table into rep;
    returns the entry: its claim, name, target (None: null) and residues.
    The candidates are U0 and the U-cells whose rows, strictness included,
    are all rows of the table, which so lies in each.  The image is the
    first, by decreasing row count, whose coverage walk finds no
    counterexample; a table none covers is proved null by `Region.excess`,
    or fails at an exact point.  `_accepted_exact` must accept the witnesses
    inside the table, reject those outside, or the first mismatch is recorded."""
    cat = build_catalog()
    claim = dict(chain=[alpha], source=source)
    table = _claim_table(claim)
    rows = set(table._ints)
    candidates = sorted((reg for reg in (cat.u0, *cat.u_cells.values())
                         if rows.issuperset(reg._ints)), key=lambda reg: -len(reg._ints))
    target, residue = next(((reg, res) for reg in candidates
                            if (res := _coverage(reg, table)) is not None), (None, None))
    name = f"{(source or cat.u0).name} --{alpha}--> {target.name if target else 'null'}"
    residues = {"coverage": residue} if target else {
        "null": _record(rep, table.excess(None, U0_BOX, DEPTH), entry=name, kind="null")}
    witnesses = _witnesses(table)
    wrong = [(str(w), verdict) for verdict, ws in zip((True, False), witnesses) for w in ws
             if _accepted_exact(claim, w) != verdict]
    rep.samples += sum(map(len, witnesses))
    if wrong:
        rep.fail(entry=name, kind="witness_mismatch", mismatches=len(wrong), w=wrong[0][0],
                 table=wrong[0][1])
    return dict(claim, name=name, target=target, residues=residues)


def verify_frs() -> CheckReport:
    """Finite range structure: the image T(source & <alpha>) of each source,
    U0 or a U-cell, and each digit of norm <= FRS_NORM is U0, a U-cell or
    null, found from its w-space table (`_claim_table`) and proved on exact
    box trees (`_frs_entry`).  One entry stands for its dihedral class
    (`_frs_pairs`).  Deeper images follow by induction: T^n<b_1 ... b_n> =
    T(P & <b_n>) for the prefix image P = T^(n-1)<b_1 ... b_(n-1)>, and T is
    a Moebius map on each cylinder, so equalities up to null sets compose."""
    rep = CheckReport("finite_range_structure")
    entries = [_frs_entry(rep, source, alpha) for source, alpha in _frs_pairs()]
    rep.info.update(claims=len(entries), digit_norm=FRS_NORM, symmetries=12,
                    nulls=sum(e["target"] is None for e in entries))
    _residue_info(rep, {e["name"]: e["residues"] for e in entries})
    return rep


# --------------------------------------------------------------------------
# dual system
# --------------------------------------------------------------------------

def dual_inclusion_blocks() -> dict[int, list[tuple[tuple[int, int], EisensteinInt]]]:
    """Transfer terms (source dual cell, digit) feeding each base dual cell
    k not in MIRROR_PAIRS, whose blocks are R-images (module docstring)."""
    e = ETAS
    m3 = EisensteinInt(-3, 0)
    m2eta = -(ETAS[1] * 2)
    m3zeta = EisensteinInt(0, -3)
    return {
        1: [((6, 3), e[4]), ((4, 2), e[5]), ((2, 1), e[6]),
            ((1, 6), e[1]), ((3, 5), e[2]), ((5, 4), e[3])],
        2: [((6, 3), e[4]), ((2, 2), e[5]), ((2, 1), e[6]),
            ((1, 6), e[1]), ((3, 5), e[2]), ((5, 4), e[3])],
        4: [((2, 2), e[5]), ((2, 1), e[6]), ((1, 6), e[1]), ((3, 5), e[2]),
            ((5, 4), e[3]), ((2, 4), m3), ((1, 3), m2eta), ((3, 2), m3zeta)],
        6: [((2, 2), e[5]), ((2, 1), e[6]), ((1, 6), e[1]), ((3, 5), e[2]),
            ((3, 4), e[3]), ((2, 4), m3), ((1, 3), m2eta), ((3, 2), m3zeta)],
    }


def _disk_box(reg: Region) -> tuple[Fraction, ...]:
    """The box around the region's "<" disk (the image of |z| > 1 under
    inversion), rounded outward to sixteenths."""
    cx, cy, r_sq = next(p for p in reg.prims if p.qq and p.rel == "<").circle_data()
    # half-widths sqrt(r_sq) and sqrt(r_sq / 3) in sixteenths; isqrt(m - 1) + 1 = ceil(sqrt(m))
    hx, hy = (math.isqrt(math.ceil(256 * h) - 1) + 1 for h in (r_sq, r_sq / 3))
    return tuple(Fraction(e, 16) for e in (math.floor(16 * cx) - hx, math.ceil(16 * cx) + hx,
                                             math.floor(16 * cy) - hy, math.ceil(16 * cy) + hy))


def _dual_proofs() -> tuple[Callable, Callable]:
    """term(kl, alpha): the term (Vstar_kl)^-1 - alpha, the image of Vstar_kl
    under the dual step w -> 1/w - alpha and so the set `_pullback` builds,
    with its disk box; overlap(t, s): the tree on the intersection of terms
    t and s over the box of t.  Each is computed once per distinct argument,
    for the calls that share them."""
    cat = build_catalog()

    @cache
    def term(kl, alpha):
        reg = _pullback(cat.v_star[kl], [alpha])
        return reg, _disk_box(reg)

    @cache
    def overlap(first, second):
        (a, box), (b, _) = term(*first), term(*second)
        return Region("overlap", a.prims + b.prims).excess(None, box, DEPTH)

    return term, overlap


def _certify_block(rep: CheckReport, tgt_k: int, terms, proofs) -> dict[str, Fraction]:
    """Prove block tgt_k into rep; returns its residues.

    Each term lies in the closed target dual cell, and the terms are
    pairwise disjoint: a pair is decided by opposite rows, or by a tree on
    the intersection of the two, which must hold no box centre.  proofs
    (from `_dual_proofs`) shares terms and overlap trees with other blocks."""
    term, overlap = proofs
    target = build_catalog().v_star[(tgt_k, 1)]
    residues = {"inclusion": Fraction(0), "overlap": Fraction(0)}
    for i, key in enumerate(terms):
        reg, box = term(*key)
        residues["inclusion"] += _record(rep, reg.excess(target, box, DEPTH), block=tgt_k,
                                         kind="inclusion", terms=[str(key)])
        for other in terms[i + 1:]:
            residues["overlap"] += _record(rep, overlap(key, other), block=tgt_k,
                                           kind="overlap", terms=[str(key), str(other)])
    return residues


def verify_dual_inclusions() -> CheckReport:
    """Transfer terms embed in their dual cells and are pairwise disjoint,
    proved on exact box trees over each term's disk box (`_certify_block`);
    the residues are summed per block, each block standing for its twelve
    dihedral images: blocks 3 and 5 are not proved apart, as R maps blocks
    2 and 4 onto them (module docstring).  A term or an ordered pair of
    terms that recurs across blocks is proved once per call."""
    proofs = _dual_proofs()
    rep = CheckReport("dual_inclusions")
    rep.info["symmetries"] = 12
    rep.info["mirrors"] = {str(k): j for k, j in MIRROR_PAIRS.items()}
    _residue_info(rep, {str(tgt_k): _certify_block(rep, tgt_k, terms, proofs)
                        for tgt_k, terms in dual_inclusion_blocks().items()})
    return rep


def verify_dual_orbit(samples: int = 100, depth: int = 20, seed: int = 0) -> CheckReport:
    """Along exact orbits, -q_n/q_{n-1} lies in the closed dual cell of z_n."""
    cat = build_catalog()
    rng = random.Random(derive_seed(seed, "dualorbit"))
    rep = CheckReport("dual_orbit")
    done = 0
    while done < samples:
        z = random_orbit_seed(rng, max(12, depth))
        e = expand(z, depth)
        if not isinstance(e.terminal, Truncated):
            continue  # terminated early; resample (special orbits are
            # covered by the special-point check)
        convs = convergents(e.digits)
        done += 1
        for n in range(1, depth + 1):
            try:  # a point of STOPS, only ever the last point, is a boundary point
                kl = cell_of(e.points[n])
            except BoundaryPoint:
                continue
            if convs[n].q_prev.is_zero():
                continue
            ratio = convs[n].dual_ratio()
            rep.samples += 1
            if not cat.v_star[kl].contains(ratio, closed=True):
                rep.fail(z=str(z), n=n, cell=kl, ratio=str(ratio))
    return rep


# --------------------------------------------------------------------------
# monotonicity and special points
# --------------------------------------------------------------------------

def _segment_points(rep: CheckReport, cat: Catalog, j: int, rng: random.Random,
                    n: int) -> list[FieldElement]:
    """n exact points of the curve L_j, by parameters t drawn over all of Q
    (1/t half the time: no chord of slope |t| < 1 from its base point reaches
    L7); a curve that yields fewer fails the report as sampling_starved."""
    reg = cat.segments[j]
    eq = next(p for p in reg.prims if p.rel == "==")
    pts: list[FieldElement] = []
    tries = 0
    while len(pts) < n and tries < 400 * n:
        tries += 1
        k = rng.randint(-8000, 8000)
        # t = k/8001, or 1/t half the time
        tn, td = (8001, k) if k and rng.random() < 0.5 else (k, 8001)
        z = rational_point(eq, tn, td)
        if z is not None and reg.contains(z):
            pts.append(z)
    if len(pts) < n:
        rep.fail(curve=f"L{j}", kind="sampling_starved", valid=len(pts))
    return pts[:n]


def _check_monotone(rep: CheckReport, digits: Sequence[EisensteinInt], tag: str) -> None:
    cs = convergents(digits)
    for i in range(len(cs) - 1):
        rep.samples += 1
        if not cs[i + 1].q.norm() > cs[i].q.norm():
            rep.fail(kind=tag, n=i, digits=[str(d) for d in digits[: i + 1]])
            return


def special_preimages(rng: random.Random, count: int
                      ) -> Iterator[tuple[FieldElement, FieldElement, list[EisensteinInt]]]:
    """count exact preimages of each special vertex of SPECIAL_PERIOD, as
    (point, z, digits): T^depth(z) = point and |T^(depth-1)(z)| < 1 for a depth
    drawn from 1..4, built by inverse branches; a draw that the exact
    expansion of z does not confirm is drawn again."""
    def draw(ok: Callable[[EisensteinInt], bool]) -> EisensteinInt:
        while True:
            alpha = j_element(rng.randint(-3, 3), rng.randint(-3, 3))
            if ok(alpha):
                return alpha

    for point in SPECIAL_PERIOD:
        made = 0
        while made < count:
            depth = rng.randint(1, 4)
            digs = [draw(lambda a: a.norm() >= 9) for _ in range(depth - 1)]
            digs.append(draw(lambda a: a.norm() >= 3 and (embed(a) + point).abs_sq() > 1))
            z = eval_cf(digs, point)
            if z is INF or not in_U(z):
                continue
            e = expand(z, depth + 4)
            if (isinstance(e.terminal, SpecialPeriodic) and e.terminal.entry_index == depth
                    and e.terminal.point == point and e.digits[:depth] == tuple(digs)
                    and e.points[depth - 1].abs_sq() < 1):
                made += 1
                yield point, z, digs


def verify_monotonicity(samples: int = 200, depth: int = 50, seed: int = 0) -> CheckReport:
    """norm(q_{n+1}) > norm(q_n), exactly, for generic orbits, orbits seeded
    on every boundary segment/arc, and preimages of the special vertices."""
    cat = build_catalog()
    rng = random.Random(derive_seed(seed, "monotone"))
    rep = CheckReport("monotonicity")
    digits10 = max(20, int(0.65 * depth))
    for _ in range(samples):
        _check_monotone(rep, expand(random_orbit_seed(rng, digits10), depth).digits, "generic")
    for j in range(1, 13):
        for z in _segment_points(rep, cat, j, rng, max(3, samples // 50)):
            _check_monotone(rep, expand(z, min(depth, 40)).digits, f"L{j}")
    for _, z, _ in special_preimages(rng, max(3, samples // 20)):
        _check_monotone(rep, expand(z, min(depth, 40)).digits, "special_preimage")
    return rep


_SPECIAL_DEPTH = 60  # convergents checked per special vertex


def verify_special(samples: int = 60, seed: int = 0) -> CheckReport:
    """Expansions of the two special vertices and the boundary-track dynamics.

    (a) The convergent error satisfies |v - p_n/q_n|^2 * norm(q_n) = 1
        exactly (all orbit factors have modulus one) and norm(q_n) increases
        strictly, so the error decreases monotonically -- at the parabolic
        rate ~ 1/n, which is as fast as these expansions converge.
    (b) Exact membership of -q_n/q_{n-1} in the ratio-track sets S_*, n mod 4.
    (c) The boundary cycles: each edge maps through its forced digits onto
        the stated arcs, and orbits seeded on any segment/arc never leave the
        twelve-curve catalogue except by terminating or reaching a vertex.
    (d) Ratio membership in cl(Vstar_6_5) for constructed special preimages.
    """
    cat = build_catalog()
    rng = random.Random(derive_seed(seed, "special"))
    rep = CheckReport("special_points")
    rep.info["zeta_bar_digits"] = [str(d) for d in SPECIAL_PERIOD[ZETA_BAR]]
    # (a) exact error law and (b) ratio-track membership, one pass per vertex
    for point, tag in zip(SPECIAL_PERIOD, ("minus_zeta", "zeta_bar")):
        cs = convergents(special_digits(point, _SPECIAL_DEPTH))
        prev_norm = 0
        for n in range(1, _SPECIAL_DEPTH + 1):
            rep.samples += 1
            qn = cs[n].q.norm()
            if qn <= prev_norm:
                rep.fail(kind="q_growth", point=tag, n=n)
            prev_norm = qn
            if (point - cs[n].ratio()).abs_sq() * qn != 1:
                rep.fail(kind="error_law", point=tag, n=n)
            if cs[n].q_prev.is_zero():
                continue
            ratio = cs[n].dual_ratio()
            rep.samples += 1
            if not cat.s_sets[(tag, n % 4)].contains(ratio):
                rep.fail(kind="s_set", point=tag, n=n, ratio=str(ratio))
        rep.info[f"{tag}_err_at_{_SPECIAL_DEPTH}"] = float(
            math.sqrt(1.0 / cs[_SPECIAL_DEPTH].q.norm()))
    # (c) forced cycles along the boundary segments
    chains = {1: (ETAS[5], 7, ETAS[5], 10),
              2: (ETAS[3], 9, ETAS[1], 11),
              3: (ETAS[1], 8, ETAS[3], 12)}
    for j, (d1e, arc1, d2e, arc2) in chains.items():
        for z in _segment_points(rep, cat, j, rng, max(4, samples // 10)):
            rep.samples += 1
            # z is on an edge of U, never 0 or a vertex, so e has a first step
            e = expand(z, 2)
            if e.digits[0] != d1e or not cat.segments[arc1].contains(e.points[1]):
                rep.fail(kind="cycle", frm=f"L{j}", z=str(z))
            elif isinstance(e.terminal, Truncated) and (
                    e.digits[1] != d2e or not cat.segments[arc2].contains(e.points[2])):
                rep.fail(kind="cycle2", frm=f"L{j}", z=str(e.points[1]))
    # closure of the twelve-curve track
    for j in range(1, 13):
        for z in _segment_points(rep, cat, j, rng, max(3, samples // 20)):
            for cur in expand(z, 6).points[1:]:
                if cur in STOPS:
                    break
                rep.samples += 1
                if not any(r.contains(cur) for r in cat.segments.values()):
                    rep.fail(kind="track_escape", frm=f"L{j}", z=str(cur))
                    break
    # (d) special preimages: ratio lands in cl(Vstar_6_5)
    tgt = cat.v_star[(6, 5)]
    for point, _, digs in special_preimages(rng, max(4, samples // 8)):
        ratio = convergents(digs)[-1].dual_ratio()
        rep.samples += 1
        if not tgt.contains(ratio, closed=True):
            rep.fail(kind="preimage_ratio", point=str(point),
                     digits=[str(d) for d in digs], ratio=str(ratio))
    return rep


# --------------------------------------------------------------------------
# orchestration
# --------------------------------------------------------------------------

@cache
def _proved(check: Callable[[], CheckReport]) -> CheckReport:
    """The report of a proof that depends on no input, proved on its first
    call in a process, as the catalogue is built.  The CHECKS entries hand
    out copies, so no caller changes what the next one reads; `check` itself
    proves afresh on every direct call."""
    return check()


CHECKS: dict[str, Callable[..., CheckReport]] = {
    "inversions": lambda samples, depth, seed: verify_inversions(seed=seed),
    "frs": lambda samples, depth, seed: copy.deepcopy(_proved(verify_frs)),
    "dual": lambda samples, depth, seed: copy.deepcopy(_proved(verify_dual_inclusions)),
    "orbit": lambda samples, depth, seed: verify_dual_orbit(
        samples=max(10, samples // 100), depth=depth, seed=seed),
    "monotonic": lambda samples, depth, seed: verify_monotonicity(
        samples=max(20, samples // 50), depth=depth, seed=seed),
    "special": lambda samples, depth, seed: verify_special(
        samples=max(20, samples // 100), seed=seed),
}


def run_checks(which: Iterable[str], samples: int = 10000, depth: int = 20,
               seed: int = 0) -> list[CheckReport]:
    names = list(which)
    if "all" in names:
        names = list(CHECKS)
    return [CHECKS[name](samples, depth, seed) for name in names]
