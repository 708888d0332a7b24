
import random
from fractions import Fraction

import numpy as np
import pytest

import eisencf.verifier as verifier
from eisencf._util import canonical_json
import eisencf.cf as cf
from eisencf.cf import REJECTED_ZETA_BAR_PERIOD
from eisencf.exact import (
    ETAS, ZETA, ZETA_BAR, EisensteinInt, FieldElement, embed, parse_field_element,
)
from eisencf.hexdomain import in_U0
from eisencf.regions import (
    INSIDE, MIRROR_PAIRS, OUTSIDE, Region, build_catalog, circle, half_plane,
)
from eisencf.verifier import (
    CheckReport,
    _accepted_exact,
    _certify_block,
    _certify_claim,
    _claim_table,
    _dual_proofs,
    _find_target,
    _first_uncovered,
    _frs_claims,
    _inversion_families,
    _pullback,
    _segment_points,
    _witnesses,
    U0_BOX,
    derive_seed,
    dual_inclusion_blocks,
    run_checks,
    verify_dual_inclusions,
    verify_dual_orbit,
    verify_frs,
    verify_inversions,
    verify_monotonicity,
    verify_special,
)

CAT = build_catalog()
CLAIMS = _frs_claims(CAT)


def _listed_claim(source, chain, target):
    """A claim named as the verifier names its own, `<source> --<digits>-->
    <target>`, the digits joined by commas."""
    name = f"{source.name if source else 'U0'} --{','.join(map(str, chain))}--> {target.name}"
    return dict(name=name, chain=chain, source=source, target=target)


def _listed_claims(cat):
    """The finite range claims written out: every rotation of the fullness,
    T<eta_k> and T2 claims, and both members of each mirror pair of the
    depth-3, transition and T<digit> claims.  The one-step claims are the
    references that the verifier's one representative per dihedral class,
    its target found from its table's rows, must reproduce; the deeper ones
    follow from them by induction."""
    claims = []
    for alpha in (
        EisensteinInt(3, 0), EisensteinInt(0, 3), EisensteinInt(-3, 3),
        EisensteinInt(3, 3), ETAS[1] * 2, ETAS[4] * 2, EisensteinInt(4, 1),
        EisensteinInt(-1, 5),
    ):
        claims.append(_listed_claim(None, [alpha], cat.u0))
    for k in range(1, 7):
        claims.append(_listed_claim(None, [ETAS[k]], cat.u_cells[(1, k)]))
    for k in range(1, 7):
        l = (4 - k) % 6 or 6
        claims.append(_listed_claim(None, [ETAS[k], ETAS[l]], cat.u_cells[(2, l)]))
    for last, tgt in ((ETAS[1] + EisensteinInt(3, 0), (3, 3)), (ETAS[3], (4, 3)),
                      (ETAS[1], (5, 6))):
        claims.append(_listed_claim(None, [ETAS[2], ETAS[2], last], cat.u_cells[tgt]))
    table = [(1, ETAS[3], (2, 3)), (2, ETAS[4], (4, 4)), (2, ETAS[2], (5, 1))]
    for j in (1, 2):
        table += [(2, ETAS[2] + EisensteinInt(0, 3 * j), (3, 4)),
                  (2, ETAS[4] - EisensteinInt(0, 3 * j), (3, 4))]
        table += [(k, EisensteinInt(s * 3 * j, -s * 3 * j), (3, 2))
                  for k in (3, 4) for s in (1, -1)]
    # the T<digit> claims: T(U_{j,1} & <eta_k>) = T<eta_k> = U_{1,k}
    table += [(src_k, ETAS[k], (1, k)) for src_k, k in ((1, 1), (1, 5), (2, 6), (3, 4), (4, 4))]
    for src_k, alpha, tgt in table:
        claims.append(_listed_claim(cat.u_cells[(src_k, 1)], [alpha], cat.u_cells[tgt]))
    return claims


LISTED_CLAIMS = _listed_claims(CAT)
ONE_STEP_CLAIMS = [c for c in LISTED_CLAIMS if len(c["chain"]) == 1]
DEEP_CLAIMS = [c for c in LISTED_CLAIMS if len(c["chain"]) > 1]


def _mirrored_blocks():
    """The hand blocks 3 and 5 written out: the references that R = zeta*M
    must reproduce from blocks 2 and 4 (`regions.MIRROR_PAIRS`)."""
    e = ETAS
    tail = [((2, 4), EisensteinInt(-3, 0)), ((1, 3), -(e[1] * 2)), ((3, 2), EisensteinInt(0, -3))]
    return {
        3: [((6, 3), e[4]), ((4, 2), e[5]), ((2, 1), e[6]),
            ((1, 6), e[1]), ((3, 5), e[2]), ((3, 4), e[3])],
        5: [((4, 2), e[5]), ((2, 1), e[6]), ((1, 6), e[1]), ((3, 5), e[2]),
            ((3, 4), e[3])] + tail,
    }


def _listed_term_region(cat, kl, alpha, rot):
    """A dual term at rotation rot, built as the reference for the term
    `_pullback(cat.v_star[kl], [alpha])` rotated by zeta^rot."""
    shift = embed((ZETA ** rot) * alpha)
    return cat.v_star[kl].invert().rotate(rot).translate(
        -shift, f"(Vstar_{kl[0]}_{kl[1]})^-1 rot{rot} -{alpha}")


def _listed_inversion_families():
    """The circle/line images under z -> 1/z written out one by one: the
    references that the three rules of `_inversion_families` must
    reproduce."""
    th, tt, h = Fraction(1, 3), Fraction(2, 3), Fraction(1, 2)
    e1, eb = embed(ETAS[1]), embed(ETAS[6])
    fams = [(circle(0, tt, th, "=="), circle(0, -tt, th, "==")),
            (half_plane(0, 1, 0, "=="), half_plane(0, 1, 0, "=="))]
    for sgn in (1, -1):
        fams += [
            (circle(sgn * tt * e1.x, sgn * tt * e1.y, th, "=="),
             circle(sgn * tt * eb.x, sgn * tt * eb.y, th, "==")),
            # |z - (sgn/3) eta| = sqrt(1/3)  ->  y = x - sgn
            (circle(sgn * th * e1.x, sgn * th * e1.y, th, "=="), half_plane(-1, 1, -sgn, "==")),
            (circle(sgn * th * eb.x, sgn * th * eb.y, th, "=="), half_plane(1, 1, sgn, "==")),
            (circle(0, sgn * th, th, "=="), half_plane(0, 1, -sgn * h, "==")),
            (half_plane(-sgn, 1, 0, "=="), half_plane(sgn, 1, 0, "==")),
        ]
    return fams


class TestReports:
    def test_verdict_logic(self):
        with CheckReport("x") as rep:
            assert rep.verdict == "PASS"
            rep.fail(reason="boom")
        assert rep.verdict == "FAIL"
        assert rep.elapsed > 0
        assert rep.as_dict()["failures"] == [{"reason": "boom"}]

    def test_seed_derivation_stable(self):
        assert derive_seed(42, "frs") == derive_seed(42, "frs")
        assert derive_seed(42, "frs") != derive_seed(43, "frs")
        assert derive_seed(42, "frs") != derive_seed(42, "dual")


class TestChecksPass:
    def test_inversions(self):
        rep = verify_inversions(seed=1)
        assert rep.verdict == "PASS", rep.failures[:3]
        assert rep.samples == 5 * 12

    def test_frs(self):
        rep = verify_frs()
        assert rep.verdict == "PASS", rep.failures[:3]
        assert rep.info["claims"] == 19 and rep.info["symmetries"] == 12
        assert len(rep.info["residues"]) == rep.info["claims"]
        assert rep.info["worst_residue"] == "3/524288"
        # every claim is an image equality: both sides are proved
        assert all(set(res) == {"inclusion", "coverage"}
                   for res in rep.info["residues"].values())
        assert all(c.keys() == {"name", "chain", "source", "target"} and len(c["chain"]) == 1
                   for c in CLAIMS)
        # the cylinder images lie in their targets up to area exactly 0
        assert all(res["inclusion"] == "0" for res in rep.info["residues"].values())
        # witnesses of both verdicts ran through step_T
        assert rep.samples > 32 * rep.info["claims"]

    def test_every_target_carries_the_rows_of_U0(self):
        # the coverage side bounds target \ cl(table) over U0's box, which
        # is the target's part in U0 only when the target carries U0's rows
        for claim in CLAIMS + LISTED_CLAIMS:
            assert set(CAT.u0.prims) <= set(claim["target"].prims), claim["name"]

    def test_dual_inclusions(self):
        rep = verify_dual_inclusions()
        assert rep.verdict == "PASS", rep.failures[:3]
        assert len(rep.info["residues"]) == 4 and rep.info["symmetries"] == 12
        assert rep.info["mirrors"] == {"3": 2, "5": 4}
        assert Fraction(rep.info["worst_residue"]) < Fraction(1, 1000)

    def test_dual_orbit(self):
        rep = verify_dual_orbit(samples=12, depth=15, seed=1)
        assert rep.verdict == "PASS", rep.failures[:3]
        assert rep.samples > 100

    def test_monotonicity(self):
        rep = verify_monotonicity(samples=25, depth=40, seed=1)
        assert rep.verdict == "PASS", rep.failures[:3]

    def test_monotonicity_of_one_digit_expansions(self):
        # norm(q_1) = norm(b_1) >= 3 > norm(q_0) = 1 is compared too
        rep = verify_monotonicity(samples=20, depth=1, seed=1)
        assert rep.verdict == "PASS", rep.failures[:3]
        assert rep.samples > 0

    def test_special(self):
        rep = verify_special(samples=30, seed=1)
        assert rep.verdict == "PASS", rep.failures[:3]
        # the resolved digit list is reported
        assert rep.info["zeta_bar_digits"] == ["-1+2z", "-1+2z", "1+1z", "-2+1z"]
        # parabolic error at depth 60, exactly 1/|q_60|
        assert 0.02 < rep.info["minus_zeta_err_at_60"] < 0.025

    def test_inversion_rules_reproduce_the_listed_families(self):
        fams = _inversion_families()
        assert len(fams) == 12
        assert {(src, tgt) for _, src, tgt in fams} == set(_listed_inversion_families())

    def test_wrong_inversion_image_fails(self, monkeypatch):
        # the circle about c = (2/3)eta_1 stated to map to itself, not to the
        # circle about conj(c)
        fams = _inversion_families()
        c = embed(ETAS[1])
        name, src, _ = fams[0]
        fams[0] = (name, src, circle(Fraction(2, 3) * c.x, Fraction(2, 3) * c.y,
                                     Fraction(1, 3), "=="))
        monkeypatch.setattr(verifier, "_inversion_families", lambda: fams)
        rep = verify_inversions(seed=1)
        assert rep.verdict == "FAIL"
        assert [(f["family"], f["kind"]) for f in rep.failures] == [(name, "coefficients")]

    def test_rejected_zeta_bar_digits_fail(self, monkeypatch):
        # the error law and the S-set tracks both reject the digit list
        # that the resolved one replaced, at conj(zeta) only
        monkeypatch.setitem(cf.SPECIAL_PERIOD, ZETA_BAR, REJECTED_ZETA_BAR_PERIOD)
        rep = verify_special(samples=30, seed=1)
        assert rep.verdict == "FAIL"
        tracked = [f for f in rep.failures if f["kind"] in ("error_law", "s_set")]
        assert {f["kind"] for f in tracked} == {"error_law", "s_set"}
        assert {f["point"] for f in tracked} == {"zeta_bar"}

    def test_every_curve_yields_its_points(self):
        # chord slopes over all of Q reach every curve, L7 included
        for j in range(1, 13):
            rep = CheckReport("segments")
            pts = _segment_points(rep, CAT, j, random.Random(j), 20)
            assert len(pts) == 20 and rep.failures == [], f"L{j}"
            assert all(CAT.segments[j].contains(z) for z in pts)

    def test_block_table_shape(self):
        blocks = dual_inclusion_blocks()
        assert set(blocks) == {1, 2, 4, 6}
        assert all(len(v) in (6, 8) for v in blocks.values())


class TestDeterminism:
    def test_identical_reports_for_identical_seeds(self):
        a = [r.as_dict() for r in run_checks(["inversions", "orbit"],
                                             samples=2000, depth=10, seed=42)]
        b = [r.as_dict() for r in run_checks(["inversions", "orbit"],
                                             samples=2000, depth=10, seed=42)]
        assert canonical_json(a) == canonical_json(b)

    def test_different_seeds_differ(self):
        a = verify_dual_orbit(samples=6, depth=10, seed=1)
        b = verify_dual_orbit(samples=6, depth=10, seed=2)
        assert a.verdict == b.verdict == "PASS"

    def test_frs_and_dual_identical_for_identical_seeds(self):
        def run():
            return canonical_json([r.as_dict() for r in run_checks(
                ["frs", "dual"], samples=300, depth=10, seed=42)])

        assert run() == run()


def _claim(name: str) -> dict:
    return next(c for c in LISTED_CLAIMS if c["name"] == name)


def _assert_inclusion_fails(claim: dict) -> None:
    """The certificate fails the claim at an exact point w that the scalar
    path accepts and the closed target excludes."""
    rep = CheckReport("claim")
    _certify_claim(rep, claim)
    fail = next(f for f in rep.failures if f["kind"] == "inclusion")
    assert fail["counterexamples"] > 0
    w = parse_field_element(fail["example"])
    assert _accepted_exact(claim, w)
    assert not claim["target"].contains(w, closed=True)


class TestCertificate:
    """The box-tree certificate fails false claims with exact counterexamples."""

    def test_printed_u36_target_fails(self):
        _assert_inclusion_fails(dict(_claim("U0 ---1+2z,-1+2z,4+1z--> U_3_3"),
                                     target=CAT.u_cells[(3, 6)]))

    def test_u45_in_place_of_u44_fails(self):
        _assert_inclusion_fails(dict(_claim("U_2_1 ---1-1z--> U_4_4"),
                                     target=CAT.u_cells[(4, 5)]))

    @pytest.mark.parametrize("name, fails, example", [
        ("U_3_1 --3-3z--> U_3_2", 393216, "3/8-1/16r"),
        ("U_1_1 --1+1z--> U_1_1", 61971, "-9/16-9/32r"),
    ])
    def test_too_large_target_fails_coverage(self, name, fails, example):
        # U0 holds every image, so only the coverage side sees that the
        # image is smaller: at an exact point of U0 outside the closed table
        claim = dict(_claim(name), target=CAT.u0)
        rep = CheckReport("claim")
        residues = _certify_claim(rep, claim)
        assert residues["inclusion"] == 0
        assert [(f["kind"], f["counterexamples"], f["example"]) for f in rep.failures] == [
            ("coverage", fails, example)]
        w = parse_field_element(example)
        assert CAT.u0.contains(w) and not _claim_table(claim).contains(w, closed=True)
        assert not _accepted_exact(claim, w)

    def test_table_claims_without_source_fail(self):
        # in the digit-transition table every source cell restricts its
        # image, in the listed mirror images too; the T<digit> claims, whose
        # targets are the cells U_{1,k} = T<eta_k>, are left out
        table = [c for c in LISTED_CLAIMS
                 if c["source"] is not None and not c["target"].name.startswith("U_1_")]
        assert len(table) == 15
        for claim in table:
            _assert_inclusion_fails(dict(claim, source=None))

    def test_pullback_by_plus_d_fails(self, monkeypatch):
        def pullback_plus(reg, chain):
            for d in chain:
                reg = reg.invert().translate(embed(d))
            return reg

        monkeypatch.setattr(verifier, "_pullback", pullback_plus)
        rep = verify_frs()
        assert rep.verdict == "FAIL"
        # the witnesses see that the table no longer matches the map
        assert any(f["kind"] == "witness_mismatch" for f in rep.failures)
        # the targets found from the broken tables fail with exact
        # counterexamples too; the witnesses of earlier claims fill the
        # report's 64 failures, so each claim is certified alone
        assert rep.info["failures_truncated"]
        fails = []
        for claim in _frs_claims(CAT):
            alone = CheckReport("claim")
            _certify_claim(alone, claim)
            fails += [f for f in alone.failures if f["kind"] in ("inclusion", "coverage")]
        assert fails and all(f["counterexamples"] > 0 for f in fails)
        # the dual terms are pulled back by the same function
        rep = verify_dual_inclusions()
        assert rep.verdict == "FAIL"
        assert {f["kind"] for f in rep.failures} == {"inclusion", "overlap"}
        assert all(f["counterexamples"] > 0 for f in rep.failures)

    @pytest.mark.parametrize("block, i, digit", [(1, 0, ETAS[5]), (6, 7, ETAS[3])])
    def test_wrong_dual_digit_fails(self, block, i, digit):
        terms = list(dual_inclusion_blocks()[block])
        terms[i] = (terms[i][0], digit)
        rep = CheckReport("block")
        _certify_block(rep, block, terms, _dual_proofs())
        assert rep.verdict == "FAIL"
        regs = [_pullback(CAT.v_star[kl], [alpha]) for kl, alpha in terms]
        for fail in rep.failures:
            z = parse_field_element(fail["example"])
            inside = [regs[[str(t) for t in terms].index(t)].contains(z)
                      for t in fail["terms"]]
            assert fail["counterexamples"] > 0 and all(inside)
            if fail["kind"] == "inclusion":
                assert not CAT.v_star[(block, 1)].contains(z, closed=True)

    def test_residues_shrink_with_depth(self, monkeypatch):
        # a point contact leaves a residue that shrinks about 8x per two
        # levels; a false claim along a curve shrinks only 4x
        def residues(depth):
            monkeypatch.setattr(verifier, "DEPTH", depth)
            out = {}
            for rep in (verify_frs(), verify_dual_inclusions()):
                assert rep.verdict == "PASS", rep.failures[:3]
                out.update({(rep.name, key, side): Fraction(v)
                            for key, res in rep.info["residues"].items()
                            for side, v in res.items()})
            return out

        coarse, fine = residues(8), residues(10)
        assert any(fine.values())
        for key, res in fine.items():
            assert 6 * res <= coarse[key], key


class TestFoundTargets:
    """`_find_target` finds each target from the rows of the claim's table,
    and refutes a wrong candidate at its first counterexample."""

    def test_the_rule_finds_every_listed_one_step_target(self):
        # rotations and mirror images included
        for ref in ONE_STEP_CLAIMS:
            assert _find_target(CAT, _claim_table(ref)) == ref["target"], ref["name"]

    def test_tie_is_decided_by_the_first_counterexample(self):
        # U_{1,3} and U_{2,3} both have 7 rows, all in the table of
        # (U_{1,1}, eta_3); the walk of U_{1,3} stops at the first point of
        # U0 outside the closed table, which the scalar path rejects
        claim = next(c for c in CLAIMS
                     if c["source"] is CAT.u_cells[(1, 1)] and c["chain"] == [ETAS[3]])
        table = _claim_table(claim)
        u13, u23 = CAT.u_cells[(1, 3)], CAT.u_cells[(2, 3)]
        assert claim["target"] is u23 and len(u13.prims) == len(u23.prims) == 7
        w = _first_uncovered(u13, table)
        assert w == u13.excess(table, U0_BOX, verifier.DEPTH).example
        assert CAT.u0.contains(w) and u13.contains(w) and not table.contains(w, closed=True)
        assert not _accepted_exact(claim, w)
        assert _first_uncovered(u23, table) is None

    def test_no_rejected_candidate_is_counted(self, monkeypatch):
        # excess runs on each table (inclusion) and each found target
        # (coverage), never on the refuted U_{1,3}
        calls, excess = [], Region.excess

        def recorded(reg, other, box, depth):
            calls.append(reg.name)
            return excess(reg, other, box, depth)

        monkeypatch.setattr(Region, "excess", recorded)
        assert verify_frs().verdict == "PASS"
        assert sorted(calls) == sorted(["claim table"] * len(CLAIMS)
                                       + [c["target"].name for c in CLAIMS])

    def test_a_missing_image_fails_coverage(self, monkeypatch):
        # without U_{4,4} the largest candidate left for (U_{2,1}, eta_4) is
        # larger than the image, and its coverage fails at an exact point
        # that the scalar path rejects: nothing falls back silently
        monkeypatch.delitem(CAT.u_cells, (4, 4))
        rep = verify_frs()
        assert rep.verdict == "FAIL"
        [fail] = rep.failures
        claim = next(c for c in _frs_claims(CAT) if c["name"] == fail["claim"])
        assert claim["source"] is CAT.u_cells[(2, 1)] and claim["chain"] == [ETAS[4]]
        assert fail["kind"] == "coverage" and fail["counterexamples"] > 0
        w = parse_field_element(fail["example"])
        assert claim["target"].contains(w) and not _claim_table(claim).contains(w, closed=True)
        assert not _accepted_exact(claim, w)


_DEN = 1 << 16


def _brackets(claim, points) -> int:
    """The claim table, open and closed, brackets the scalar path at each
    point: open => accepted => closed.  Returns how many points lie on the
    table's boundary."""
    table = _claim_table(claim)
    on_lines = 0
    for w in points:
        inner, closed = table.contains(w), table.contains(w, closed=True)
        accepted = _accepted_exact(claim, w)
        assert (not inner or accepted) and (not accepted or closed), (claim["name"], str(w))
        on_lines += closed and not inner
    return on_lines


def _u0_grid(den):
    """Numerator arrays a, b of every point (a + b*sqrt(-3))/den of U0."""
    pts = [(x, y) for x in range(-den, den + 1) for y in range(-den // 2, den // 2 + 1)
           if in_U0(FieldElement(x, y, den))]
    return (np.array(v, dtype=np.int64) for v in zip(*pts))


class TestWSpace:
    """The w-space claim tables of verify_frs agree with the scalar path."""

    def test_random_grid_points(self):
        rng = np.random.default_rng(7)
        a = rng.integers(-_DEN, _DEN, 600, endpoint=True)
        b = rng.integers(-_DEN // 2, _DEN // 2, 600, endpoint=True)
        points = [w for w in map(FieldElement, a.tolist(), b.tolist(), [_DEN] * 600)
                  if in_U0(w)]
        assert len(points) > 300
        for claim in LISTED_CLAIMS:
            _brackets(claim, points)

    def test_zeros_of_the_pulled_back_primitives(self):
        # dyadic points on a pulled-back line or source circle, where the
        # half-open edges of U decide
        on_lines = 0
        for den in (1 << 4, 1 << 5, 1 << 6):
            a, b = _u0_grid(den)
            n = a * a + 3 * b * b
            for claim in LISTED_CLAIMS:
                zero = np.any([p.qq * n + p.bx * a * den + p.by * b * den + p.dd * den * den == 0
                               for p in _claim_table(claim).prims], axis=0)
                on_lines += _brackets(claim, list(map(FieldElement, a[zero].tolist(),
                                                      b[zero].tolist(), [den] * len(a))))
        assert on_lines > 0


class TestSharedProofs:
    """verify_dual_inclusions proves each distinct term and ordered pair once
    per call, and frs stops its witness tree early, with the same results."""

    def test_each_call_builds_11_terms_and_45_overlap_trees(self, monkeypatch):
        counts = {"terms": 0, "overlaps": 0}
        pullback, excess = verifier._pullback, Region.excess

        def counted_term(*args):
            counts["terms"] += 1
            return pullback(*args)

        def counted_excess(reg, other, box, depth):
            counts["overlaps"] += reg.name == "overlap"
            return excess(reg, other, box, depth)

        monkeypatch.setattr(verifier, "_pullback", counted_term)
        monkeypatch.setattr(Region, "excess", counted_excess)
        for _ in range(2):
            counts.update(terms=0, overlaps=0)
            assert verify_dual_inclusions().verdict == "PASS"
            assert counts == {"terms": 11, "overlaps": 45}

    def test_shared_residues_equal_unshared_blocks(self):
        rep = verify_dual_inclusions()
        for tgt_k, terms in dual_inclusion_blocks().items():
            alone = _certify_block(CheckReport("block"), tgt_k, terms, _dual_proofs())
            assert rep.info["residues"][str(tgt_k)] == {
                k: str(v) for k, v in alone.items()}, tgt_k

    def test_wrong_digit_fails_in_every_block_it_appears_in(self, monkeypatch):
        # (2, 2) feeds blocks 2, 4 and 6, each time just before (2, 1) with
        # digit eta_6; with eta_6 in place of eta_5 the two overlap, and the
        # one shared proof of that pair fails every block
        wrong = ((2, 2), ETAS[6])
        blocks = {k: [wrong if kl == (2, 2) else (kl, alpha) for kl, alpha in terms]
                  for k, terms in dual_inclusion_blocks().items()}
        monkeypatch.setattr(verifier, "dual_inclusion_blocks", lambda: blocks)
        rep = verify_dual_inclusions()
        alone = CheckReport("blocks")
        for tgt_k, terms in blocks.items():
            _certify_block(alone, tgt_k, terms, _dual_proofs())
        assert rep.failures == alone.failures
        failed = {f["block"] for f in rep.failures
                  if f["kind"] == "overlap" and str(wrong) in f["terms"]}
        assert failed == {2, 4, 6}
        # each example lies in both terms
        for fail in rep.failures:
            z = parse_field_element(fail["example"])
            for kl, alpha in (t for t in blocks[fail["block"]] if str(t) in fail["terms"]):
                assert _pullback(CAT.v_star[kl], [alpha]).contains(z)

    def test_early_stopped_witnesses_are_the_first_of_the_full_tree(self):
        for claim in CLAIMS:
            table = _claim_table(claim)
            den, _, tree = table.box_tree(None, U0_BOX, verifier._WITNESS_DEPTH)
            full = {INSIDE: [], OUTSIDE: []}
            for verdict, u, v, _, _ in tree:
                if verdict in full:
                    full[verdict].append(FieldElement(u, v, den))
            want = (full[INSIDE][:32], [w for w in full[OUTSIDE] if in_U0(w)][:32])
            assert _witnesses(table) == want, claim["name"]
            assert len(want[0]) == 32, claim["name"]


def _rotated_chain(chain, m):
    """The chain of zeta^-m z: (zeta^m d_1, zeta^-m d_2, zeta^m d_3, ...)."""
    return [ZETA ** (m if i % 2 == 0 else -m % 6) * d for i, d in enumerate(chain)]


def _prims(reg):
    return set(reg.prims)


def _image(reg, mirrored, rot):
    """zeta^rot * reg, after the mirror M(z) = -conj(z) if mirrored."""
    return (reg.mirror() if mirrored else reg).rotate(rot)


class TestSymmetries:
    """One representative per dihedral class proves every claim of its
    class: each listed claim and dual term is the image of a representative
    under a rotation, or under the mirror M(z) = -conj(z) and a rotation,
    exactly."""

    def test_every_listed_claim_is_a_dihedral_image_of_a_representative(self):
        def matches(ref, claim, m, mirrored):
            # M commutes with T, mapping each digit d to -conj(d) and w to
            # M(w); then w = z_n rotates by zeta^m for odd n and zeta^-m for
            # even n
            chain = [-d.conj() for d in claim["chain"]] if mirrored else claim["chain"]
            s = m if len(chain) % 2 else -m % 6
            return (_rotated_chain(chain, m) == ref["chain"]
                    and (ref["source"] is None) == (claim["source"] is None)
                    and (ref["source"] is None or _prims(ref["source"]) == _prims(
                        _image(claim["source"], mirrored, -m % 6)))
                    and _prims(ref["target"]) == _prims(_image(claim["target"], mirrored, s))
                    and _prims(_claim_table(ref)) == _prims(
                        _image(_claim_table(claim), mirrored, s)))

        def found(ref, mirrors):
            return any(matches(ref, claim, m, mirrored) for claim in CLAIMS
                       for m in range(6) for mirrored in mirrors)

        assert (len(CLAIMS), len(ONE_STEP_CLAIMS), len(DEEP_CLAIMS)) == (19, 34, 9)
        assert {c["name"] for c in CLAIMS} <= {c["name"] for c in ONE_STEP_CLAIMS}
        for ref in ONE_STEP_CLAIMS:
            assert found(ref, (False, True)), ref["name"]
        # the six dropped mirror duplicates are no rotation of a representative
        assert sum(not found(ref, (False,)) for ref in ONE_STEP_CLAIMS) == 6

    def test_every_rotated_dual_term_is_a_rotated_representative(self):
        for tgt_k, terms in {**dual_inclusion_blocks(), **_mirrored_blocks()}.items():
            for rot in range(6):
                assert _prims(CAT.v_star[(tgt_k, 1 + rot)]) == _prims(
                    CAT.v_star[(tgt_k, 1)].rotate(rot))
                for kl, alpha in terms:
                    assert _prims(_listed_term_region(CAT, kl, alpha, rot)) == _prims(
                        _pullback(CAT.v_star[kl], [alpha]).rotate(rot)), (tgt_k, rot, kl)

    def test_mirrored_blocks_are_images_of_their_partners(self):
        # R = zeta*M maps the target and the terms of blocks 2 and 4 onto
        # those of the written-out blocks 3 and 5, term for term
        blocks = dual_inclusion_blocks()
        for k, terms in _mirrored_blocks().items():
            j = MIRROR_PAIRS[k]
            assert _prims(CAT.v_star[(k, 1)]) == _prims(_image(CAT.v_star[(j, 1)], True, 4))
            refs = {frozenset(_pullback(CAT.v_star[kl], [a]).prims) for kl, a in terms}
            images = {frozenset(_image(_pullback(CAT.v_star[kl], [a]), True, 4).prims)
                      for kl, a in blocks[j]}
            assert refs == images and len(refs) == len(terms) == len(blocks[j]), k

    def test_an_unlisted_rotation_proves(self):
        # zeta^3 * (3 + 0z): in no claim list, implied by U0 --3+0z--> U0
        rep = CheckReport("claim")
        residues = _certify_claim(rep, dict(name="U0 ---3+0z--> U0", chain=[EisensteinInt(-3, 0)],
                                            source=None, target=CAT.u0))
        assert rep.verdict == "PASS", rep.failures[:3]
        assert residues["inclusion"] == 0

    def test_unlisted_mirror_images_prove(self):
        # images of U_4_1 --(+-3-+3z)--> U_3_2 on the ray from U_5_1, and
        # M(4 + 1z), the second rotation orbit of norm 21: in no claim list
        u51 = CAT.u_cells[(5, 1)]
        claims = [dict(name=f"U_5_1 --{alpha}--> U_3_5", chain=[alpha], source=u51,
                       target=CAT.u_cells[(3, 5)])
                  for alpha in (EisensteinInt(3, -3), EisensteinInt(-3, 3))]
        claims.append(dict(name="U0 ---5+1z--> U0", chain=[EisensteinInt(-5, 1)], source=None,
                           target=CAT.u0))
        listed = [(c["chain"], c["source"]) for c in LISTED_CLAIMS]
        for claim in claims:
            assert (claim["chain"], claim["source"]) not in listed, claim["name"]
            rep = CheckReport("claim")
            residues = _certify_claim(rep, claim)
            assert rep.verdict == "PASS", (claim["name"], rep.failures[:3])
            assert set(residues.values()) == {0}, claim["name"]
            # a full cylinder's table is all of U0, which leaves no outside
            # witness
            full = claim["source"] is None and claim["target"] is CAT.u0
            assert rep.samples == (32 if full else 64), claim["name"]


def _composed_image(chain):
    """T^n<chain> from the listed one-step claims, by the induction of
    `_frs_claims`: a prefix image P = zeta^r U_{k,1} and a digit d give
    zeta^-r times the target of the listed claim (U_{k,1}, zeta^r d); P = U0
    gives the target of the claim (U0, d)."""
    image = CAT.u0
    for d in chain:
        if _prims(image) == _prims(CAT.u0):
            source, r = None, 0
        else:
            k, l = next(kl for kl, reg in CAT.u_cells.items() if _prims(reg) == _prims(image))
            source, r = CAT.u_cells[(k, 1)], l - 1
        step = next(c for c in ONE_STEP_CLAIMS
                    if c["chain"] == [ZETA ** r * d] and c["source"] is source)
        image = step["target"].rotate(-r % 6)
    return image


class TestDeeperClaims:
    """The deeper listed cylinder images follow from the one-step claims
    and are proved directly too."""

    def test_listed_images_compose_from_one_step_claims(self):
        assert len(DEEP_CLAIMS) == 9
        for claim in DEEP_CLAIMS:
            assert _prims(_composed_image(claim["chain"])) == _prims(claim["target"]), (
                claim["name"])

    def test_listed_images_prove_directly(self):
        for claim in DEEP_CLAIMS:
            rep = CheckReport("claim")
            residues = _certify_claim(rep, claim)
            assert rep.verdict == "PASS", (claim["name"], rep.failures[:3])
            assert set(residues) == {"inclusion", "coverage"}, claim["name"]
            assert max(residues.values()) <= Fraction(3, 524288), claim["name"]
