
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
from eisencf.regions import INSIDE, OUTSIDE, Region, build_catalog, circle, half_plane
from eisencf.verifier import (
    CheckReport,
    _accepted_exact,
    _certify_block,
    _certify_claim,
    _claim_table,
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


def _listed_claims(cat):
    """The finite range claims with every rotation written out: the
    references that the verifier's one representative per rotation class
    must reproduce."""
    claims = []
    for alpha in (
        EisensteinInt(3, 0), EisensteinInt(0, 3), EisensteinInt(-3, 3),
        EisensteinInt(3, 3), ETAS[1] * 2, ETAS[4] * 2, EisensteinInt(4, 1),
        EisensteinInt(-1, 5),
    ):
        claims.append(dict(name=f"full<{alpha}>", chain=[alpha], source=None,
                           target=cat.u0, coverage=True))
    for k in range(1, 7):
        claims.append(dict(name=f"T<eta{k}>=U_1_{k}", chain=[ETAS[k]], source=None,
                           target=cat.u_cells[(1, k)], coverage=True))
    for k in range(1, 7):
        l = (4 - k) % 6 or 6
        claims.append(dict(name=f"T2<eta{k},eta{l}>=U_2_{l}",
                           chain=[ETAS[k], ETAS[l]], source=None,
                           target=cat.u_cells[(2, l)], coverage=True))
    # the depth-3, transition-table and T<digit> claims have no rotated copies
    return claims + [c for c in _frs_claims(cat)
                     if not c["name"].startswith(("full<", "T<eta", "T2<"))]


LISTED_CLAIMS = _listed_claims(CAT)


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
        assert rep.info["claims"] == 29 and rep.info["rotations"] == 6
        assert len(rep.info["residues"]) == rep.info["claims"]
        # the cylinder images lie in their targets up to area exactly 0
        assert all(res["inclusion"] == "0" for res in rep.info["residues"].values())
        # witnesses of both verdicts ran through step_T
        assert rep.samples > 32 * rep.info["claims"]

    def test_dual_inclusions(self):
        rep = verify_dual_inclusions()
        assert rep.verdict == "PASS", rep.failures[:3]
        assert len(rep.info["residues"]) == 6 and rep.info["rotations"] == 6
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
        rep = verify_special(depthlimit=60, samples=30, seed=1)
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
        rep = verify_special(depthlimit=60, samples=30, seed=1)
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
        assert set(blocks) == {1, 2, 3, 4, 5, 6}
        assert all(len(v) in (6, 8) for v in blocks.values())


class TestDeterminism:
    def test_identical_reports_for_identical_seeds(self):
        a = [r.as_dict() for r in run_checks(["inversions", "orbit"],
                                             samples=2000, depth=10, seed=42)]
        b = [r.as_dict() for r in run_checks(["inversions", "orbit"],
                                             samples=2000, depth=10, seed=42)]
        for ra, rb in zip(a, b):
            ra.pop("elapsed_s"), rb.pop("elapsed_s")
        assert canonical_json(a) == canonical_json(b)

    def test_different_seeds_differ(self):
        a = verify_dual_orbit(samples=6, depth=10, seed=1)
        b = verify_dual_orbit(samples=6, depth=10, seed=2)
        assert a.verdict == b.verdict == "PASS"

    def test_frs_and_dual_identical_for_identical_seeds(self):
        def run():
            docs = [r.as_dict() for r in run_checks(["frs", "dual"], samples=300,
                                                    depth=10, seed=42)]
            for d in docs:
                d.pop("elapsed_s")
            return canonical_json(docs)

        assert run() == run()


def _claim(name: str) -> dict:
    return next(c for c in CLAIMS if c["name"] == name)


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
        _assert_inclusion_fails(dict(_claim("T3<eta2,eta2,eta1+3>=U_3_3"),
                                     target=CAT.u_cells[(3, 6)]))

    def test_u45_in_place_of_u44_fails(self):
        _assert_inclusion_fails(dict(_claim("U_2_1 ---1-1z--> U_4_4"),
                                     target=CAT.u_cells[(4, 5)]))

    def test_table_claims_without_source_fail(self):
        # in the digit-transition table every source cell restricts its image
        table = [c for c in CLAIMS if c["source"] is not None and "T<" not in c["name"]]
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
        fails = [f for f in rep.failures if f["kind"] in ("inclusion", "coverage")]
        assert fails and all(f["counterexamples"] > 0 for f in fails)
        # the witnesses see that the table no longer matches the map
        assert any(f["kind"] == "witness_mismatch" for f in rep.failures)
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
        _certify_block(rep, block, terms)
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

    def test_each_call_builds_11_terms_and_50_overlap_trees(self, monkeypatch):
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
            assert counts == {"terms": 11, "overlaps": 50}

    def test_shared_residues_equal_unshared_blocks(self):
        rep = verify_dual_inclusions()
        for tgt_k, terms in dual_inclusion_blocks().items():
            alone = _certify_block(CheckReport("block"), tgt_k, terms)
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
            _certify_block(alone, tgt_k, terms)
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


class TestRotations:
    """One representative per rotation class proves every rotated claim: each
    listed claim and dual term is the zeta-image of a representative, exactly."""

    def test_every_listed_claim_is_a_rotated_representative(self):
        def matches(ref, claim, m):
            # w = z_n rotates by zeta^m for odd n and zeta^-m for even n
            s = m if len(claim["chain"]) % 2 else -m % 6
            return (_rotated_chain(claim["chain"], m) == ref["chain"]
                    and ref["coverage"] == claim["coverage"]
                    and (ref["source"] is None) == (claim["source"] is None)
                    and (ref["source"] is None
                         or _prims(ref["source"]) == _prims(claim["source"].rotate(-m % 6)))
                    and _prims(ref["target"]) == _prims(claim["target"].rotate(s))
                    and _prims(_claim_table(ref)) == _prims(_claim_table(claim).rotate(s)))

        assert (len(CLAIMS), len(LISTED_CLAIMS)) == (29, 43)
        assert {c["name"] for c in CLAIMS} <= {c["name"] for c in LISTED_CLAIMS}
        for ref in LISTED_CLAIMS:
            assert any(matches(ref, claim, m) for claim in CLAIMS for m in range(6)), ref["name"]

    def test_every_rotated_dual_term_is_a_rotated_representative(self):
        for tgt_k, terms in dual_inclusion_blocks().items():
            for rot in range(6):
                assert _prims(CAT.v_star[(tgt_k, 1 + rot)]) == _prims(
                    CAT.v_star[(tgt_k, 1)].rotate(rot))
                for kl, alpha in terms:
                    assert _prims(_listed_term_region(CAT, kl, alpha, rot)) == _prims(
                        _pullback(CAT.v_star[kl], [alpha]).rotate(rot)), (tgt_k, rot, kl)

    def test_an_unlisted_rotation_proves(self):
        # zeta^3 * (3 + 0z): in no claim list, implied by full<3+0z>
        rep = CheckReport("claim")
        residues = _certify_claim(rep, dict(name="full<-3+0z>", chain=[EisensteinInt(-3, 0)],
                                            source=None, target=CAT.u0, coverage=True))
        assert rep.verdict == "PASS", rep.failures[:3]
        assert residues["inclusion"] == 0
