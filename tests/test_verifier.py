
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import eisencf.verifier as verifier
from eisencf._util import canonical_json
import eisencf.cf as cf
from eisencf.exact import (
    ETAS, MINUS_ZETA, SQRT_M3, ZETA, ZETA_BAR, EisensteinInt, FieldElement, embed, j_element,
    parse_field_element,
)
from eisencf.hexdomain import in_U0
from eisencf.regions import (
    INSIDE, MIRROR_PAIRS, OUTSIDE, Primitive, Region, build_catalog, circle, half_plane,
    rational_point,
)
from eisencf.verifier import (
    CheckReport,
    _accepted_exact,
    _certify_block,
    _claim_table,
    _coverage,
    _dual_proofs,
    _frs_entry,
    _frs_pairs,
    _inversion_families,
    _pullback,
    _record,
    _segment_points,
    _witnesses,
    FRS_NORM,
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
from oracles import (
    REJECTED_ZETA_BAR_PERIOD, inversion_points_reference, row_max_sign,
    segment_points_reference,
)

CAT = build_catalog()
PAIRS = _frs_pairs()
# the derived table: one entry per dihedral class, its target found
ENTRIES = [_frs_entry(CheckReport("frs"), source, alpha) for source, alpha in PAIRS]
IMAGES = [e for e in ENTRIES if e["target"] is not None]


class _ZeroEvery7(random.Random):
    """A Random whose every 7th randint returns 0, its other draws unchanged."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def randint(self, a, b):
        self.calls += 1
        return 0 if self.calls % 7 == 0 else super().randint(a, b)


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


def _hand_claims(cat):
    """The 19 one-step claims once listed by hand, one per dihedral class,
    with their targets stated: 12 of norm <= FRS_NORM, images of derived
    entries, and 7 past it -- two full U0 cylinders and the j = 1, 2
    members of the digit rays -- which are proved here."""
    e, E, u0 = ETAS, EisensteinInt, cat.u0
    stated = [(None, E(3, 0), u0), (None, E(3, 3), u0), (None, E(2, 2), u0), (None, E(4, 1), u0),
              (None, e[1], (1, 1)), (1, e[3], (2, 3)), (2, e[4], (4, 4)), (2, E(-1, 5), (3, 4)),
              (3, E(3, -3), (3, 2)), (4, E(3, -3), (3, 2)), (4, E(-3, 3), (3, 2)),
              (2, E(-1, 8), (3, 4)), (3, E(6, -6), (3, 2)), (4, E(6, -6), (3, 2)),
              (4, E(-6, 6), (3, 2)),
              (1, e[1], (1, 1)), (2, e[6], (1, 6)), (3, e[4], (1, 4)), (4, e[4], (1, 4))]
    return [_listed_claim(k and cat.u_cells[(k, 1)], [alpha],
                          tgt if tgt is u0 else cat.u_cells[tgt]) for k, alpha, tgt in stated]


HAND_CLAIMS = _hand_claims(CAT)


def _stated_witnesses(table):
    """`_witnesses` at the stated claims' budget: depth 5, 32 per verdict."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verifier, "_WITNESS_DEPTH", 5)
        patch.setattr(verifier, "_WITNESSES", 32)
        return _witnesses(table)


def _certify_claim(rep: CheckReport, claim: dict) -> dict:
    """Prove a stated claim's image equality T^n<chain> = target on box
    trees over U0 into rep; returns its residues.

    Inclusion: the table lies in the closed target.  Coverage: the target,
    U0 or a U-cell, lies in the closed table.  The witnesses, from a tree of
    depth 5 and 32 per verdict, must get the table's verdict from `expand`."""
    name, target, table = claim["name"], claim["target"], _claim_table(claim)
    residues = {"inclusion": _record(rep, table.excess(target, U0_BOX, verifier.DEPTH),
                                     claim=name, kind="inclusion"),
                "coverage": _record(rep, target.excess(table, U0_BOX, verifier.DEPTH),
                                    claim=name, kind="coverage")}
    for verdict, ws in zip((True, False), _stated_witnesses(table)):
        for w in ws:
            rep.samples += 1
            if _accepted_exact(claim, w) != verdict:
                rep.fail(claim=name, kind="witness_mismatch", w=str(w), table=verdict)
    return residues


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
    return cat.v_star[kl].invert().rotate(rot).translate(-shift)


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
        rep = CheckReport("x")
        assert rep.verdict == "PASS"
        rep.fail(reason="boom")
        assert rep.verdict == "FAIL"
        assert rep.as_dict() == {"name": "x", "verdict": "FAIL", "samples": 0,
                                 "failures": [{"reason": "boom"}], "info": {}}

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
        assert (rep.info["claims"], rep.info["nulls"]) == (54, 17)
        assert rep.info["digit_norm"] == FRS_NORM == 12 and rep.info["symmetries"] == 12
        assert len(rep.info["residues"]) == rep.info["claims"]
        assert rep.info["worst_residue"] == "3/524288"
        # an image is proved by its coverage walk, a null entry by a tree
        # that leaves area exactly 0
        residues = rep.info["residues"]
        nulls = {name: res for name, res in residues.items() if name.endswith("--> null")}
        assert len(nulls) == 17 and all(res == {"null": "0"} for res in nulls.values())
        assert all(set(res) == {"coverage"} for name, res in residues.items() if name not in nulls)
        assert all(len(e["chain"]) == 1 for e in ENTRIES)
        assert [e["name"] for e in ENTRIES] == list(residues)
        # witnesses of both verdicts ran through `expand`, 8 per verdict
        assert rep.samples == 368

    def test_every_target_carries_the_rows_of_U0(self):
        # the coverage side bounds target \ cl(table) over U0's box, which
        # is the target's part in U0 only when the target carries U0's rows
        for claim in IMAGES + LISTED_CLAIMS + HAND_CLAIMS:
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

    def test_inversion_points_match_the_fraction_loop(self, monkeypatch):
        # the pinned artifact records only counts and verdicts, so the points
        # verify_inversions checks, and the rng state they leave, are pinned
        # here against the Fraction loop; it hands rational_point unreduced
        # pairs such as (4, 6)
        made, drawn = [], []

        def recording_random(seed):
            made.append(random.Random(seed))
            return made[-1]

        def recording_point(prim, tn, td):
            drawn.append(z := rational_point(prim, tn, td))
            return z

        monkeypatch.setattr(verifier, "random", SimpleNamespace(Random=recording_random))
        monkeypatch.setattr(verifier, "rational_point", recording_point)
        for seed in range(4):
            made.clear()
            drawn.clear()
            assert verify_inversions(seed).verdict == "PASS"
            ref_rng = random.Random(derive_seed(seed, "inversions"))
            want = inversion_points_reference(ref_rng)
            got = [z for z in drawn if z is not None and not z.is_zero()]
            assert [(z.a, z.b, z.c) for z in got] == [(z.a, z.b, z.c) for z in want], seed
            assert len(made) == 1 and made[0].getstate() == ref_rng.getstate(), seed

    def test_rejected_zeta_bar_digits_fail(self, monkeypatch):
        # the error law and the S-set tracks both reject the digit list
        # that the resolved one replaced, at conj(zeta) only
        monkeypatch.setitem(cf.SPECIAL_PERIOD, ZETA_BAR, REJECTED_ZETA_BAR_PERIOD)
        rep = verify_special(samples=30, seed=1)
        assert rep.verdict == "FAIL"
        tracked = [f for f in rep.failures if f["kind"] in ("error_law", "s_set")]
        assert {f["kind"] for f in tracked} == {"error_law", "s_set"}
        assert {f["point"] for f in tracked} == {"zeta_bar"}

    @pytest.mark.parametrize("put, failures", [
        ({7: 10, 10: 7}, {"cycle": 4}),
        ({10: 12, 12: 10}, {"cycle2": 8}),
        ({9: 8}, {"track_escape": 13, "cycle": 4}),
    ])
    def test_wrong_boundary_track_fails(self, monkeypatch, put, failures):
        # the forced cycles and the track closure each fail on a catalogue
        # whose curve L_i is L_j for each i: j of put
        segments = {**CAT.segments, **{i: CAT.segments[j] for i, j in put.items()}}
        monkeypatch.setattr(verifier, "build_catalog", lambda: CAT._replace(segments=segments))
        rep = verify_special(samples=30, seed=1)
        assert rep.verdict == "FAIL"
        assert Counter(f["kind"] for f in rep.failures) == failures

    def test_every_curve_yields_its_points(self):
        # chord slopes over all of Q reach every curve, L7 included
        for j in range(1, 13):
            rep = CheckReport("segments")
            pts = _segment_points(rep, CAT, j, random.Random(j), 20)
            assert len(pts) == 20 and rep.failures == [], f"L{j}"
            assert all(CAT.segments[j].contains(z) for z in pts)

    def test_segment_points_match_the_fraction_sampler(self):
        # the pinned artifact records only counts and verdicts, so the points
        # themselves, and the rng state they leave, are pinned here against
        # the Fraction sampler; _ZeroEvery7 makes sure k = 0 is drawn
        for j in range(1, 13):
            for rng_type in (random.Random, _ZeroEvery7):
                for seed in (5, 29):
                    rng, ref_rng = rng_type(seed), rng_type(seed)
                    rep, ref_rep = CheckReport("segments"), CheckReport("segments")
                    got = _segment_points(rep, CAT, j, rng, 25)
                    want = segment_points_reference(ref_rep, CAT, j, ref_rng, 25)
                    assert [(z.a, z.b, z.c) for z in got] == [
                        (z.a, z.b, z.c) for z in want], (f"L{j}", rng_type, seed)
                    assert rng.getstate() == ref_rng.getstate(), (f"L{j}", rng_type, seed)
                    assert len(got) == 25 and rep.failures == ref_rep.failures == []

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
        # the dispatch hands out what a fresh direct proof reports
        dispatched = run_checks(["frs", "dual"], samples=300, depth=10, seed=42)
        fresh = [verify_frs(), verify_dual_inclusions()]
        assert (canonical_json([r.as_dict() for r in dispatched])
                == canonical_json([r.as_dict() for r in fresh]))


class TestProvedOnce:
    """`frs` and `dual` depend on no input: the CHECKS entries prove each once
    per process and hand out copies (see also `tests/test_cli.py::TestVerify`)."""

    def test_two_requests_prove_the_table_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _frs_entry(*args)

        verifier._proved.cache_clear()
        monkeypatch.setattr(verifier, "_frs_entry", counted)
        for _ in range(2):
            assert all(r.verdict == "PASS" for r in run_checks(["all"], samples=300))
        assert len(calls) == len(PAIRS) == 54

    def test_direct_proofs_still_prove_afresh(self, monkeypatch):
        # the dispatch holds a PASS; the functions it wraps do not read it
        assert all(r.verdict == "PASS" for r in run_checks(["frs", "dual"]))

        def pullback_plus(reg, chain):
            for d in chain:
                reg = reg.invert().translate(embed(d))
            return reg

        monkeypatch.setattr(verifier, "_pullback", pullback_plus)
        assert verify_frs().verdict == verify_dual_inclusions().verdict == "FAIL"


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

    def test_no_chain_steps_past_a_special_vertex(self):
        # T stops at -zeta and conj(zeta): [d] reaches the vertex on its last
        # digit; [d, sqrt(-3)] reaches it a digit early, where `expand`
        # splices sqrt(-3), so only the Truncated guard rejects it
        d = EisensteinInt(3, 0)
        for w in (MINUS_ZETA, ZETA_BAR):
            assert _accepted_exact(dict(chain=[d], source=None), w)
            assert not _accepted_exact(dict(chain=[d, SQRT_M3], source=None), w)

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
        assert rep.verdict == "FAIL" and "failures_truncated" not in rep.info
        # the broken tables are the true tables of other digits, so their
        # found targets prove; only the witnesses see that a table no longer
        # matches the map, each entry in one record of its first mismatch
        assert len(rep.failures) == 36
        assert {f["kind"] for f in rep.failures} == {"witness_mismatch"}
        pairs = {f"{(src or CAT.u0).name} --{alpha}-->": (src, alpha) for src, alpha in PAIRS}
        for fail in rep.failures:
            src, alpha = pairs[fail["entry"].rsplit(" ", 1)[0]]
            w = parse_field_element(fail["w"])
            assert fail["mismatches"] > 0
            assert _accepted_exact(dict(chain=[alpha], source=src), w) != fail["table"]
        # the stated targets of the hand claims fail with exact
        # counterexamples
        fails = []
        for claim in HAND_CLAIMS:
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
    """`_frs_entry` finds each image from the rows of its table, refutes a
    wrong candidate at its first counterexample, and proves a table that no
    candidate covers null, or fails it at an exact point."""

    def test_the_rule_finds_every_listed_one_step_target(self):
        # the listed digits past norm 12 included, where `verify frs` does
        # not look
        for ref in ONE_STEP_CLAIMS:
            rep = CheckReport("entry")
            entry = _frs_entry(rep, ref["source"], ref["chain"][0])
            assert entry["target"] == ref["target"] and entry["name"] == ref["name"], ref["name"]
            assert rep.verdict == "PASS", (ref["name"], rep.failures[:3])

    def test_tie_is_decided_by_the_first_counterexample(self):
        # U_{1,3} and U_{2,3} both have 7 rows, all in the table of
        # (U_{1,1}, eta_3); the walk of U_{1,3} stops at a counterexample, a
        # point of U0 outside the closed table that the scalar path rejects
        entry = next(e for e in ENTRIES
                     if e["source"] is CAT.u_cells[(1, 1)] and e["chain"] == [ETAS[3]])
        table = _claim_table(entry)
        u13, u23 = CAT.u_cells[(1, 3)], CAT.u_cells[(2, 3)]
        assert entry["target"] is u23 and len(u13.prims) == len(u23.prims) == 7
        assert _coverage(u13, table) is None
        w = u13.excess(table, U0_BOX, verifier.DEPTH).example
        assert CAT.u0.contains(w) and u13.contains(w) and not table.contains(w, closed=True)
        assert not _accepted_exact(entry, w)
        assert _coverage(u23, table) == entry["residues"]["coverage"]

    def test_the_coverage_walk_bounds_what_excess_bounds(self):
        for entry in IMAGES:
            full = entry["target"].excess(_claim_table(entry), U0_BOX, verifier.DEPTH)
            assert (full.fails, full.residue) == (0, entry["residues"]["coverage"]), entry["name"]

    def test_no_rejected_candidate_is_counted(self, monkeypatch):
        # excess runs on each null table alone, never on a candidate: a
        # candidate gets one walk, which stops at its first counterexample
        calls, excess = [], Region.excess

        def recorded(reg, other, box, depth):
            calls.append((reg.name, other))
            return excess(reg, other, box, depth)

        monkeypatch.setattr(Region, "excess", recorded)
        assert verify_frs().verdict == "PASS"
        assert calls == [("claim table", None)] * 17

    def test_one_table_build_per_pair(self, monkeypatch):
        built, claim_table = [], verifier._claim_table

        def counted(claim):
            built.append((claim["source"], *claim["chain"]))
            return claim_table(claim)

        monkeypatch.setattr(verifier, "_claim_table", counted)
        assert verify_frs().verdict == "PASS"
        assert built == list(PAIRS)

    def test_no_null_table_holds_an_accepted_grid_point(self):
        a, b = _u0_grid(1 << 5)
        points = list(map(FieldElement, a.tolist(), b.tolist(), [1 << 5] * len(a)))
        nulls = [e for e in ENTRIES if e["target"] is None]
        assert len(nulls) == 17
        for entry in nulls:
            assert not any(_accepted_exact(entry, w) for w in points), entry["name"]

    def test_closed_form_maxima_name_52_entries_without_a_tree(self):
        # a row whose maximum over cl(U0) is <= 0 holds on all of U0, and a
        # table with a row >= 0 on all of cl(U0) is null; `row_max_sign`
        # decides both with no box tree
        u0 = set(CAT.u0._ints)
        named = 0
        for entry in ENTRIES:
            rows = set(_claim_table(entry)._ints)
            null = any(row_max_sign(tuple(-v for v in row[:4])) <= 0 for row in rows)
            assert null == (entry["target"] is None), entry["name"]
            if null:
                continue
            kept = u0 | {row for row in rows if row_max_sign(row) > 0}
            target = set(entry["target"]._ints)
            if kept == target:
                named += 1
                continue
            # the other rows imply the one row left, which U0's do not
            assert entry["name"] in ("U_1_1 ---2+1z--> U_2_3", "U_4_1 ---2+1z--> U_2_3")
            ((qq, bx, by, dd, strict),) = kept - target
            assert target < kept
            extra = Region("extra", (Primitive(qq, bx, by, dd, "<" if strict else "<="),))
            assert entry["target"].excess(extra, U0_BOX, verifier.DEPTH).fails == 0
        assert named == 35

    def test_a_missing_image_fails_coverage(self, monkeypatch):
        # without an image in the catalogue, every candidate left fails its
        # coverage walk, and the null proof fails at an exact point of the
        # table that the scalar path accepts: nothing falls back silently
        for cell, failed in (
                ((4, 4), {"U_2_1 ---1-1z--> null": "1/8-5/16r"}),
                ((3, 2), {"U_3_1 ---3+3z--> null": "-5/8-1/16r",
                          "U_4_1 ---3+3z--> null": "-5/8-1/16r",
                          "U_4_1 --3-3z--> null": "-5/8-1/16r"})):
            with monkeypatch.context() as patch:
                patch.delitem(CAT.u_cells, cell)
                rep = verify_frs()
            assert {f["entry"]: f["example"] for f in rep.failures} == failed, cell
            for fail in rep.failures:
                assert fail["kind"] == "null" and fail["counterexamples"] > 0
                entry = next(e for e in ENTRIES
                             if e["name"].rsplit(" ", 1)[0] == fail["entry"].rsplit(" ", 1)[0])
                assert _accepted_exact(entry, parse_field_element(fail["example"]))


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
        # at the derived table's budget and at the stated claims' one
        for claims, walk, depth, count in ((ENTRIES, _witnesses, 3, 8),
                                           (HAND_CLAIMS, _stated_witnesses, 5, 32)):
            for claim in claims:
                table = _claim_table(claim)
                den, _, tree = table.box_tree(None, U0_BOX, depth)
                full = {INSIDE: [], OUTSIDE: []}
                for verdict, u, v, _, _ in tree:
                    if verdict in full:
                        full[verdict].append(FieldElement(u, v, den))
                want = (full[INSIDE][:count], [w for w in full[OUTSIDE] if in_U0(w)][:count])
                assert walk(table) == want, claim["name"]
                # a null table has no inside witness, an image some, and a
                # hand claim a full count
                assert bool(want[0]) == bool(claim["target"]), claim["name"]
                assert claims is ENTRIES or len(want[0]) == count, claim["name"]


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
            return any(matches(ref, claim, m, mirrored) for claim in IMAGES
                       for m in range(6) for mirrored in mirrors)

        # the listed one-step claims within the table's digit range, the
        # hand claims among them, are images of derived entries
        refs = [c for c in ONE_STEP_CLAIMS if c["chain"][0].norm() <= FRS_NORM]
        assert (len(ONE_STEP_CLAIMS), len(refs), len(DEEP_CLAIMS)) == (34, 23, 9)
        assert {c["name"] for c in HAND_CLAIMS} <= {c["name"] for c in ONE_STEP_CLAIMS}
        assert sum(c["chain"][0].norm() <= FRS_NORM for c in HAND_CLAIMS) == 12
        for ref in refs:
            assert found(ref, (False, True)), ref["name"]
        # some are images under a mirror only
        assert sum(not found(ref, (False,)) for ref in refs) == 3

    def test_the_representatives_cover_every_pair_once(self):
        # the images of the entries' pairs under the twelve symmetries, made
        # by rotating and mirroring the source cells, cover each pair of U0
        # or a U-cell and a digit of norm <= 12 exactly once
        keys = {frozenset(reg.prims): kl for kl, reg in CAT.u_cells.items()}
        keys[frozenset(CAT.u0.prims)] = None
        digits = {d for m in range(-4, 5) for n in range(-4, 5)
                  if 0 < (d := j_element(m, n)).norm() <= FRS_NORM}
        assert len(digits) == 18 and len(PAIRS) == 54
        covered = Counter()
        for source, alpha in PAIRS:
            covered.update({(keys[frozenset(_image(source or CAT.u0, mirrored, -m % 6).prims)],
                             ZETA ** m * (-alpha.conj() if mirrored else alpha))
                            for m in range(6) for mirrored in (False, True)})
        assert covered.keys() == {(key, d) for key in (None, *CAT.u_cells) for d in digits}
        assert len(covered) == 558 and set(covered.values()) == {1}

    def test_index_mirror_agrees_with_region_mirror(self):
        # M zeta^(l-1) = zeta^(1-l) M: M U_{k,l} is U_{k',l'-l+1} for
        # M U_{k,1} = U_{k',l'}, on all 30 cells
        keys = {frozenset(reg.prims): kl for kl, reg in CAT.u_cells.items()}
        base = {k: keys[frozenset(CAT.u_cells[(k, 1)].mirror().prims)] for k in range(1, 6)}
        for (k, l), reg in CAT.u_cells.items():
            assert keys[frozenset(reg.mirror().prims)] == (
                base[k][0], (base[k][1] - l) % 6 + 1), (k, l)

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
    `verify_frs`: a prefix image P = zeta^r U_{k,1} and a digit d give
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
    and are proved directly too, as are the hand claims."""

    def test_listed_images_compose_from_one_step_claims(self):
        assert len(DEEP_CLAIMS) == 9
        for claim in DEEP_CLAIMS:
            assert _prims(_composed_image(claim["chain"])) == _prims(claim["target"]), (
                claim["name"])

    def test_hand_claims_prove_directly(self):
        # the 7 past norm 12 are proved here only
        assert sum(c["chain"][0].norm() > FRS_NORM for c in HAND_CLAIMS) == 7
        rep = CheckReport("hand claims")
        for claim in HAND_CLAIMS:
            residues = _certify_claim(rep, claim)
            assert residues["inclusion"] == 0, claim["name"]
            assert residues["coverage"] <= Fraction(3, 524288), claim["name"]
        assert rep.verdict == "PASS", rep.failures[:3]
        assert rep.samples == 1018

    def test_listed_images_prove_directly(self):
        for claim in DEEP_CLAIMS:
            rep = CheckReport("claim")
            residues = _certify_claim(rep, claim)
            assert rep.verdict == "PASS", (claim["name"], rep.failures[:3])
            assert set(residues) == {"inclusion", "coverage"}, claim["name"]
            assert max(residues.values()) <= Fraction(3, 524288), claim["name"]
