
import math
import random

import numpy as np
import pytest

from eisencf._util import canonical_json
from eisencf.exact import SQRT3, FieldElement
from eisencf.hexdomain import in_U0
from eisencf.regions import INT64_HEADROOM, build_catalog
from eisencf.verifier import (
    _DEN,
    CheckReport,
    _accepted,
    _chain_preimage,
    _chain_valid,
    _claim_table,
    _frs_claims,
    _segment_points,
    _term_region,
    _u0_draws,
    derive_seed,
    dual_inclusion_blocks,
    run_checks,
    sample_in_region,
    verify_dual_inclusions,
    verify_dual_orbit,
    verify_frs,
    verify_inversions,
    verify_monotonicity,
    verify_special,
)

CAT = build_catalog()
CLAIMS = _frs_claims(CAT)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


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
        assert rep.samples >= 3 * 12

    def test_frs(self):
        rep = verify_frs(samples=250, seed=1, coverage_samples=30000)
        assert rep.verdict == "PASS", rep.failures[:3]
        assert rep.info["claims"] > 40

    def test_dual_inclusions(self):
        rep = verify_dual_inclusions(samples=30, seed=1)
        assert rep.verdict == "PASS", rep.failures[:3]

    def test_dual_orbit(self):
        rep = verify_dual_orbit(samples=12, depth=15, seed=1)
        assert rep.verdict == "PASS", rep.failures[:3]
        assert rep.samples > 100

    def test_monotonicity(self):
        rep = verify_monotonicity(samples=25, depth=40, seed=1)
        assert rep.verdict == "PASS", rep.failures[:3]

    def test_special(self):
        rep = verify_special(depthlimit=60, samples=30, seed=1)
        assert rep.verdict == "PASS", rep.failures[:3]
        # the resolved digit list is reported
        assert rep.info["zeta_bar_digits"] == ["-1+2z", "-1+2z", "1+1z", "-2+1z"]
        # parabolic error at depth 60, exactly 1/|q_60|
        assert 0.02 < rep.info["minus_zeta_err_at_60"] < 0.025

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

    def test_frs_and_dual_draws_differ_across_seeds(self):
        label = "frs:" + CLAIMS[0]["name"]
        w1, w1_again, w2 = (next(_u0_draws(_rng(derive_seed(s, label)))) for s in (1, 1, 2))
        assert all(np.array_equal(u, v) for u, v in zip(w1, w1_again))
        assert not np.array_equal(w1[0][:100], w2[0][:100])
        reg = _term_region(CAT, (6, 3), dual_inclusion_blocks()[1][0][1], 0)
        z1, z1_again, z2 = (sample_in_region(reg, _rng(derive_seed(s, "dual:1:0")), 50)
                            for s in (1, 1, 2))
        assert all(np.array_equal(u, v) for u, v in zip(z1, z1_again))
        assert not np.array_equal(z1[0], z2[0])


def _scalar_verdicts(claim, a, b):
    """The scalar path on grid points: chain preimage, step_T, source cell."""
    out = []
    for x, y in zip(a.tolist(), b.tolist()):
        w = FieldElement(x, y, _DEN)
        z = _chain_preimage(w, claim["chain"])
        ok = _chain_valid(z, claim["chain"]) and (
            claim["source"] is None or claim["source"].contains(z))
        out.append((ok, claim["target"].contains(w, closed=True)))
    return out


def _w_space_verdicts(claim, a, b):
    ok = _accepted(claim, _claim_table(claim), a, b)
    tgt = claim["target"].contains_int(a, b, _DEN, closed=True)
    return list(zip(ok.tolist(), tgt.tolist()))


def _u0_grid(den):
    """Every point (a + b*sqrt(-3))/den of U0, as numerators over _DEN."""
    pts = [(x, y) for x in range(-den, den + 1) for y in range(-den // 2, den // 2 + 1)
           if in_U0(FieldElement(x, y, den))]
    a, b = (np.array(v, dtype=np.int64) * (_DEN // den) for v in zip(*pts))
    return a, b


class TestWSpace:
    """The w-space sign tables of verify_frs agree with the scalar path."""

    def test_random_grid_points(self):
        rng = np.random.default_rng(7)
        a = rng.integers(-_DEN, _DEN, 600, endpoint=True)
        b = rng.integers(-_DEN // 2, _DEN // 2, 600, endpoint=True)
        keep = [in_U0(FieldElement(x, y, _DEN)) for x, y in zip(a.tolist(), b.tolist())]
        a, b = a[keep], b[keep]
        assert a.size > 300
        for claim in CLAIMS:
            assert _w_space_verdicts(claim, a, b) == _scalar_verdicts(claim, a, b), \
                claim["name"]

    def test_zeros_of_the_pulled_back_primitives(self):
        # dyadic points on a pulled-back line or source circle, where the
        # half-open edges of U and the fallback decide
        on_lines = 0
        for den in (1 << 4, 1 << 5, 1 << 6):
            a, b = _u0_grid(den)
            n = a * a + 3 * b * b
            for claim in CLAIMS:
                lines, source = _claim_table(claim)
                prims = lines.prims + (source.prims if source else ())
                zero = np.any([p.qq * n + p.bx * a * _DEN + p.by * b * _DEN
                               + p.dd * _DEN * _DEN == 0 for p in prims], axis=0)
                za, zb = a[zero], b[zero]
                on_lines += np.count_nonzero(lines.contains_int(za, zb, _DEN, closed=True)
                                             & ~lines.contains_int(za, zb, _DEN))
                assert _w_space_verdicts(claim, za, zb) == _scalar_verdicts(claim, za, zb), \
                    (den, claim["name"])
        assert on_lines > 0


class TestInt64Headroom:
    def test_claim_tables_and_dual_blocks(self):
        for claim in CLAIMS:
            lines, source = _claim_table(claim)
            for reg in (lines, source, claim["target"]):
                if reg is not None:
                    assert reg.int_value_bound(_DEN, _DEN // 2, _DEN) < INT64_HEADROOM
            # coverage corners on the finest grid, denominator 128
            assert claim["target"].int_value_bound(128, 64, 128) < INT64_HEADROOM
        for tgt_k, terms in dual_inclusion_blocks().items():
            for rot in range(6):
                regs = [_term_region(CAT, kl, al, rot) for kl, al in terms]
                block = [CAT.v_star[(tgt_k, 1 + rot)], *regs]
                for reg in regs:
                    # the sampling box of sample_in_region, rounded outward
                    xlo, xhi, ylo, yhi = reg.bbox_real()
                    amax = max(-math.floor(xlo * _DEN), math.ceil(xhi * _DEN))
                    bmax = max(-math.floor(ylo / SQRT3 * _DEN), math.ceil(yhi / SQRT3 * _DEN))
                    for other in block:
                        assert other.int_value_bound(amax, bmax, _DEN) < INT64_HEADROOM

    def test_contains_int_raises_beyond_the_bound(self):
        u0 = CAT.u0
        ok = np.array([1 << 29])
        assert u0.int_value_bound(1 << 29, 0, 1) < INT64_HEADROOM
        assert not u0.contains_int(ok, ok * 0, 1).any()
        big = np.array([1 << 31])
        assert u0.int_value_bound(1 << 31, 0, 1) >= INT64_HEADROOM
        with pytest.raises(OverflowError):
            u0.contains_int(big, big * 0, 1)
        with pytest.raises(OverflowError):
            u0.contains_int(ok * 0, ok * 0, 1 << 31)
