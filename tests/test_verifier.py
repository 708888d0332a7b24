
from eisencf._util import canonical_json
from eisencf.verifier import (
    CheckReport,
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
