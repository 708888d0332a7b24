"""Acceptance suite: every criterion at its stated scale and tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion.  Criterion 6a (special-expansion convergence below 1e-8 by digit
60) is expected to fail: those expansions are parabolic, with convergent
error exactly 1/|q_n| and |q_n| growing linearly (about 3n/4), so the error
at digit 60 is 2.2e-2 and 1e-8 is first reached near n = 1.3e8.  The
assertion is kept at its stated tolerance rather than weakened.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from eisencf.cf import (
    convergents,
    error_product_check,
    eval_cf,
    expand,
    special_digits,
    REJECTED_ZETA_BAR_PERIOD,
)
from eisencf.exact import (
    EisensteinInt,
    F_ZERO,
    FieldElement,
    MINUS_ZETA,
    SQRT_M3,
    ZETA_BAR,
    embed,
)
from eisencf.hexdomain import floor_J_candidates
from eisencf.regions import build_catalog
from eisencf.verifier import (
    verify_dual_inclusions,
    verify_dual_orbit,
    verify_frs,
    verify_inversions,
    verify_monotonicity,
)

SEED = 42
CAT = build_catalog()


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def rand_exact(rng, bound=1000):
    return FieldElement(rng.randint(-bound, bound), rng.randint(-bound, bound),
                        rng.randint(1, bound))


def seed_in_u0(rng, digits10):
    while True:
        c = rng.randint(10**digits10, 4 * 10**digits10)
        z = FieldElement(rng.randint(-c, c), rng.randint(-c, c), c)
        if abs(2 * z.b) < z.c and abs(z.a + z.b) < z.c and abs(z.a - z.b) < z.c:
            return z


@pytest.fixture(scope="module")
def corpus():
    """10^3 expansions to depth 50 (denominators large enough to sustain
    fifty digits; rationals have finite expansions)."""
    rng = random.Random(SEED)
    out = []
    while len(out) < 1000:
        z = seed_in_u0(rng, 33)
        e = expand(z, 50)
        if len(e.digits) < 50:
            continue
        out.append((z, e, convergents(e.digits)))
    return out


@pytest.fixture(scope="module")
def ergodic_bundle():
    from eisencf.ergodic import estimate_C0_and_levy_integral, levy_birkhoff

    t0 = time.perf_counter()
    quad = estimate_C0_and_levy_integral(quad_samples=3000000, seed=SEED)
    birkhoff = levy_birkhoff(orbits=64, length=20000, seed=SEED)
    birkhoff_double = levy_birkhoff(orbits=64, length=40000, seed=SEED + 1)
    elapsed = time.perf_counter() - t0
    return {
        "quad": quad,
        "birkhoff": birkhoff,
        "birkhoff_double": birkhoff_double,
        "elapsed": elapsed,
    }


def test_c01_tiling_unique_representative():
    rng = random.Random(SEED)
    bad = 0
    for _ in range(100000):
        z = rand_exact(rng)
        if len(floor_J_candidates(z)) != 1:
            bad += 1
    report("1 (tiling)", bad == 0, f"10^5 exact points, {bad} exceptions")
    assert bad == 0


def test_c02_determinant_identity(corpus):
    bad = 0
    for _, e, cs in corpus:
        for n in range(len(cs)):
            if cs[n].det() != EisensteinInt((-1) ** n, 0):
                bad += 1
    report("2 (determinant)", bad == 0,
           f"1000 expansions x depth 50, {bad} violations")
    assert bad == 0


def test_c03_reconstruction(corpus):
    bad = 0
    for z, e, _ in corpus:
        for n in range(51):
            if eval_cf(e.digits[:n], e.points[n]) != z:
                bad += 1
    report("3 (reconstruction)", bad == 0,
           f"every prefix of the same corpus, {bad} violations")
    assert bad == 0


def test_c04_error_product_identity():
    from eisencf.cf import SpecialPoint

    rng = random.Random(SEED + 4)
    done = 0
    bad = 0
    while done < 100:
        z = seed_in_u0(rng, 16)
        try:
            for n in range(1, 21):
                lhs, rhs = error_product_check(z, n)
                if lhs != rhs:
                    bad += 1
        except (ValueError, SpecialPoint):  # orbit too short: resample
            continue
        done += 1
    report("4 (error identity)", bad == 0,
           f"100 exact orbits x depth 20, {bad} violations")
    assert bad == 0


def test_c05_six_fold_collapse():
    v = eval_cf([SQRT_M3] * 6, F_ZERO)
    ok = isinstance(v, FieldElement) and v.is_zero()
    report("5 (six-fold 1/sqrt(-3))", ok, f"value = {v}")
    assert ok


def test_c06a_special_convergence_tolerance():
    errs = {}
    for point, name in ((MINUS_ZETA, "-zeta"), (ZETA_BAR, "conj(zeta)")):
        cs = convergents(special_digits(point, 60))
        errs[name] = abs(cs[60].ratio().approx() - point.approx())
    ok = all(e < 1e-8 for e in errs.values())
    report("6a (special convergence 1e-8 by digit 60)", ok,
           f"measured errors {errs}; expansions are parabolic with error "
           "exactly 1/|q_n| and |q_n| ~ 3n/4, so 1e-8 needs n ~ 1.3e8")
    assert ok, (
        "stated tolerance unattainable: the special expansions converge at "
        f"the parabolic rate 1/|q_n|; measured {errs} at digit 60"
    )


def test_c06b_special_ratio_tracks():
    bad = 0
    for point, tag in ((MINUS_ZETA, "minus_zeta"), (ZETA_BAR, "zeta_bar")):
        cs = convergents(special_digits(point, 60))
        for n in range(1, 61):
            ratio = -(embed(cs[n].q) / embed(cs[n].q_prev))
            if not CAT.s_sets[(tag, n % 4)].contains(ratio):
                bad += 1
    report("6b (ratio-track membership)", bad == 0,
           f"both vertices, 60 steps each, {bad} violations")
    assert bad == 0


def test_c06c_digit_list_ambiguity_pinned():
    target = ZETA_BAR.approx()
    good = convergents(special_digits(ZETA_BAR, 240))
    e60 = abs(good[60].ratio().approx() - target)
    e240 = abs(good[240].ratio().approx() - target)
    bad = convergents([REJECTED_ZETA_BAR_PERIOD[i % 4] for i in range(240)])
    e_bad = abs(bad[240].ratio().approx() - target)
    ok = e240 < e60 / 3 and e_bad > 1e-2
    report("6c (digit ambiguity resolved)", ok,
           f"kept list err {e60:.4f}->{e240:.4f}; rejected list err {e_bad:.3f}")
    assert ok


def test_c07_inversion_identities():
    rep = verify_inversions(points_per_family=5, seed=SEED)
    report("7 (inversion identities)", rep.verdict == "PASS",
           f"{rep.samples} exact point checks")
    assert rep.verdict == "PASS", rep.failures[:3]


def test_c08_finite_range_structure():
    rep = verify_frs()
    report("8 (finite range structure)", rep.verdict == "PASS",
           f"{rep.info['claims']} claims, each with its {rep.info['rotations']} rotations, "
           f"proved on box trees of depth {rep.info['depth']}, "
           f"worst residue {float(Fraction(rep.info['worst_residue'])):.2g}, "
           f"{rep.samples} step_T witnesses")
    assert rep.verdict == "PASS", rep.failures[:3]


def test_c09_dual_system():
    rep = verify_dual_inclusions()
    rep2 = verify_dual_orbit(samples=100, depth=20, seed=SEED)
    ok = rep.verdict == rep2.verdict == "PASS"
    report("9 (dual inclusions + dual orbit)", ok,
           f"{len(rep.info['residues'])} blocks, each with its {rep.info['rotations']} "
           f"rotations, proved on box trees of depth "
           f"{rep.info['depth']}, worst residue "
           f"{float(Fraction(rep.info['worst_residue'])):.2g}; "
           f"{rep2.samples} exact ratio checks")
    assert ok, (rep.failures[:2], rep2.failures[:2])


def test_c10_monotonicity():
    rep = verify_monotonicity(samples=10000, depth=50, seed=SEED)
    report("10 (denominator monotonicity)", rep.verdict == "PASS",
           f"{rep.samples} exact norm comparisons incl. boundary-curve and "
           "special-preimage seeds")
    assert rep.verdict == "PASS", rep.failures[:3]


def test_c11_levy_constant(ergodic_bundle):
    quad = ergodic_bundle["quad"]
    birkhoff = ergodic_bundle["birkhoff"]
    double = ergodic_bundle["birkhoff_double"]
    rel = abs(quad.levy_integral - birkhoff.value) / birkhoff.value
    stable = abs(double.value - birkhoff.value) <= 3 * (
        double.stderr + birkhoff.stderr)
    ok = (birkhoff.value > 0 and math.isfinite(birkhoff.value)
          and quad.levy_integral > 0 and math.isfinite(quad.levy_integral)
          and rel <= 0.02 and stable
          and ergodic_bundle["elapsed"] <= 300.0)
    report("11 (growth-rate agreement)", ok,
           f"birkhoff {birkhoff.value:.5f}+-{birkhoff.stderr:.5f}, "
           f"integral {quad.levy_integral:.5f}+-{quad.levy_err:.5f}, "
           f"rel {rel * 100:.2f}%, doubling drift "
           f"{abs(double.value - birkhoff.value):.5f}, "
           f"runtime {ergodic_bundle['elapsed']:.0f}s")
    assert ok


def test_c12_invariant_density(ergodic_bundle):
    from eisencf.ergodic import invariance_check

    rep = invariance_check(orbits=64, length=20000, seed=SEED,
                           quad=ergodic_bundle["quad"])
    total, err = ergodic_bundle["quad"].density_integral()
    ok = rep.verdict == "PASS" and abs(total - 1.0) < 0.01
    report("12 (invariant density)", ok,
           f"max cell discrepancy {rep.info['max_discrepancy']:.4f}, "
           f"integral of h = {total:.4f} (+-{err:.4f})")
    assert rep.verdict == "PASS", rep.failures[:4]
    assert abs(total - 1.0) < 0.01


def test_c13_determinism(capsys):
    from eisencf.cli import main

    def run_all():
        code = main(["verify", "all", "--seed", "42", "--samples", "1200",
                     "--depth", "12"])
        out = capsys.readouterr().out
        return code, out

    code1, out1 = run_all()
    code2, out2 = run_all()
    ok = code1 == code2 == 0 and out1 == out2
    with capsys.disabled():
        report("13 (determinism)", ok,
               f"verify all --seed 42 twice: exit {code1}/{code2}, "
               f"artifacts {'identical' if out1 == out2 else 'DIFFER'}")
    assert ok
