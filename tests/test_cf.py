import random
from fractions import Fraction

import pytest

from eisencf.cf import (
    INF,
    INITIAL_CONVERGENT,
    Infinity,
    OrbitSignal,
    SPECIAL_PERIOD,
    SpecialPeriodic,
    TerminatedAtZero,
    Truncated,
    DomainError,
    convergents,
    eval_cf,
    expand,
    special_digits,
    step_T,
)
from eisencf.exact import (
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
    in_J,
)
from eisencf.hexdomain import in_U
from eisencf.verifier import random_orbit_seed
from oracles import (
    REJECTED_ZETA_BAR_PERIOD, error_product_check, inverse_branch_derivative, jump_map,
)


class TestStep:
    def test_half_zeta_hits_special(self):
        digit, nxt = step_T(FieldElement(1, 1, 4))
        assert digit == ETA_BAR
        assert nxt == MINUS_ZETA

    def test_lattice_reciprocal_terminates(self):
        digit, nxt = step_T(FieldElement(0, -1, 3))
        assert digit == SQRT_M3
        assert nxt.is_zero()

    def test_signals(self):
        # one signal at each point where T stops, carrying that point
        for point in (F_ZERO, MINUS_ZETA, ZETA_BAR):
            with pytest.raises(OrbitSignal) as stop:
                step_T(point)
            assert stop.value.point == point
        with pytest.raises(DomainError) as exc:
            step_T(FieldElement(5, 0))
        assert not isinstance(exc.value, OrbitSignal)

    def test_digit_validity_and_orbit_stays_in_u(self):
        rng = random.Random(21)
        for _ in range(50):
            z = random_orbit_seed(rng, 12)
            cur = z
            for _ in range(12):
                try:
                    d, cur = step_T(cur)
                except OrbitSignal:
                    break
                assert in_J(d) and d.norm() >= 3
                assert in_U(cur)


class TestSpecialDigits:
    def test_minus_zeta_period(self):
        assert special_digits(MINUS_ZETA, 4) == [SQRT_M3, SQRT_M3, -ETA_BAR, ETA]
        assert special_digits(MINUS_ZETA, 6) == [
            SQRT_M3, SQRT_M3, -ETA_BAR, ETA, SQRT_M3, SQRT_M3]

    def test_zeta_bar_resolved_period(self):
        assert special_digits(ZETA_BAR, 4)[:2] == [SQRT_M3, SQRT_M3]
        assert tuple(special_digits(ZETA_BAR, 4)) == SPECIAL_PERIOD[ZETA_BAR]

    def test_resolution_oracle(self):
        # the shipped digit list must converge to conj(zeta); the sign-
        # flipped alternative must not.  Convergence of these parabolic
        # expansions is O(1/n), so the discrimination threshold is coarse.
        target = ZETA_BAR.approx()
        good = convergents(special_digits(ZETA_BAR, 240))
        errs = [abs(good[n].ratio().approx() - target) for n in (60, 120, 240)]
        assert errs[0] < 0.05
        assert errs[2] < errs[1] < errs[0]
        bad = convergents(
            [REJECTED_ZETA_BAR_PERIOD[i % 4] for i in range(240)])
        assert abs(bad[240].ratio().approx() - target) > 1e-2

    def test_exact_error_law(self):
        # every orbit factor of the special expansions has modulus one, so
        # |v - p_n/q_n|^2 * norm(q_n) = 1 exactly
        for point in (MINUS_ZETA, ZETA_BAR):
            cs = convergents(special_digits(point, 41))
            for n in range(1, 41):
                err_sq = (point - cs[n].ratio()).abs_sq()
                assert err_sq * cs[n].q.norm() == 1

    def test_special_orbit_cycle(self):
        # the spliced points run (-zeta, -zeta, -zeta, 1) and
        # (conj(zeta), conj(zeta), conj(zeta), -1) around their 4-cycles
        for point, turn in ((MINUS_ZETA, FieldElement(1, 0)),
                            (ZETA_BAR, FieldElement(-1, 0))):
            cycle = (point, point, point, turn)
            assert expand(point, 8).points == cycle + cycle + (point,)

    def test_rejects_non_special(self):
        with pytest.raises(ValueError):
            special_digits(F_ZERO, 4)


class TestExpand:
    def test_zero(self):
        e = expand(F_ZERO)
        assert e.digits == ()
        assert e.terminal == TerminatedAtZero(0)

    def test_special_entry_zero(self):
        e = expand(MINUS_ZETA, 8)
        assert isinstance(e.terminal, SpecialPeriodic)
        assert e.terminal.entry_index == 0
        assert list(e.digits) == special_digits(MINUS_ZETA, 8)

    def test_half_zeta(self):
        e = expand(FieldElement(1, 1, 4), 9)
        assert e.digits[0] == ETA_BAR
        assert e.terminal == SpecialPeriodic(MINUS_ZETA, 1)
        assert list(e.digits[1:]) == special_digits(MINUS_ZETA, 8)

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            expand(FieldElement(3, 0))

    def test_splice_names_its_vertex_at_every_budget(self):
        # the splice rebinds the current point (after three spliced digits
        # it is 1, not the vertex), so the terminal must not be read from it
        for n in range(1, 9):
            for v in (MINUS_ZETA, ZETA_BAR):
                assert expand(v, n).terminal == SpecialPeriodic(v, 0)
            e = expand(FieldElement(1, 1, 4), n)
            if n == 1:
                assert e.terminal == Truncated() and e.points[-1] == MINUS_ZETA
            else:
                assert e.terminal == SpecialPeriodic(MINUS_ZETA, 1)

    def test_a_stop_ends_a_truncated_walk_only_as_its_last_point(self):
        # a budget that runs out on 0 or a vertex leaves it as the last point
        # of a Truncated walk; one more digit reports the stop
        e = expand(FieldElement(0, -1, 3), 1)
        assert e.terminal == Truncated() and e.points[-1] == F_ZERO
        assert expand(FieldElement(0, -1, 3), 2).terminal == TerminatedAtZero(1)

    def test_truncation(self):
        rng = random.Random(22)
        e = expand(random_orbit_seed(rng, 40), 30)
        assert isinstance(e.terminal, Truncated)
        assert len(e.digits) == 30
        assert len(e.points) == 31
        # the terminals are named tuples, and Truncated() is the empty one:
        # it is falsy, so a terminal is told apart by type, never by truth
        assert e.terminal == () and not e.terminal
        assert TerminatedAtZero(0) and SpecialPeriodic(MINUS_ZETA, 0)


class TestConvergents:
    def test_first_step(self):
        cs = convergents([SQRT_M3])
        assert cs[1].p == E_ONE and cs[1].q == SQRT_M3
        assert cs[1].ratio() == FieldElement(0, -1, 3)

    def test_initial_state(self):
        c = INITIAL_CONVERGENT
        assert c.p_prev == E_ONE and c.q == E_ONE
        assert c.det() == E_ONE

    def test_determinant_alternates(self):
        rng = random.Random(23)
        for _ in range(30):
            e = expand(random_orbit_seed(rng, 25), 40)
            cs = convergents(e.digits)
            for n, c in enumerate(cs):
                assert c.det() == EisensteinInt((-1) ** n, 0)

    def test_convergence_rate_float(self):
        rng = random.Random(24)
        for _ in range(10):
            z = random_orbit_seed(rng, 30)
            e = expand(z, 40)
            if len(e.digits) < 40:
                continue
            c = convergents(e.digits)[40]
            assert abs(z.approx() - c.ratio().approx()) < 1e-10


class TestEvalCf:
    def test_six_fold_sqrt_m3_is_zero(self):
        v = eval_cf([SQRT_M3] * 6, F_ZERO)
        assert isinstance(v, FieldElement) and v.is_zero()

    def test_five_fold_is_infinite(self):
        assert isinstance(eval_cf([SQRT_M3] * 5, F_ZERO), Infinity)

    def test_empty(self):
        z = FieldElement(3, 10, 70)
        assert eval_cf([], z) == z
        assert eval_cf([], INF) is INF

    def test_infinite_tail_is_plain_convergent(self):
        ds = special_digits(MINUS_ZETA, 7)
        assert eval_cf(ds, INF) == convergents(ds[:-1])[-1].ratio()

    def test_reconstruction_identity(self):
        rng = random.Random(25)
        for _ in range(20):
            z = random_orbit_seed(rng, 25)
            e = expand(z, 25)
            for n in range(len(e.digits) + 1):
                assert eval_cf(e.digits[:n], e.points[n]) == z

    def test_reconstruction_through_special_track(self):
        # zeta/2 enters -zeta, and (-1 + sqrt(-3))/4 enters conj(zeta)
        for z in (FieldElement(1, 1, 4), FieldElement(-1, 1, 4)):
            e = expand(z, 9)
            assert isinstance(e.terminal, SpecialPeriodic)
            for n in range(len(e.digits) + 1):
                assert eval_cf(e.digits[:n], e.points[n]) == z


class TestErrorProduct:
    def test_exact_identity_random(self):
        rng = random.Random(26)
        done = 0
        while done < 15:
            z = random_orbit_seed(rng, 20)
            try:
                for n in range(1, 21):
                    lhs, rhs = error_product_check(z, n)
                    assert lhs == rhs
            except (ValueError, OrbitSignal):
                continue
            done += 1

    def test_half_zeta_frozen_value(self):
        lhs, rhs = error_product_check(FieldElement(1, 1, 4), 1)
        assert lhs == rhs == Fraction(1, 12)

    def test_terminated_orbit_gives_zero(self):
        z = FieldElement(0, -1, 3)
        lhs, rhs = error_product_check(z, 1)
        assert lhs == rhs == 0


class TestJumpMap:
    def test_first_digit_norm_nine(self):
        # z = 1/(3 + w) for interior w has b_1 = 3
        w = FieldElement(1, 1, 10)
        z = (FieldElement(3, 0) + w).inv()
        n, out = jump_map(z)
        assert n == 1
        _, expected = step_T(w)
        assert out == expected

    def test_special_point_signals(self):
        with pytest.raises(OrbitSignal):
            jump_map(MINUS_ZETA)

    def test_budget_marker_near_special_vertex(self):
        # close to -zeta the expansion copies the special digit pattern,
        # all of norm 3, so no jump index appears within the budget
        eps = FieldElement(1, 0, 10**35)
        z = MINUS_ZETA + FieldElement(0, 1, 10**35)
        e = expand(z, 50)
        assert all(d.norm() == 3 for d in e.digits[:50])
        n, out = jump_map(z, max_steps=50)
        assert n is None and out == z

    def test_domain_error(self):
        with pytest.raises(DomainError):
            jump_map(FieldElement(7, 0))


class TestInverseBranchDerivative:
    def test_identity_branch(self):
        rng = random.Random(27)
        for _ in range(20):
            z = random_orbit_seed(rng, 3)
            assert inverse_branch_derivative(INITIAL_CONVERGENT, z) == FieldElement(1, 0)

    def test_single_digit_formula(self):
        c = convergents([SQRT_M3])[1]
        z1 = FieldElement(1, 1, 5)
        den = embed(SQRT_M3) + z1
        assert inverse_branch_derivative(c, z1) == (den * den).inv()

    def test_modulus_bounds_after_large_digit(self):
        # after a digit of norm >= 9 the previous denominator is small:
        # norm(q_{n-1}) * 4 < norm(q_n), hence the derivative modulus lies in
        # (1/(9/4 norm(q_n)), 4/norm(q_n)).  The often-quoted tighter window
        # (1/(3 norm), 1/norm) fails: z = 5/14 is a counterexample, pinned
        # below.
        rng = random.Random(28)
        done = 0
        while done < 25:
            z = random_orbit_seed(rng, 20)
            e = expand(z, 12)
            cs = convergents(e.digits)
            for n, dig in enumerate(e.digits, start=1):
                if dig.norm() < 9 or n >= len(e.points):
                    continue
                zn = e.points[n]
                if zn.is_zero():
                    break
                deriv = inverse_branch_derivative(cs[n], zn)
                mod = deriv.abs_sq()
                qn = Fraction(cs[n].q.norm())
                assert Fraction(4) * cs[n].q_prev.norm() < qn
                assert mod < (Fraction(4) / qn) ** 2
                assert mod > (Fraction(4, 9) / qn) ** 2
                done += 1
                if done >= 40:
                    break

    def test_tight_printed_bound_fails_at_5_14(self):
        z = FieldElement(5, 0, 14)
        e = expand(z, 1)
        assert e.digits[0] == EisensteinInt(3, 0)
        cs = convergents(e.digits)
        deriv = inverse_branch_derivative(cs[1], e.points[1])
        # |derivative| = 1/|q_1 + q_0 z_1|^2 = 1/7.84 > 1/norm(q_1) = 1/9
        assert deriv.abs_sq() == Fraction(1, Fraction(196, 25) ** 2)
        assert deriv.abs_sq() > Fraction(1, 9) ** 2

    def test_vanishing_denominator_raises(self):
        c = convergents([SQRT_M3])[1]
        # q_1 + q_0 z = sqrt(-3) + z vanishes at z = -sqrt(-3)
        with pytest.raises(ZeroDivisionError):
            inverse_branch_derivative(c, FieldElement(0, -1))
