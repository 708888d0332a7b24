import math
import random
from fractions import Fraction

import pytest

from eisencf.exact import (
    ETA,
    ETA_BAR,
    ETAS,
    E_ONE,
    E_ZERO,
    EisensteinInt,
    F_ONE,
    F_ZERO,
    FieldElement,
    MINUS_ZETA,
    SQRT_M3,
    ZETA,
    ZETA_BAR,
    embed,
    field_element_to_json,
    format_field_element,
    in_J,
    parse_field_element,
)
from oracles import field_element_from_json


def rand_eint(rng, bound=1000):
    return EisensteinInt(rng.randint(-bound, bound), rng.randint(-bound, bound))


def rand_field(rng, bound=1000):
    return FieldElement(rng.randint(-bound, bound), rng.randint(-bound, bound),
                        rng.randint(1, bound))


class TestEisensteinInt:
    def test_one_plus_zeta_squared(self):
        # (1 + zeta)^2 = 1 + 2 zeta + zeta^2 = 3 zeta
        v = (E_ONE + ZETA) * (E_ONE + ZETA)
        assert v == EisensteinInt(0, 3)

    def test_conj_eta(self):
        assert ETA.conj() == EisensteinInt(2, -1) == ETA_BAR
        assert ETA_BAR.norm() == ETA.norm() == 3

    def test_norm_zero(self):
        assert E_ZERO.norm() == 0
        assert EisensteinInt(2, 1).norm() == 7

    def test_conj_involution_and_norm(self):
        rng = random.Random(1)
        for _ in range(300):
            x = rand_eint(rng)
            assert x.conj().conj() == x
            assert x.conj().norm() == x.norm()
            assert x.norm() >= 0

    def test_norm_multiplicative(self):
        rng = random.Random(2)
        for _ in range(300):
            x, y = rand_eint(rng), rand_eint(rng)
            assert (x * y).norm() == x.norm() * y.norm()

    def test_zeta_powers(self):
        assert ZETA ** 6 == E_ONE
        assert ZETA ** 3 == -E_ONE
        assert ZETA * ETA == SQRT_M3

    def test_eta_family(self):
        assert ETAS[1] == ETA
        assert ETAS[2] == SQRT_M3
        assert ETAS[4] == -ETA
        assert ETAS[6] == ETA_BAR
        assert all(ETAS[k].norm() == 3 for k in range(1, 7))


class TestFieldElement:
    def test_inv_zeta(self):
        # |zeta| = 1 so the inverse is the conjugate
        zeta = FieldElement(1, 1, 2)
        assert zeta.inv() == FieldElement(1, -1, 2)

    def test_inv_sqrt_m3(self):
        s3 = FieldElement(0, 1)
        assert s3.inv() == FieldElement(0, -1, 3)

    def test_abs_sq_example(self):
        z = FieldElement.from_xy(Fraction(3, 4), Fraction(1, 4))
        assert z.abs_sq() == Fraction(3, 4)

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            F_ZERO.inv()
        with pytest.raises(ZeroDivisionError):
            F_ONE / F_ZERO

    def test_canonical_form(self):
        z = FieldElement(4, -6, -8)
        assert (z.a, z.b, z.c) == (-2, 3, 4)
        assert z == FieldElement(-2, 3, 4)

    def test_field_axioms_random(self):
        rng = random.Random(3)
        for _ in range(300):
            f = rand_field(rng)
            if f.is_zero():
                continue
            assert f * f.inv() == F_ONE
            g = rand_field(rng)
            assert (f + g) - g == f
            assert f.abs_sq() == (f * f.conj()).x

    def test_embed_examples(self):
        assert embed(ZETA) == FieldElement(1, 1, 2)
        assert embed(SQRT_M3) == FieldElement(0, 1)
        assert embed(EisensteinInt(2, -1)) == FieldElement(3, -1, 2)

    def test_embed_ring_homomorphism(self):
        rng = random.Random(4)
        for _ in range(200):
            x, y = rand_eint(rng, 500), rand_eint(rng, 500)
            assert embed(x * y) == embed(x) * embed(y)
            assert embed(x + y) == embed(x) + embed(y)
            assert embed(x).abs_sq() == Fraction(x.norm())

    def test_to_eisenstein_roundtrip(self):
        rng = random.Random(5)
        for _ in range(100):
            x = rand_eint(rng)
            assert embed(x).to_eisenstein() == x
        assert FieldElement(1, 1, 3).to_eisenstein() is None

    def test_approx(self):
        assert FieldElement(1, 0).approx() == complex(1.0, 0.0)
        z = FieldElement(1, 1, 2).approx()
        assert abs(z - complex(0.5, math.sqrt(3) / 2)) < 1e-15

    def test_approx_matches_direct_float(self):
        rng = random.Random(6)
        for _ in range(300):
            a, b = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
            e = EisensteinInt(a, b)
            direct = a + b * complex(0.5, math.sqrt(3) / 2)
            via = embed(e).approx()
            assert abs(via - direct) <= 1e-12 * max(1.0, abs(direct))


class TestDigitModule:
    def test_membership_examples(self):
        assert in_J(ETA)
        assert in_J(SQRT_M3)
        assert not in_J(E_ONE)
        assert not in_J(ZETA)
        assert in_J(E_ZERO)

    def test_against_divisibility_oracle(self):
        # brute-force oracle: eta | x iff x * conj(eta) is divisible by 3
        def divisible(x: EisensteinInt) -> bool:
            y = x * ETA.conj()
            return y.a % 3 == 0 and y.b % 3 == 0

        for a in range(-30, 31):
            for b in range(-30, 31):
                x = EisensteinInt(a, b)
                assert in_J(x) == divisible(x), (a, b)
        rng = random.Random(7)
        for _ in range(500):
            x = rand_eint(rng, 10**9)
            assert in_J(x) == divisible(x)

    def test_ideal_closure(self):
        rng = random.Random(8)
        for _ in range(300):
            x, y = rand_eint(rng), rand_eint(rng)
            jx, jy = x * ETA, y * ETA
            assert in_J(jx + jy)
            assert in_J(jx * y)

    def test_nonzero_norms(self):
        # the smallest nonzero digits have norm 3
        small = [EisensteinInt(a, b) for a in range(-4, 5) for b in range(-4, 5)
                 if in_J(EisensteinInt(a, b)) and not (a == b == 0)]
        assert min(x.norm() for x in small) == 3


class TestValueSemantics:
    # equality, hash and repr as a frozen dataclass has them: the hash of the
    # field tuple keeps every set and dict in the order it always had, and
    # the repr text is what messages print, so no artifact moves
    def test_eisenstein_int(self):
        e = EisensteinInt(1, -2)
        assert hash(e) == hash((1, -2))
        assert e == EisensteinInt(1, -2) and e != EisensteinInt(-2, 1)
        assert (e == (1, -2)) is False and e.__eq__((1, -2)) is NotImplemented
        assert repr(e) == "EisensteinInt(a=1, b=-2)"

    def test_field_element(self):
        f = FieldElement(1, 1, 3)
        assert hash(f) == hash((1, 1, 3))
        assert (f == (1, 1, 3)) is False and f.__eq__((1, 1, 3)) is NotImplemented
        assert repr(f) == "FieldElement(1, 1, 3)"
        assert FieldElement(2, 2, 6) == f   # stored in lowest terms
        assert not hasattr(f, "__dict__")


class TestTextAndJson:
    @pytest.mark.parametrize("text,x,y", [
        ("3/10+1/7r", Fraction(3, 10), Fraction(1, 7)),
        ("-1/2-1/2r", Fraction(-1, 2), Fraction(-1, 2)),
        ("0+0r", 0, 0),
        ("2-3r", 2, -3),
    ])
    def test_parse(self, text, x, y):
        z = parse_field_element(text)
        assert z.x == x and z.y == y

    def test_parse_rejects_garbage(self):
        for bad in ("", "1", "1+2", "1+2i", "x+yr", "1/0+0r"):
            with pytest.raises((ValueError, ZeroDivisionError)):
                parse_field_element(bad)

    def test_format_roundtrip(self):
        rng = random.Random(9)
        for _ in range(200):
            z = rand_field(rng)
            assert parse_field_element(format_field_element(z)) == z

    def test_json_roundtrip(self):
        z = parse_field_element("3/10+1/7r")
        assert field_element_to_json(z) == {"x": "3/10", "y": "1/7"}
        assert field_element_from_json(field_element_to_json(z)) == z

    def test_special_point_literals(self):
        assert parse_field_element("-1/2-1/2r") == MINUS_ZETA
        assert parse_field_element("1/2-1/2r") == ZETA_BAR
