import random
from fractions import Fraction

import pytest

from toralrank.errors import ParseError, RingMismatchError
from toralrank.polyring import (
    FreeModule,
    ModuleElement,
    Ring,
    element_degree,
    parse_poly,
)

from conftest import SEED


def P(text, ring):
    return parse_poly(text, ring)


class TestArithmetic:
    def test_difference_of_squares(self):
        R = Ring(2)
        assert P("x1 + x2", R) * P("x1 - x2", R) == P("x1^2 - x2^2", R)

    def test_add_zero_identity(self):
        R = Ring(2)
        p = P("x1*x2^2 - 3/2*x1", R)
        assert p + R.zero() == p

    def test_square_of_monomial(self):
        R = Ring(2)
        m = P("x1*x2", R)
        assert m * m == P("x1^2*x2^2", R)

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            P("x1", Ring(1)) + P("x1", Ring(2))

    def test_axioms_on_random_polys(self):
        rng = random.Random(SEED)
        R = Ring(2)

        def rand_poly():
            p = R.zero()
            for _ in range(rng.randint(0, 4)):
                exps = (rng.randint(0, 3), rng.randint(0, 3))
                p = p + R.monomial(exps, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            return p

        for _ in range(40):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)

    def test_homogeneous_multiplication_adds_degrees(self):
        R = Ring(3)
        a = P("x1*x2 + x3^2", R)
        b = P("x1^3", R)
        assert a.degree() == 2 and b.degree() == 3
        assert (a * b).degree() == 5
        assert (a * b).is_homogeneous()


class TestElementDegree:
    def test_single_component(self):
        R = Ring(2)
        F = FreeModule(R, (0, 0))
        e = ModuleElement(F, (P("x1", R), R.zero()))
        assert element_degree(e) == 1

    def test_mixed_degrees(self):
        R = Ring(2)
        F = FreeModule(R, (0, 0))
        e = ModuleElement(F, (P("x1", R), R.one()))
        assert element_degree(e) is None

    def test_with_twists(self):
        R = Ring(2)
        F = FreeModule(R, (1, 2))
        e = ModuleElement(F, (P("y^2", R), P("x", R)))
        assert element_degree(e) == 3


class TestParsing:
    def test_two_term_polynomial(self):
        R = Ring(2)
        p = P("x1*x2^2 - 3/2*x1", R)
        assert p.terms == {(1, 2): Fraction(1), (1, 0): Fraction(-3, 2)}

    def test_zero(self):
        R = Ring(3)
        assert P("0", R).is_zero()

    def test_alias(self):
        R = Ring(2)
        assert P("y^2", R) == P("x2^2", R)
        assert P("X*Y", Ring(4)) == P("x1*x2", Ring(4))

    def test_alias_rejected_for_large_rings(self):
        with pytest.raises(ParseError):
            P("y", Ring(5))

    def test_unknown_variable_position(self):
        with pytest.raises(ParseError) as err:
            P("x1 + q3", Ring(2))
        assert err.value.position == 5

    def test_syntax_error(self):
        with pytest.raises(ParseError):
            P("x1 + ", Ring(2))
        with pytest.raises(ParseError):
            P("x1 x2", Ring(2))

    def test_power_is_one_monomial(self):
        R = Ring(2)
        assert P("x2^0", R) == R.one()
        assert P("x2^3*x1", R).terms == {(1, 3): Fraction(1)}
        assert P("y^1000000", R).terms == {(0, 1000000): Fraction(1)}

    def test_leading_minus(self):
        R = Ring(1)
        assert P("-x1", R) == P("0 - x1", R)

    def test_roundtrip_random(self):
        rng = random.Random(SEED + 1)
        R = Ring(3)
        for _ in range(50):
            p = R.zero()
            for _ in range(rng.randint(0, 5)):
                exps = tuple(rng.randint(0, 3) for _ in range(3))
                p = p + R.monomial(exps, Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            assert parse_poly(str(p), R) == p
