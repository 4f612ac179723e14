import random
from fractions import Fraction
from math import gcd

import pytest
from mpmath import mp, mpc

from lattes_sft import (
    DomainError,
    EllipticCurve,
    ParseError,
    Poly,
    RationalMap,
    duplication_map,
)
from reference import double_point, lift_y, map_mp, poly_mp, random_nonsingular_curve


def P(*coeffs):
    return Poly(tuple(Fraction(c) for c in coeffs))


class TestEllipticCurve:
    def test_rejects_singular(self):
        with pytest.raises(DomainError):
            EllipticCurve(0, 0, 0)  # y^2 = x^3
        with pytest.raises(DomainError):
            EllipticCurve(0, -3, 2)  # (x-1)^2 (x+2)

    def test_parse_roundtrip(self):
        E = EllipticCurve.parse("4,2,0", cm_D=2)
        assert (E.a, E.b, E.c, E.cm_D) == (4, 2, 0, 2)
        assert EllipticCurve.parse(str(E)) == EllipticCurve(4, 2, 0)
        with pytest.raises(ParseError):
            EllipticCurve.parse("4,2")


class TestDuplicationMap:
    def test_worked_curve(self):
        phi = duplication_map(EllipticCurve(4, 2, 0))
        assert phi.num == P(4, 0, -4, 0, 1)  # (x^2-2)^2
        assert phi.den == P(0, 8, 16, 4)  # 4x(x^2+4x+2)
        assert phi.num == P(-2, 0, 1) * P(-2, 0, 1)

    def test_congruent_number_curve(self):
        phi = duplication_map(EllipticCurve(0, -1, 0))  # y^2 = x^3 - x
        assert phi.num == P(1, 0, 1) * P(1, 0, 1)  # (x^2+1)^2
        assert phi.den == P(0, -4, 0, 4)  # 4x(x^2-1)

    def test_degree_four_with_trivial_gcd(self):
        rng = random.Random(67)
        for _ in range(25):
            E = random_nonsingular_curve(rng)
            phi = duplication_map(E)
            assert phi.degree == 4
            assert phi.num.degree == 4
            assert phi.num.gcd(phi.den).degree == 0


class TestDoublePoint:
    def test_two_torsion_errors(self):
        E = EllipticCurve(0, -1, 0)
        with pytest.raises(DomainError):
            double_point(E, -1, 0)

    def test_off_curve_errors(self):
        E = EllipticCurve(0, -1, 0)
        with pytest.raises(DomainError):
            double_point(E, 2, 1)

    def test_known_value(self):
        E = EllipticCurve(4, 2, 0)
        y = lift_y(E, 1)  # sqrt(7)
        xp, _ = double_point(E, 1, y)
        with mp.workprec(128):
            assert abs(xp - mp.mpf(1) / 28) < mp.mpf(2) ** -100

    def test_result_lies_on_curve(self):
        rng = random.Random(71)
        E = EllipticCurve(4, 2, 0)
        with mp.workprec(128):
            for _ in range(20):
                x = mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
                y = lift_y(E, x)
                if abs(y) < 1e-6:
                    continue
                xp, yp = double_point(E, x, y)
                resid = abs(yp * yp - poly_mp(E.rhs(), xp))
                scale = max(1, abs(yp * yp))
                assert resid / scale < mp.mpf(2) ** -90

    def test_involution_commutation(self):
        # the x-coordinate of 2P does not see the sign of y
        rng = random.Random(73)
        E = EllipticCurve(0, -1, 0)
        with mp.workprec(128):
            for _ in range(20):
                x = mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
                y = lift_y(E, x)
                if abs(y) < 1e-6:
                    continue
                xp1, _ = double_point(E, x, y)
                xp2, _ = double_point(E, x, -y)
                assert abs(xp1 - xp2) <= mp.mpf(2) ** -90 * max(1, abs(xp1))


class TestLiftY:
    def test_zero_at_zero(self):
        assert abs(lift_y(EllipticCurve(4, 2, 0), 0)) == 0

    def test_sqrt6(self):
        with mp.workprec(128):
            y = lift_y(EllipticCurve(0, -1, 0), 2)
            assert abs(y - mp.sqrt(6)) < mp.mpf(2) ** -100

    def test_defining_property(self):
        rng = random.Random(79)
        E = EllipticCurve(1, 2, 3)
        with mp.workprec(128):
            for _ in range(30):
                x = mpc(rng.uniform(-4, 4), rng.uniform(-4, 4))
                y = lift_y(E, x)
                f = poly_mp(E.rhs(), x)
                assert abs(y * y - f) <= mp.mpf(2) ** -90 * max(1, abs(f))


def test_doubling_oracle_identity():
    # duplication_map agrees with tangent-line doubling at random points
    rng = random.Random(83)
    with mp.workprec(128):
        for _ in range(5):
            E = random_nonsingular_curve(rng)
            phi = duplication_map(E)
            done = 0
            while done < 30:
                x = mpc(rng.uniform(-4, 4), rng.uniform(-4, 4))
                y = lift_y(E, x)
                if abs(y) < 1e-4 or abs(poly_mp(phi.den, x)) < 1e-6:
                    continue
                xp, _ = double_point(E, x, y)
                val = map_mp(phi, x)
                assert abs(val - xp) < 1e-9 * max(1, abs(val))
                done += 1


class TestRationalMap:
    def test_canonical_form(self):
        # common factors cancel; scaling is integer-primitive
        m = RationalMap(P(0, Fraction(1, 2)), P(Fraction(1, 2), Fraction(1, 2)))
        assert m.num == P(0, 1) and m.den == P(1, 1)
        m2 = RationalMap(P(-1, 0, 1), P(-1, 1))  # (x^2-1)/(x-1) = x+1 ... reduced
        assert m2.num == P(1, 1) and m2.den == P(1)

    @pytest.mark.parametrize("k", [-1, 2, Fraction(1, 3), Fraction(-5, 7)])
    def test_scaling_invariant(self, k):
        # a common scalar changes nothing: integer-primitive num and den over
        # the denominator 1, with a positive denominator lead
        rng = random.Random(89)
        maps = [
            (P(4, 0, -4, 0, 1), P(0, 8, 16, 4)),
            (P(Fraction(1, 2), 0, 3), P(-2, Fraction(4, 3))),
        ]
        for E in (random_nonsingular_curve(rng) for _ in range(3)):
            phi = duplication_map(E)
            maps.append((phi.num, phi.den))
        for num, den in maps:
            m = RationalMap(num * k, den * k)
            assert m == RationalMap(num, den)
            assert m.num.den == m.den.den == 1 and m.den.ints[-1] > 0
            assert gcd(*m.num.ints, *m.den.ints) == 1

    def test_denominator_sign_normalized(self):
        m = RationalMap(P(0, 1), P(-1))
        assert m.den.ints[-1] > 0
        assert m.num == P(0, -1)

    def test_degree(self):
        assert RationalMap(P(0, 0, 1), P(1)).degree == 2
        assert RationalMap(P(1), P(0, 1)).degree == 1

    def test_rejects_degenerate(self):
        with pytest.raises(DomainError):
            RationalMap(P(3), P(1))  # constant
        with pytest.raises(DomainError):
            RationalMap(Poly(), P(1))  # zero map
        with pytest.raises(DomainError):
            RationalMap(P(1), Poly())  # zero denominator

    def test_text_roundtrip(self):
        m = RationalMap(P(4, 0, -4, 0, 1), P(0, 8, 16, 4))
        assert RationalMap.parse(str(m)) == m
        assert RationalMap.parse("0,0,1 / 1") == RationalMap(P(0, 0, 1), P(1))
        assert RationalMap.parse("0,0,1/1") == RationalMap(P(0, 0, 1), P(1))
        with pytest.raises(ParseError):
            RationalMap.parse("1,2")

    def test_pole_evaluation(self):
        m = RationalMap(P(1), P(0, 1))
        with mp.workprec(64):
            with pytest.raises(DomainError):
                map_mp(m, mpc(0))
