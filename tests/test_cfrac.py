import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import mp

from lattes_sft import (
    BudgetExceededError,
    ContinuedFraction,
    DomainError,
    IntMatrix2,
    ParseError,
    QuadSurd,
    SFTMatrix,
    convergents,
    expand,
    period_matrix,
)
from lattes_sft import cfrac, intlinalg
from lattes_sft.intlinalg import is_square
from reference import cf_float, expand_seen, period_matrix_fold, surd_canonical, surd_value


def surd(P, Q, D):
    return QuadSurd(P, Q, D)


class TestQuadSurd:
    def test_normalization_keeps_value(self):
        # 3 does not divide 2 - 0, so (0+sqrt(2))/3 is rescaled
        s = surd(0, 3, 2)
        assert (s.D - s.P * s.P) % s.Q == 0
        assert s == surd(0, 3, 2)
        with mp.workprec(128):
            assert abs(surd_value(s) - mp.sqrt(2) / 3) < mp.mpf(2) ** -100

    def test_equality_across_representations(self):
        assert surd(0, 2, 8) == surd(0, 1, 2)  # sqrt(8)/2 = sqrt(2)
        assert surd(2, 2, 8) != surd(0, 1, 2)
        # a surd equals only a surd
        assert (surd(1, 1, 2) == 1) is False and surd(1, 1, 2) != 1

    def test_equality_factors_nothing(self):
        # D = 2^61 - 1 is prime, far past the trial-division budget
        D = 2**61 - 1
        assert surd(0, 1, D) == surd(0, 1, D)
        assert surd(0, 1, D) == surd(0, 3, 9 * D)  # sqrt(9D)/3
        assert hash(surd(0, 1, D)) == hash(surd(0, 3, 9 * D))
        assert surd(0, 1, D) != surd(0, -1, D)
        assert surd(0, 1, D) != surd(0, 1, 4 * D)

    @settings(max_examples=400)
    @given(
        st.integers(-12, 12), st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4, 6]),
        st.integers(2, 60), st.integers(-12, 12),
        st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4, 6]), st.integers(2, 60),
        st.integers(1, 4),
    )
    def test_equality_matches_canonical_form(self, P1, Q1, D1, P2, Q2, D2, k):
        # the old route, by the square-free part of D, is the reference;
        # pairs scaled by k are equal, the others mostly not
        assume(not is_square(D1) and not is_square(D2))
        s = surd(P1, Q1, D1)
        for t in (surd(P2, Q2, D2), surd(k * P1, k * Q1, k * k * D1)):
            same = surd_canonical(s) == surd_canonical(t)
            assert (s == t) == same
            if same:
                assert hash(s) == hash(t)

    def test_floor(self):
        assert surd(0, 1, 2).floor() == 1
        assert surd(0, 2, 2).floor() == 0
        assert surd(1, 2, 5).floor() == 1
        assert surd(0, -1, 2).floor() == -2  # -sqrt(2)
        assert surd(-5, 3, 2).floor() == -2  # (-5+sqrt(2))/3 ~ -1.195

    def test_translate(self):
        s = surd(0, 1, 2)
        assert s.translate(3).floor() == 4
        assert s.translate(-1).floor() == 0

    def test_is_positive(self):
        assert surd(0, 1, 2).is_positive()
        assert not surd(0, -1, 2).is_positive()
        assert surd(-1, 1, 2).is_positive()
        assert not surd(-2, 1, 2).is_positive()

    def test_cmp_fraction(self):
        s = surd(0, 1, 2)  # sqrt(2)
        assert s.cmp_fraction(Fraction(1)) == 1
        assert s.cmp_fraction(Fraction(3, 2)) == -1
        assert surd(0, -1, 2).cmp_fraction(Fraction(-2)) == 1
        # an int r is compared in ints
        assert [s.cmp_fraction(r) for r in (0, -1, 2)] == [1, 1, -1]
        assert [surd(-3, 2, 7).cmp_fraction(r) for r in (0, -1, 2)] == [-1, 1, -1]

    def test_validation(self):
        with pytest.raises(DomainError):
            QuadSurd(0, 0, 2)
        with pytest.raises(DomainError):
            QuadSurd(0, 1, 4)
        with pytest.raises(DomainError):
            QuadSurd(0, 1, -2)

    def test_cmp_fraction_below_the_rational_part(self):
        # r Q - P < 0: the sign follows from that of Q alone
        assert surd(0, 1, 2).cmp_fraction(Fraction(-1)) == 1  # sqrt(2) > -1
        assert surd(0, -1, 2).cmp_fraction(Fraction(1)) == -1  # -sqrt(2) < 1

    def test_text_roundtrip(self):
        for s in (surd(0, 2, 2), surd(-1, 3, 5), surd(7, -2, 13)):
            assert QuadSurd.parse(str(s)) == s
        with pytest.raises(ParseError):
            QuadSurd.parse("sqrt(2)/2")

    def test_representation_invariance(self):
        # (kP + sqrt(k^2 D))/(kQ) is the same number; everything observable
        # must agree across representations
        rng = random.Random(151)
        for _ in range(60):
            D = rng.randint(2, 80)
            if isqrt(D) ** 2 == D:
                continue
            s = QuadSurd(rng.randint(-9, 9), rng.choice([-3, -2, -1, 1, 2, 3]), D)
            k = rng.choice([2, 3, 5])
            t = QuadSurd(k * s.P, k * s.Q, k * k * s.D)
            assert s == t and hash(s) == hash(t)
            assert s.floor() == t.floor()
            assert s.is_positive() == t.is_positive()
            assert expand(s) == expand(t)


class TestExpand:
    def test_half_sqrt2(self):
        assert expand(surd(0, 2, 2)) == ContinuedFraction((0, 1), (2,))

    def test_sqrt2_with_float_oracle(self):
        cf = expand(surd(0, 1, 2))
        assert cf == ContinuedFraction((1,), (2,))
        assert cf.quotients(20) == cf_float(lambda: mp.sqrt(2), 20)

    def test_golden_ratio(self):
        # x = 1 + 1/x forces every quotient to be 1
        cf = expand(surd(1, 2, 5))
        assert cf == ContinuedFraction((), (1,))
        assert cf.quotients(12) == [1] * 12

    def test_negative_value(self):
        cf = expand(surd(0, -1, 2))  # -sqrt(2) = [-2; 1, 1, then period 2...]
        assert cf.quotients(20) == cf_float(lambda: -mp.sqrt(2), 20)

    def test_minimal_period_no_divisor_rotation(self):
        rng = random.Random(23)
        for _ in range(120):
            D = rng.randint(2, 200)
            if isqrt(D) ** 2 == D:
                continue
            s = QuadSurd(rng.randint(-10, 10), rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), D)
            per = expand(s).period
            k = len(per)
            for length in range(1, k):
                if k % length == 0:
                    assert per != per[:length] * (k // length)

    def test_pure_sqrt_palindrome(self):
        # period of sqrt(D) is a palindrome followed by 2*floor(sqrt(D))
        for D in range(2, 51):
            if isqrt(D) ** 2 == D:
                continue
            cf = expand(surd(0, 1, D))
            assert cf.preperiod == (isqrt(D),)
            assert cf.period[-1] == 2 * isqrt(D)
            body = cf.period[:-1]
            assert body == tuple(reversed(body))
            assert cf.quotients(25) == cf_float(
                lambda D=D: mp.sqrt(D), 25
            )

    @settings(max_examples=300)
    @given(
        st.integers(-300, 300),
        st.integers(-300, 300).filter(bool),
        st.integers(2, 10**5).filter(lambda D: isqrt(D) ** 2 != D),
    )
    @example(0, -1, 2)  # negative Q, preperiod (-2, 1, 1)
    @example(0, 3, 2)  # Q does not divide D - P*P, so the surd is rescaled
    @example(-5, 3, 2)  # rescaled, negative value, preperiod (-2, 1)
    @example(300, -7, 99991)  # preperiod (-89, 1, 31), period 840
    def test_matches_seen_state_reference(self, P, Q, D):
        x = QuadSurd(P, Q, D)
        pre, per = expand_seen(x.P, x.Q, x.D)
        assert expand(x) == ContinuedFraction(pre, per)

    def test_period_budget(self, monkeypatch):
        monkeypatch.setattr(cfrac, "EXPAND_BUDGET", 4)
        assert expand(surd(0, 1, 7)).period == (1, 1, 1, 4)
        with pytest.raises(BudgetExceededError, match="period .* budget of 4 quotients"):
            expand(surd(0, 1, 31))  # period 8

    def test_preperiod_budget(self, monkeypatch):
        monkeypatch.setattr(cfrac, "EXPAND_BUDGET", 2)
        assert expand(surd(-5, 3, 2)).preperiod == (-2, 1)
        monkeypatch.setattr(cfrac, "EXPAND_BUDGET", 1)
        with pytest.raises(BudgetExceededError, match="preperiod .* budget of 1 quotients"):
            expand(surd(-5, 3, 2))


def square_split(n):
    """(m, kernel) with n = m*m * kernel, from sympy's factorization."""
    from sympy import factorint

    m, kernel = 1, 1
    for p, e in factorint(n).items():
        m *= p ** (e // 2)
        kernel *= p ** (e % 2)
    return m, kernel


class TestSquarePart:
    def test_matches_factorization(self):
        rng = random.Random(41)
        for n in [1, 2, 4, 12, 720] + [rng.randint(1, 10**9) for _ in range(300)]:
            assert cfrac.square_part(n) == square_split(n)

    def test_cofactors_above_the_bound(self):
        p, q = 1048583, 1048589  # primes just above 2^20
        assert cfrac.square_part(10**18 + 3) == (1, 10**18 + 3)  # a prime
        assert cfrac.square_part(12 * p * p) == (2 * p, 3)
        assert cfrac.square_part(5 * p * q) == (1, 5 * p * q)
        with pytest.raises(BudgetExceededError, match="1048576"):
            cfrac.square_part(p * q * 1048601)

    def test_small_bound_is_exact_or_raises(self, monkeypatch):
        from sympy import factorint

        monkeypatch.setattr(intlinalg, "TRIAL_DIVISION_BOUND", 30)
        rng = random.Random(43)
        raised = 0
        for n in [rng.randint(1, 10**6) for _ in range(2000)] + [37 * 37 * 6, 31 * 37 * 8]:
            try:
                got = cfrac.square_part(n)
            except BudgetExceededError:
                # the part of n with no prime factor up to 30 is at least 30^3
                big = 1
                for p, e in factorint(n).items():
                    if p > 30:
                        big *= p**e
                assert big >= 30**3
                raised += 1
                continue
            assert got == square_split(n)
        assert 0 < raised < 2000


class TestPeriodMatrix:
    def test_period_two(self):
        assert period_matrix(ContinuedFraction((), (2,))) == IntMatrix2(2, 1, 1, 0)

    def test_single_one(self):
        assert period_matrix(ContinuedFraction((), (1,))) == IntMatrix2(1, 1, 1, 0)

    def test_two_twos(self):
        assert period_matrix(ContinuedFraction((), (2, 2))) == IntMatrix2(5, 2, 2, 1)

    def test_det_sign(self):
        rng = random.Random(29)
        for _ in range(80):
            D = rng.randint(2, 200)
            if isqrt(D) ** 2 == D:
                continue
            s = QuadSurd(rng.randint(-8, 8), rng.choice([-3, -1, 1, 2, 5]), D)
            cf = expand(s)
            assert period_matrix(cf).det() == (-1) ** len(cf.period)

    @settings(max_examples=200)
    @given(st.lists(st.integers(1, 10**6), min_size=1, max_size=300))
    @example([1] * 300)
    @example([10**6] * 65)  # two full chunks and one quotient more
    def test_matches_left_fold(self, period):
        T = period_matrix(ContinuedFraction((), tuple(period)))
        assert T.entries() == period_matrix_fold(period)


class TestConvergents:
    def test_sqrt2(self):
        cf = expand(surd(0, 1, 2))
        assert convergents(cf, 3) == [
            Fraction(1),
            Fraction(3, 2),
            Fraction(7, 5),
        ]

    def test_golden(self):
        cf = expand(surd(1, 2, 5))
        assert convergents(cf, 4) == [
            Fraction(1),
            Fraction(2),
            Fraction(3, 2),
            Fraction(5, 3),
        ]

    def test_first_two_of_half_sqrt2(self):
        cf = expand(surd(0, 2, 2))
        assert convergents(cf, 2) == [Fraction(0), Fraction(1)]

    def test_quality_bound(self):
        # |x - p/q| < 1/q^2 for every convergent, checked exactly
        rng = random.Random(31)
        for _ in range(40):
            D = rng.randint(2, 150)
            if isqrt(D) ** 2 == D:
                continue
            s = QuadSurd(rng.randint(-6, 6), rng.choice([1, 2, 3]), D)
            cf = expand(s)
            for pq in convergents(cf, 12):
                lo = pq - Fraction(1, pq.denominator**2)
                hi = pq + Fraction(1, pq.denominator**2)
                assert s.cmp_fraction(lo) > 0 and s.cmp_fraction(hi) < 0

    def test_reconstruction_converges(self):
        s = surd(3, 7, 13)
        cf = expand(s)
        with mp.workprec(256):
            target = surd_value(s, 256)
            errs = [abs(target - mp.mpf(c.numerator) / c.denominator)
                    for c in convergents(cf, 18)]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_needs_positive_count(self):
        with pytest.raises(DomainError):
            convergents(ContinuedFraction((), (1,)), 0)


class TestContinuedFractionType:
    def test_validation(self):
        with pytest.raises(DomainError):
            ContinuedFraction((), ())
        with pytest.raises(DomainError):
            ContinuedFraction((), (0,))
        with pytest.raises(DomainError):
            ContinuedFraction((1, 0), (2,))
        ContinuedFraction((-3, 1), (2,))  # negative leading entry is fine

    def test_text_roundtrip(self):
        for cf in (
            ContinuedFraction((0, 1), (2,)),
            ContinuedFraction((), (1, 2, 3)),
            ContinuedFraction((-2, 1), (4,)),
        ):
            assert ContinuedFraction.parse(str(cf)) == cf
        assert str(ContinuedFraction((0, 1), (2,))) == "[0,1;(2)]"
        with pytest.raises(ParseError):
            ContinuedFraction.parse("[1,2,3]")


class TestIntMatrix2:
    def test_mul_pow(self):
        A = IntMatrix2(0, 1, 2, 0)
        assert A * A == IntMatrix2(2, 0, 0, 2)
        assert A * A * A == IntMatrix2(0, 2, 4, 0)
        assert A * IntMatrix2.identity() == A

    def test_det_trace_transpose(self):
        A = IntMatrix2(1, 2, 3, 4)
        assert A.det() == -2 and A.trace() == 5
        At = IntMatrix2(1, 3, 2, 4)
        assert (At.det(), At.trace()) == (A.det(), A.trace())

    def test_text_roundtrip(self):
        # SFTMatrix.parse is the one matrix-text parser
        assert str(IntMatrix2(0, -1, 2, 7)) == "0,-1;2,7"
        A = IntMatrix2(0, 1, 2, 7)
        assert IntMatrix2.from_rows(SFTMatrix.parse(str(A)).rows) == A
