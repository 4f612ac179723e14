import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from lattes_sft import (
    DomainError,
    IntMatrix2,
    ParseError,
    Poly,
    QuadElem,
    companion_matrix,
)
from lattes_sft import exactnum
from lattes_sft.exactnum import _COPRIMALITY_PRIMES, _gfp_gcd_degree, _provably_coprime
from reference import gfp_gcd_degree_euclid, poly_divmod_fraction, poly_mul_schoolbook

SQF = [2, 3, 5, 6, 7, 10, 11, 13]


def elem(a, b, D=2):
    return QuadElem(Fraction(a), Fraction(b), D)


class TestQuadArith:
    def test_sqrt2_squared(self):
        assert elem(0, 1) * elem(0, 1) == elem(2, 0)

    def test_norm_identity_product(self):
        assert elem(1, 1) * elem(1, -1) == elem(-1, 0)

    def test_golden_additivity(self):
        half = QuadElem(Fraction(1, 2), Fraction(1, 2), 5)
        assert half + half == QuadElem(1, 1, 5)

    def test_division_roundtrip(self):
        x = elem(3, 2)
        y = elem(1, 1)
        assert (x / y) * y == x

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            elem(1, 1) / elem(0, 0)

    def test_negation_and_conjugate(self):
        x = elem(3, -2)
        assert -x == elem(-3, 2) and x + -x == elem(0, 0)
        assert x.conjugate() == elem(3, 2)
        assert x * x.conjugate() == elem(x.norm(), 0)

    def test_mismatched_fields(self):
        with pytest.raises(DomainError):
            elem(1, 1, 2) + elem(1, 1, 3)

    def test_d_must_be_squarefree(self):
        for bad in (1, 4, 12, 18, 0, -2):
            with pytest.raises(DomainError):
                QuadElem(0, 1, bad)


class TestNormTrace:
    def test_sqrt2(self):
        x = elem(0, 1)
        assert (x.norm(), x.trace()) == (-2, 0)

    def test_unit(self):
        x = elem(1, 0)
        assert (x.norm(), x.trace()) == (1, 2)

    def test_one_plus_sqrt2(self):
        x = elem(1, 1)
        assert (x.norm(), x.trace()) == (-1, 2)


class TestCompanionMatrix:
    def test_sqrt2(self):
        assert companion_matrix(elem(0, 1)) == IntMatrix2(0, 1, 2, 0)

    def test_one_plus_sqrt2(self):
        assert companion_matrix(elem(1, 1)) == IntMatrix2(0, 1, 1, 2)

    def test_sqrt5(self):
        assert companion_matrix(QuadElem(0, 1, 5)) == IntMatrix2(0, 1, 5, 0)

    def test_rejects_rational(self):
        with pytest.raises(DomainError):
            companion_matrix(elem(2, 0))

    def test_rejects_non_integral(self):
        with pytest.raises(DomainError):
            companion_matrix(QuadElem(Fraction(1, 2), 1, 5))

    def test_charpoly_identity(self):
        # trace and determinant of the companion recover Tr and N
        rng = random.Random(7)
        for _ in range(50):
            D = rng.choice(SQF)
            x = QuadElem(rng.randint(-9, 9), rng.choice([-3, -2, -1, 1, 2, 3]), D)
            A = companion_matrix(x)
            assert A.trace() == x.trace()
            assert A.det() == x.norm()


small_fractions = st.fractions(
    min_value=-6, max_value=6, max_denominator=6
)


@given(
    a1=small_fractions, b1=small_fractions, a2=small_fractions, b2=small_fractions,
    D=st.sampled_from(SQF),
)
def test_norm_multiplicative_trace_additive(a1, b1, a2, b2, D):
    x = QuadElem(a1, b1, D)
    y = QuadElem(a2, b2, D)
    assert (x * y).norm() == x.norm() * y.norm()
    assert (x + y).trace() == x.trace() + y.trace()


@given(
    a1=small_fractions, b1=small_fractions, a2=small_fractions, b2=small_fractions,
    D=st.sampled_from(SQF),
)
def test_rationals_stay_reduced(a1, b1, a2, b2, D):
    x = QuadElem(a1, b1, D)
    y = QuadElem(a2, b2, D)
    results = [x + y, x - y, x * y]
    if not y.is_zero:
        results.append(x / y)
    for r in results:
        for f in (r.a, r.b):
            assert f.denominator > 0
            assert gcd(f.numerator, f.denominator) == 1


class TestQuadElemText:
    def test_parse_standard_form(self):
        assert QuadElem.parse("0+1*sqrt(2)") == elem(0, 1)

    def test_roundtrip(self):
        for x in (elem(1, -1), QuadElem(Fraction(-3, 2), Fraction(1, 7), 5)):
            assert QuadElem.parse(str(x)) == x

    def test_bad_text(self):
        for bad in ("sqrt(2)", "1+2", "1+1*sqrt(x)", ""):
            with pytest.raises(ParseError):
                QuadElem.parse(bad)


def P(*coeffs):
    return Poly(tuple(Fraction(c) for c in coeffs))


class TestPolyOps:
    def test_gcd_example(self):
        # gcd(x^2-1, x-1) = x-1
        assert P(-1, 0, 1).gcd(P(-1, 1)) == P(-1, 1)

    def test_squarefree_example(self):
        # (x-1)^2 (x+2) -> (x-1)(x+2), monic
        p = P(-1, 1) * P(-1, 1) * P(2, 1)
        assert p.squarefree_part() == P(-1, 1) * P(2, 1)

    def test_divmod_exact(self):
        q, r = divmod(P(-1, 0, 1), P(-1, 1))
        assert q == P(1, 1) and r.is_zero

    def test_divmod_with_remainder(self):
        a, b = P(1, 2, 0, 3), P(1, 1)
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            divmod(P(1, 1), Poly())

    def test_immutable(self):
        p = P(1, 2)
        with pytest.raises(AttributeError, match="Poly is immutable"):
            p.ints = (3,)
        assert p == P(1, 2)

    def test_equality_and_truth(self):
        # a Poly equals only a Poly, and only the zero polynomial is false
        assert (P(1) == 1) is False and P(1) != 1
        assert not Poly() and P(0) == Poly()
        assert P(1) and P(0, 1)

    def test_gcd_with_zero_is_the_other_monic(self):
        assert Poly().gcd(P(2, 4)) == P(Fraction(1, 2), 1)
        assert P(2, 4).gcd(Poly()) == P(Fraction(1, 2), 1)

    def test_zero_has_no_squarefree_part(self):
        with pytest.raises(DomainError, match="no square-free part"):
            Poly().squarefree_part()

    @given(
        st.lists(st.fractions(max_denominator=2**40), max_size=24),
        st.lists(st.fractions(max_denominator=12), max_size=24),
    )
    def test_product_matches_schoolbook(self, a, b):
        # Poly clears denominators, multiplies in integers and rescales
        assert Poly(a) * Poly(b) == Poly(poly_mul_schoolbook(a, b))

    @given(
        st.lists(st.fractions(max_denominator=30), max_size=12),
        st.lists(st.fractions(max_denominator=30), min_size=1, max_size=8).filter(
            lambda v: v[-1] != 0
        ),
    )
    def test_divmod_matches_fraction_long_division(self, a, b):
        # equal values, and the same normal form as a Poly built from them
        q, r = divmod(Poly(a), Poly(b))
        q_ref, r_ref = poly_divmod_fraction(a, b)
        assert q.coeffs == tuple(q_ref) and r.coeffs == tuple(r_ref)
        assert (q, r) == (Poly(q_ref), Poly(r_ref))

    def test_derivative(self):
        assert P(5, 3, 0, 2).derivative() == P(3, 0, 6)

    def test_text_roundtrip(self):
        p = P(Fraction(1, 2), -3, 0, 1)
        assert Poly.from_text(p.to_text()) == p
        assert Poly.from_text("0").is_zero

    def test_pretty(self):
        assert P(1, 0, -2).pretty("t") == "1-2t^2"
        assert P(0, 1).pretty() == "x"
        assert Poly().pretty() == "0"


nonzero_fractions = st.fractions(max_denominator=10**6).filter(lambda k: k != 0)


@given(st.lists(st.fractions(max_denominator=10**6), max_size=12), nonzero_fractions)
def test_poly_normal_form(cs, k):
    # ints over den in lowest terms is unique, so a scaled copy scaled back
    # is the same object: equal ints, den and hash
    p = Poly(cs)
    trimmed = list(cs)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    assert p.coeffs == tuple(trimmed)
    assert p.den > 0 and gcd(p.den, *p.ints) == 1
    back = Poly([k * c for c in cs]) * (1 / k)
    assert back == p
    assert (back.ints, back.den, hash(back)) == (p.ints, p.den, hash(p))


def test_squarefree_part_of_squarefree_divides_nothing(monkeypatch):
    # gcd(F, F') = 1 certifies F square-free, so F's monic form is returned
    # without a division by the constant gcd
    def no_divmod(self, other):
        raise AssertionError("divided by a constant gcd")

    F = P(-1, 1) * P(2, 1) * P(3, Fraction(5, 2))
    # P - x*Q for the doubling map P/Q of y^2 = x^3 + 4x^2 + 2x: its roots
    # are the four finite fixed points
    lattes_F = P(4, 0, -4, 0, 1) - P(0, 1) * P(0, 8, 16, 4)
    monkeypatch.setattr(Poly, "__divmod__", no_divmod)
    assert F.squarefree_part() == P(-1, 1) * P(2, 1) * P(Fraction(6, 5), 1)
    assert lattes_F.squarefree_part() == lattes_F.monic()


def test_certificate_primes_fit_one_digit():
    # p < 2^30 keeps a 128-bit lane of the mod-p Euclid below 2^64 between
    # two Barrett reductions
    import sympy

    for p in _COPRIMALITY_PRIMES:
        assert sympy.isprime(p) and p < 2**30


def test_certificate_skips_a_prime_dividing_a_leading_coefficient(monkeypatch):
    # p0 x + 1 and x + 1 are coprime; p0 divides a leading coefficient, so
    # the certificate is taken modulo the next prime
    p0, p1 = _COPRIMALITY_PRIMES[:2]
    gfp_gcd_degree = exactnum._gfp_gcd_degree
    used = []

    def recorded(a, b, p):
        used.append(p)
        return gfp_gcd_degree(a, b, p)

    monkeypatch.setattr(exactnum, "_gfp_gcd_degree", recorded)
    assert _provably_coprime([1, p0], [1, 1])
    assert used == [p1]
    assert P(1, p0).gcd(P(1, 1)) == Poly.one()


def test_root_shared_modulo_the_certificate_prime_falls_back(monkeypatch):
    # x + p0 and x are coprime over Q but share the root 0 modulo p0, so no
    # certificate is found and the PRS decides
    p0 = _COPRIMALITY_PRIMES[0]
    prs_gcd = exactnum._prs_gcd
    calls = []

    def recorded(a, b):
        calls.append((a, b))
        return prs_gcd(a, b)

    monkeypatch.setattr(exactnum, "_prs_gcd", recorded)
    assert not _provably_coprime([p0, 1], [0, 1])
    assert P(p0, 1).gcd(P(0, 1)) == Poly.one()
    assert len(calls) == 1


def test_no_certificate_prime_left_falls_back(monkeypatch):
    # every certificate prime divides the leading coefficient M of
    # (x - 1)(M x + 1), so no certificate is tried and the PRS decides
    M = prod(_COPRIMALITY_PRIMES)

    def no_certificate(a, b, p):
        raise AssertionError("took a certificate modulo a prime dividing a leading coefficient")

    monkeypatch.setattr(exactnum, "_gfp_gcd_degree", no_certificate)
    a = P(-1, 1) * P(1, M)
    assert not _provably_coprime(list(a.ints), [2, 1])
    assert a.gcd(P(2, 1)) == Poly.one()
    assert a.gcd(P(-1, 1) * P(2, 1)) == P(-1, 1)


def test_squarefree_part_of_repeated_factors():
    # (x - 1)^2 (2x + 3)^3 (x^2 + 1), and the same times the first
    # certificate prime, whose leading coefficient that prime divides
    F = P(-1, 1) * P(-1, 1) * P(3, 2) * P(3, 2) * P(3, 2) * P(1, 0, 1)
    expected = P(-1, 1) * P(Fraction(3, 2), 1) * P(1, 0, 1)
    assert F.squarefree_part() == expected
    assert (F * _COPRIMALITY_PRIMES[0]).squarefree_part() == expected


def _random_poly(rng, max_deg=6):
    deg = rng.randint(0, max_deg)
    coeffs = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(deg + 1)]
    return Poly(coeffs)


def test_gcd_divides_both_exactly():
    rng = random.Random(11)
    for _ in range(60):
        p, q = _random_poly(rng), _random_poly(rng)
        if p.is_zero and q.is_zero:
            continue
        g = p.gcd(q)
        for h in (p, q):
            _, r = divmod(h, g)
            assert r.is_zero


def test_gcd_detects_common_factor():
    rng = random.Random(13)
    for _ in range(40):
        f = _random_poly(rng, 3)
        if f.degree < 1:
            continue
        p, q = f * _random_poly(rng, 2), f * _random_poly(rng, 2)
        if p.is_zero or q.is_zero:
            continue
        g = p.gcd(q)
        _, r = divmod(g, f.monic())
        assert g.degree >= f.degree and r.is_zero


def test_squarefree_part_has_no_repeated_roots():
    rng = random.Random(17)
    for _ in range(40):
        p = _random_poly(rng, 4)
        if p.degree < 1:
            continue
        s = (p * p * _random_poly(rng, 2)).squarefree_part()
        if s.degree < 1:
            continue
        assert s.gcd(s.derivative()).degree == 0


def test_squarefree_part_against_sympy():
    import sympy

    x = sympy.symbols("x")
    rng = random.Random(19)
    for _ in range(20):
        p = _random_poly(rng, 5)
        if p.degree < 1:
            continue
        expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i
                   for i, c in enumerate(p.coeffs))
        expected = sympy.Poly(expr, x).monic()
        got = p.squarefree_part()
        got_expr = sympy.Poly(
            sum(sympy.Rational(c.numerator, c.denominator) * x**i
                for i, c in enumerate(got.coeffs)),
            x,
        )
        # same roots, no multiplicity: radical of p equals got
        rad = sympy.Poly(sympy.prod([f for f, _ in expected.factor_list()[1]]), x).monic()
        assert got_expr.monic() == rad


def test_constant_gcd_runs_no_euclid(monkeypatch):
    # a nonzero constant is a unit, so the gcd of the worked zeta function
    # 1/(1 - 2t^2) is 1 with no mod-p certificate and no PRS
    from lattes_sft.sft import ZetaRational

    def no_euclid(*args):
        raise AssertionError("ran a Euclid for a constant gcd")

    monkeypatch.setattr(exactnum, "_gfp_gcd_degree", no_euclid)
    monkeypatch.setattr(exactnum, "_prs_gcd", no_euclid)
    assert str(ZetaRational(Poly.one(), P(1, 0, -2))) == "1/(1-2t^2)"
    assert P(3).gcd(P(1, 2, 3)) == P(1, 2, 3).gcd(P(Fraction(-1, 2))) == Poly.one()


# The lane Euclid against the Euclid on lists of residues: the certificate
# primes, and small primes at which coefficients often vanish mod p.
_PRIMES = st.sampled_from(_COPRIMALITY_PRIMES + (2, 3, 65537))
_WIDE = st.lists(st.integers(-(2**80), 2**80), min_size=1, max_size=40)


@settings(max_examples=300)
@given(a=_WIDE, b=_WIDE, p=_PRIMES)
def test_lane_gcd_matches_euclid_on_wide_coefficients(a, b, p):
    assert _gfp_gcd_degree(a, b, p) == gfp_gcd_degree_euclid(a, b, p)


@settings(max_examples=300)
@given(
    a=_WIDE,
    b=_WIDE,
    g=st.lists(st.integers(-9, 9), min_size=2, max_size=8),
    p=_PRIMES,
    multiple=st.sampled_from(("none", "all", "leading")),
)
def test_lane_gcd_matches_euclid_on_shared_factors(a, b, g, p, multiple):
    # a shared factor g; then all of a, or only its leading coefficient,
    # made a multiple of p
    a, b = poly_mul_schoolbook(a, g), poly_mul_schoolbook(b, g)
    if multiple == "all":
        a = [c * p for c in a]
    elif multiple == "leading":
        a[-1] = (a[-1] or 1) * p
    assert _gfp_gcd_degree(a, b, p) == gfp_gcd_degree_euclid(a, b, p)
    assert _gfp_gcd_degree(b, a, p) == gfp_gcd_degree_euclid(b, a, p)


@settings(max_examples=12)
@given(
    n=st.integers(300, 400),
    k=st.integers(6, 400),
    rnd=st.randoms(use_true_random=False),
    p=st.sampled_from(_COPRIMALITY_PRIMES),
)
def test_lane_gcd_matches_euclid_on_long_runs(n, k, rnd, p):
    # every residue of a is p - 1, the largest a lane starts from, at degree
    # >= 300; a divisor of degree k >= 6 adds to each lane up to k + 1 times
    # in one division, the longest runs between two reductions
    a = [p - 1] * (n + 1)
    b = [rnd.randrange(p) for _ in range(k)] + [p - 1]
    assert _gfp_gcd_degree(a, b, p) == gfp_gcd_degree_euclid(a, b, p)
