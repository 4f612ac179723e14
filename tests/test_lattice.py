import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from lattes_sft import (
    DomainError,
    IntMatrix2,
    ParseError,
    PseudoLattice,
    QuadElem,
    QuadSurd,
    expand,
    functor_invariants,
    hnf2,
    period_matrix,
    scale_lattice,
)
from lattes_sft.cfrac import square_part
from lattes_sft.intlinalg import column_echelon
from reference import hnf_oracle, random_unimodular, scale_lattice_fraction

SQF = [2, 3, 5, 7, 10, 13]
SQF_60 = [d for d in range(2, 61) if square_part(d)[0] == 1]


@st.composite
def lattice_and_eps(draw):
    """Z + Z*theta with theta = (P + sqrt(k*k*d))/Q, P of either sign, Q of
    either sign and often not dividing D - P*P (QuadSurd then rescales), and
    eps integral, non-integral, zero, an endomorphism, or from another field."""
    d = draw(st.sampled_from(SQF_60))
    k = draw(st.integers(1, 12))
    t = QuadSurd(draw(st.integers(-30, 30)), draw(st.integers(-12, 12).filter(bool)), k * k * d)
    if not t.is_positive():
        t = QuadSurd(t.P, -t.Q, t.D)  # -theta
    kind = draw(st.sampled_from(["integral", "endomorphism", "non-integral", "zero", "other field"]))
    a, b = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    if kind == "endomorphism":
        b = isqrt(t.D // d) * draw(st.integers(-3, 3).filter(bool))
    elif kind == "non-integral":
        a = Fraction(a, draw(st.integers(2, 3)))
    elif kind == "zero":
        a = b = 0
    elif kind == "other field":
        d = draw(st.sampled_from([e for e in SQF_60 if e != d]))
    return PseudoLattice(t), QuadElem(a, b, d)


def _outcome(scale, L, eps):
    try:
        sub = scale(L, eps)
    except DomainError as exc:
        return "error", str(exc)
    return sub.basis_matrix, sub.index, str(sub.normalized)


class TestScaleLattice:
    def test_sqrt2_by_sqrt2(self):
        sub = scale_lattice(PseudoLattice.from_sqrt(2), QuadElem(0, 1, 2))
        assert sub.index == 2
        assert sub.basis_matrix == IntMatrix2(2, 0, 0, 1)
        assert sub.normalized == PseudoLattice(QuadSurd(0, 2, 2))

    def test_identity(self):
        L = PseudoLattice.from_sqrt(2)
        sub = scale_lattice(L, QuadElem(1, 0, 2))
        assert sub.index == 1
        assert sub.normalized == L

    def test_doubling(self):
        L = PseudoLattice.from_sqrt(2)
        sub = scale_lattice(L, QuadElem(2, 0, 2))
        assert sub.index == 4
        assert sub.basis_matrix == IntMatrix2(2, 0, 0, 2)
        assert sub.normalized == L

    def test_index_is_absolute_norm(self):
        rng = random.Random(37)
        for _ in range(60):
            D = rng.choice(SQF)
            eps = QuadElem(rng.randint(-6, 6), rng.choice([-3, -2, -1, 1, 2, 3]), D)
            sub = scale_lattice(PseudoLattice.from_sqrt(D), eps)
            assert sub.index == abs(eps.norm())

    def test_index_multiplicative(self):
        rng = random.Random(41)
        for _ in range(40):
            D = rng.choice(SQF)
            e1 = QuadElem(rng.randint(-4, 4), rng.choice([-2, -1, 1, 2]), D)
            e2 = QuadElem(rng.randint(-4, 4), rng.choice([-2, -1, 1, 2]), D)
            L = PseudoLattice.from_sqrt(D)
            assert (
                scale_lattice(L, e1 * e2).index
                == scale_lattice(L, e1).index * scale_lattice(L, e2).index
            )

    def test_normalized_theta_same_field(self):
        rng = random.Random(43)
        for _ in range(40):
            D = rng.choice(SQF)
            eps = QuadElem(rng.randint(-5, 5), rng.choice([-2, -1, 1, 2, 3]), D)
            t = scale_lattice(PseudoLattice.from_sqrt(D), eps).normalized.theta
            assert square_part(t.D)[1] == D
            assert t.is_positive()

    def test_errors(self):
        L = PseudoLattice.from_sqrt(2)
        with pytest.raises(DomainError):
            scale_lattice(L, QuadElem(0, 1, 3))  # field mismatch
        with pytest.raises(DomainError):
            scale_lattice(L, QuadElem(Fraction(1, 2), 1, 2))  # not integral
        with pytest.raises(DomainError):
            scale_lattice(L, QuadElem(0, 0, 2))  # zero

    @settings(max_examples=400)
    @given(lattice_and_eps())
    def test_matches_fraction_route(self, case):
        L, eps = case
        assert _outcome(scale_lattice, L, eps) == _outcome(scale_lattice_fraction, L, eps)

    def test_not_an_endomorphism(self):
        # sqrt(2) * 1 is not in Z + Z*(sqrt(2)/3)
        L = PseudoLattice(QuadSurd(0, 3, 2))
        with pytest.raises(DomainError, match="not an endomorphism"):
            scale_lattice(L, QuadElem(0, 1, 2))


class TestHnf2:
    def test_canonical_shape(self):
        rng = random.Random(47)
        for _ in range(80):
            M = IntMatrix2(*(rng.randint(-6, 6) for _ in range(4)))
            if M.det() == 0:
                continue
            H = hnf2(M)
            assert H.c == 0 and H.a > 0 and H.d > 0
            assert 0 <= H.b < H.a
            assert H.a * H.d == abs(M.det())

    def test_invariant_under_column_operations(self):
        rng = random.Random(53)
        for _ in range(60):
            M = IntMatrix2(*(rng.randint(-6, 6) for _ in range(4)))
            if M.det() == 0:
                continue
            U = random_unimodular(rng)
            assert hnf2(M) == hnf2(M * U)

    def test_against_brute_force_oracle(self):
        rng = random.Random(59)
        for _ in range(40):
            M = IntMatrix2(*(rng.randint(-5, 5) for _ in range(4)))
            if M.det() == 0 or abs(M.det()) > 20:
                continue
            H = hnf2(M)
            # columns (M.a, M.c) and (M.b, M.d) generate the lattice
            a, b, c = hnf_oracle(M.a, M.c, M.b, M.d)
            assert (H.a, H.b, H.d) == (a, b, c)

    def test_is_column_echelon(self):
        # column_echelon of the columns read bottom row first: (g, b), (0, a)
        rng = random.Random(61)
        cases = [
            IntMatrix2(5, 3, -4, 0),  # M.d = 0 with a negative M.c
            IntMatrix2(5, 3, 0, -4),  # M.c = 0
            IntMatrix2(7, 2, 6, 3),  # |M.d / gcd| = 1
            IntMatrix2(10**12 + 39, -(10**12) + 11, 10**12 - 3, 10**12 + 7),
            IntMatrix2(-(10**12), 999_999_999_989, 6 * 10**11, -(10**12)),
        ]
        for M in cases + [IntMatrix2(*(rng.randint(-50, 50) for _ in range(4))) for _ in range(2000)]:
            if M.det() == 0:
                continue
            (g, b), (_, a) = column_echelon([(M.c, M.a), (M.d, M.b)])
            assert hnf2(M) == IntMatrix2(a, b, 0, g)

    def test_rejects_singular(self):
        with pytest.raises(DomainError):
            hnf2(IntMatrix2(1, 2, 2, 4))


def _stationary_matrix(L, eps):
    """Period matrix of the normalized generator of eps*L, translated into
    (0, 1): the steps of the chain in functor_invariants."""
    t = scale_lattice(L, eps).normalized.theta
    return period_matrix(expand(t.translate(-t.floor())))


class TestStationaryMatrix:
    """The period matrix T that the chain computes for eps*L."""

    def test_sqrt2(self):
        T = functor_invariants(2, QuadElem(0, 1, 2)).T
        assert T == _stationary_matrix(PseudoLattice.from_sqrt(2), QuadElem(0, 1, 2))
        assert T == IntMatrix2(2, 1, 1, 0)

    def test_rational_two_gives_same_period(self):
        # 2*L has the same normalized generator; the chain itself rejects a
        # rational eps, which has no companion matrix
        T = _stationary_matrix(PseudoLattice.from_sqrt(2), QuadElem(2, 0, 2))
        assert T == IntMatrix2(2, 1, 1, 0)
        with pytest.raises(DomainError, match="irrational"):
            functor_invariants(2, QuadElem(2, 0, 2))

    def test_sqrt5(self):
        # theta' = sqrt(5)/5 expands with period (4)
        T = functor_invariants(5, QuadElem(0, 1, 5)).T
        assert T == IntMatrix2(4, 1, 1, 0)

    def test_translation_invariance(self):
        # generators differing by integers give the same period matrix
        rng = random.Random(61)
        for _ in range(20):
            D = rng.choice(SQF)
            eps = QuadElem(rng.randint(-4, 4), rng.choice([-2, 1, 2]), D)
            t = scale_lattice(PseudoLattice.from_sqrt(D), eps).normalized.theta
            base = period_matrix(expand(t.translate(-t.floor())))
            shifted = period_matrix(expand(t.translate(-t.floor() + 3)))
            assert base == shifted
            if eps.norm() <= 0 <= eps.trace():
                # a non-negative companion matrix: the chain runs
                assert functor_invariants(D, eps).T == base


class TestPseudoLattice:
    def test_requires_positive_generator(self):
        with pytest.raises(DomainError):
            PseudoLattice(QuadSurd(0, -1, 2))

    def test_text_roundtrip(self):
        L = PseudoLattice(QuadSurd(1, 2, 5))
        assert PseudoLattice.parse(str(L)) == L
        assert str(PseudoLattice.from_sqrt(2)) == "Z+Z*(0+sqrt(2))/1"
        with pytest.raises(ParseError):
            PseudoLattice.parse("(0+sqrt(2))/1")
