import itertools
import random
from fractions import Fraction

import pytest
import sympy

from lattes_sft import (
    AbelianGroupInvariant,
    BudgetExceededError,
    DomainError,
    IntMatrix2,
    ParseError,
    Poly,
    SECertificate,
    SFTMatrix,
    ZetaRational,
    gl2z_similar,
    k_invariants,
    per_count_enumerate,
    per_count_trace,
    shift_equivalent,
    zeta_sft,
)
from lattes_sft import intlinalg, sft
from lattes_sft.intlinalg import charpoly, identity, mat_mul
from oracles import (
    gl2z_similar_listing, random_unimodular, shift_equivalent_scan, shift_equivalent_unfiltered,
)

A_WORKED = SFTMatrix(((0, 1), (2, 0)))
B_WORKED = SFTMatrix(((0, 2), (1, 0)))


class TestSFTMatrix:
    def test_validation(self):
        with pytest.raises(DomainError):
            SFTMatrix(((0, -1), (1, 0)))
        with pytest.raises(DomainError):
            SFTMatrix(((1, 2),))
        with pytest.raises(DomainError):
            SFTMatrix(())

    def test_text_roundtrip(self):
        assert SFTMatrix.parse("0,1;2,0") == A_WORKED
        assert SFTMatrix.parse(str(A_WORKED)) == A_WORKED
        with pytest.raises(ParseError):
            SFTMatrix.parse("a,b;c,d")
        with pytest.raises(DomainError):
            SFTMatrix.parse("0,-1;1,0")


class TestPeriodicCounts:
    def test_examples(self):
        assert per_count_trace(A_WORKED, 2) == 4
        assert per_count_trace(SFTMatrix(((1,),)), 5) == 1
        assert per_count_trace(A_WORKED, 1) == 0
        assert per_count_enumerate(A_WORKED, 2) == 4
        assert per_count_enumerate(SFTMatrix(((2,),)), 2) == 4
        assert per_count_enumerate(SFTMatrix(((0, 1), (1, 0))), 1) == 0

    def test_trace_equals_enumeration_small(self):
        for entries in itertools.product(range(3), repeat=4):
            A = SFTMatrix((entries[:2], entries[2:]))
            for n in range(1, 5):
                assert per_count_trace(A, n) == per_count_enumerate(A, n)

    def test_budget_guard(self):
        big = SFTMatrix(((10, 10), (10, 10)))
        with pytest.raises(BudgetExceededError):
            per_count_enumerate(big, 6)

    def test_period_must_be_positive(self):
        with pytest.raises(DomainError):
            per_count_trace(A_WORKED, 0)
        with pytest.raises(DomainError):
            per_count_enumerate(A_WORKED, 0)


class TestZetaSft:
    def test_worked_matrix(self):
        z = zeta_sft(A_WORKED)
        assert str(z) == "1/(1-2t^2)"
        assert z.den == Poly((1, 0, -2))
        assert z.num == Poly.one()

    def test_zero_matrix(self):
        z = zeta_sft(SFTMatrix(((0, 0), (0, 0))))
        assert str(z) == "1"
        assert z.series(4) == [Fraction(1), 0, 0, 0, 0]

    def test_fibonacci_matrix(self):
        z = zeta_sft(SFTMatrix(((1, 1), (1, 0))))
        assert z.den == Poly((1, -1, -1))
        assert str(z) == "1/(1-t-t^2)"

    def test_two_by_two_closed_form(self):
        rng = random.Random(109)
        for _ in range(30):
            A = SFTMatrix(
                tuple(tuple(rng.randint(0, 6) for _ in range(2)) for _ in range(2))
            )
            tr = A.rows[0][0] + A.rows[1][1]
            det = A.rows[0][0] * A.rows[1][1] - A.rows[0][1] * A.rows[1][0]
            assert zeta_sft(A).den == Poly((1, -tr, det))

    def test_zeta_rational_normalization(self):
        z = ZetaRational(Poly((2,)), Poly((2, 2)))
        assert z.num == Poly.one() and z.den == Poly((1, 1))
        with pytest.raises(DomainError):
            ZetaRational(Poly.one(), Poly((0, 1)))

    def test_zeta_rational_cancels_a_common_factor(self):
        # (1 - t)/(1 - t^2) = 1/(1 + t)
        z = ZetaRational(Poly((1, -1)), Poly((1, 0, -1)))
        assert z.num == Poly.one() and z.den == Poly((1, 1))


class TestKInvariants:
    def test_worked_matrix_trivial(self):
        inv = k_invariants(A_WORKED)
        assert inv.K0.is_trivial
        assert inv.K1_rank == 0
        assert inv.bowen_franks.is_trivial

    def test_three_loop(self):
        inv = k_invariants(SFTMatrix(((3,),)))
        assert inv.K0 == AbelianGroupInvariant(0, (2,))
        assert str(inv.K0) == "Z/2"

    def test_identity(self):
        inv = k_invariants(SFTMatrix(((1, 0), (0, 1))))
        assert inv.K0 == AbelianGroupInvariant(2, ())
        assert inv.K1_rank == 2

    def test_similarity_invariance(self):
        rng = random.Random(113)
        for _ in range(25):
            A = tuple(tuple(rng.randint(0, 4) for _ in range(2)) for _ in range(2))
            T = random_unimodular(rng)
            Tinv_rows = _inverse_unimodular(T)
            conj = _mul(_mul(Tinv_rows, A), T.rows())
            assert k_invariants(A) == k_invariants(conj)

    def test_group_string_forms(self):
        assert str(AbelianGroupInvariant(0, ())) == "trivial"
        assert str(AbelianGroupInvariant(1, (2, 6))) == "Z x Z/2 x Z/6"
        with pytest.raises(DomainError):
            AbelianGroupInvariant(0, (3, 4))  # not a divisibility chain
        with pytest.raises(DomainError):
            AbelianGroupInvariant(0, (1,))


def _mul(X, Y):
    return tuple(
        tuple(sum(X[i][k] * Y[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def _inverse_unimodular(T: IntMatrix2):
    d = T.det()
    return ((T.d // d, -T.b // d), (-T.c // d, T.a // d))


def _spy_search(monkeypatch):
    """Lists that record each result of ``scaled_inverse`` and the arguments
    of each ``lattice_solutions`` call that the search makes."""
    inverses, solves = [], []
    real_inv, real_solve = sft.scaled_inverse, sft.lattice_solutions

    def inv_spy(R):
        inverses.append(real_inv(R))
        return inverses[-1]

    monkeypatch.setattr(sft, "scaled_inverse", inv_spy)
    monkeypatch.setattr(sft, "lattice_solutions", lambda *a: solves.append(a) or real_solve(*a))
    return inverses, solves


class TestShiftEquivalent:
    def test_certificate_build_rejects_lag_and_sign(self):
        with pytest.raises(DomainError, match="lag must be positive"):
            SECertificate.build(A_WORKED, A_WORKED, identity(2), A_WORKED.rows, 0)
        with pytest.raises(DomainError, match="non-negative"):
            SECertificate.build(A_WORKED, A_WORKED, ((-1, 0), (0, -1)), A_WORKED.rows, 1)

    def test_reflexivity_certificate(self):
        res = shift_equivalent(A_WORKED, A_WORKED)
        assert res.status == "equivalent"
        cert = res.certificate
        assert cert.k == 1
        assert cert.R == ((1, 0), (0, 1))
        assert cert.S == A_WORKED.rows
        assert cert.verify(A_WORKED, A_WORKED)

    def test_worked_pair(self):
        res = shift_equivalent(A_WORKED, B_WORKED)
        assert res.status == "equivalent"
        cert = res.certificate
        assert cert.k == 1
        assert cert.R == ((0, 1), (1, 0))
        assert cert.S == ((2, 0), (0, 1))
        assert cert.verify(A_WORKED, B_WORKED)

    def test_worked_pair_is_lexicographically_least(self):
        # brute-force all valid lag-1 certificates with entries <= 2
        best = None
        for flat_r in itertools.product(range(3), repeat=4):
            for flat_s in itertools.product(range(3), repeat=4):
                R = (flat_r[:2], flat_r[2:])
                S = (flat_s[:2], flat_s[2:])
                try:
                    SECertificate.build(A_WORKED, B_WORKED, R, S, 1)
                except DomainError:
                    continue
                key = (R, S)
                if best is None or key < best:
                    best = key
        got = shift_equivalent(A_WORKED, B_WORKED).certificate
        assert best == (got.R, got.S)

    def test_invariant_filter(self):
        res = shift_equivalent(SFTMatrix(((2,),)), SFTMatrix(((3,),)))
        assert res.status == "not_equivalent"
        assert "characteristic polynomial" in res.witness

    def test_bowen_franks_filter(self):
        # equal charpoly t^2 - 2t - 3 but Z/4 vs Z/2 x Z/2 quotients
        A = SFTMatrix(((0, 3), (1, 2)))
        B = SFTMatrix(((1, 2), (2, 1)))
        assert k_invariants(A).bowen_franks != k_invariants(B).bowen_franks
        res = shift_equivalent(A, B)
        assert res.status == "not_equivalent"
        assert "Bowen-Franks" in res.witness

    def test_nontrivial_equivalence(self):
        A = SFTMatrix(((1, 1), (1, 1)))
        B = SFTMatrix(((2, 0), (0, 0)))
        res = shift_equivalent(A, B)
        assert res.status == "equivalent"
        assert res.certificate.verify(A, B)

    def test_finds_certificates_for_elementary_equivalences(self):
        # A = R*S and B = S*R are always shift equivalent with lag 1,
        # witnessed by (R, S) itself; the search must certify every such pair
        rng = random.Random(139)
        found = 0
        while found < 25:
            R = tuple(tuple(rng.randint(0, 3) for _ in range(2)) for _ in range(2))
            S = tuple(tuple(rng.randint(0, 3) for _ in range(2)) for _ in range(2))
            A = _mul(R, S)
            B = _mul(S, R)
            if max(v for r in A + B for v in r) > 10:
                continue
            res = shift_equivalent(SFTMatrix(A), SFTMatrix(B))
            assert res.status == "equivalent"
            assert res.certificate.verify(SFTMatrix(A), SFTMatrix(B))
            found += 1

    def test_unknown_when_bounds_too_small(self):
        res = shift_equivalent(A_WORKED, B_WORKED, entry_bound=1, lag_bound=1)
        assert res.status == "unknown"

    def test_symmetric_status(self):
        pairs = [
            (A_WORKED, B_WORKED),
            (SFTMatrix(((2,),)), SFTMatrix(((3,),))),
            (SFTMatrix(((1, 1), (1, 1))), SFTMatrix(((2, 0), (0, 0)))),
        ]
        for A, B in pairs:
            assert shift_equivalent(A, B).status == shift_equivalent(B, A).status

    def test_random_reflexive(self):
        rng = random.Random(127)
        for _ in range(10):
            A = SFTMatrix(
                tuple(tuple(rng.randint(0, 5) for _ in range(2)) for _ in range(2))
            )
            res = shift_equivalent(A, A)
            assert res.status == "equivalent" and res.certificate.k == 1

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            shift_equivalent(SFTMatrix(((1,),)), A_WORKED)

    def test_roadmap_example_at_default_bounds(self):
        # the same certificate as at entry bound 2: raising the bound past the
        # least certificate must not lose it
        A = SFTMatrix.parse("1,0,0;0,1,0;0,0,2")
        B = SFTMatrix.parse("2,0,0;0,1,0;0,0,1")
        for bound in (2, 10):
            res = shift_equivalent(A, B, entry_bound=bound)
            assert res.status == "equivalent"
            cert = res.certificate
            assert (cert.R, cert.S, cert.k) == (
                ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
                ((0, 0, 2), (0, 1, 0), (1, 0, 0)),
                1,
            )

    def test_exhausts_bounds_past_the_invariants(self):
        # equal charpoly and Bowen-Franks group, but not similar over Q; every
        # (lag, R) in the bounds is searched and none has an S
        A = SFTMatrix.parse("2,0,0;0,2,0;0,0,3")
        B = SFTMatrix.parse("2,1,0;0,2,0;0,0,3")
        assert k_invariants(A).bowen_franks == k_invariants(B).bowen_franks
        res = shift_equivalent(A, B)
        assert res.status == "unknown"
        assert res.witness == "no certificate with entries <= 10 and lag <= 6"

    def test_singular_candidates_are_never_solved(self, monkeypatch):
        # A and B are not similar over Q, so every R with A R = R B is
        # singular, and as det A != 0 none is solved at any lag
        A = SFTMatrix.parse("2,0,0;0,2,0;0,0,3")
        B = SFTMatrix.parse("2,1,0;0,2,0;0,0,3")
        inverses, solves = _spy_search(monkeypatch)
        res = shift_equivalent(A, B)
        assert res.witness == "no certificate with entries <= 10 and lag <= 6"
        assert solves == []
        # each of the 11^3 R of the box is inverted once, not once per lag
        assert len(inverses) == 11**3
        assert set(inverses) == {None}

    def test_lattice_solves_only_singular_candidates(self, monkeypatch):
        inverted, solved = [], []
        real_inv, real_solve = sft.scaled_inverse, sft.lattice_solutions

        def solve_spy(basis, n, f, *rest):
            solved.append(f(identity(n))[:n])  # f(I) is R stacked on R
            return real_solve(basis, n, f, *rest)

        monkeypatch.setattr(sft, "scaled_inverse", lambda R: inverted.append(R) or real_inv(R))
        monkeypatch.setattr(sft, "lattice_solutions", solve_spy)
        rng = random.Random(239)
        seen = {True: 0, False: 0}
        for _ in range(300):
            A, B = _random_pair(rng)
            inverted.clear()
            solved.clear()
            shift_equivalent(A, B, 2, 2)
            if not inverted:  # decided before the search
                continue
            singular_a = charpoly(A.rows)[0] == 0
            seen[singular_a] += 1
            # every R read is inverted once, and only a singular R with a
            # singular A is solved
            assert len(set(inverted)) == len(inverted), (A, B)
            if not singular_a:
                assert solved == [], (A, B)
            for R in solved:
                assert R in inverted and sympy.Matrix(R).det() == 0, (A, B, R)
        assert min(seen.values()) >= 20, seen

    def test_singular_a_inverts_nonsingular_candidates(self, monkeypatch):
        # det A = 0, yet a nonsingular R has the one S = R^-1 A^k: of the 67
        # R read up to the certificate only the 11 singular ones are solved
        A = SFTMatrix.parse("1,1,0;1,1,0;0,1,2")
        B = SFTMatrix.parse("1,0,1;0,2,1;1,0,1")
        assert charpoly(A.rows)[0] == 0
        inverses, solves = _spy_search(monkeypatch)
        res = shift_equivalent(A, B)
        cert = res.certificate
        assert (cert.R, cert.S, cert.k) == (
            ((1, 0, 0), (0, 0, 1), (0, 1, 0)),
            ((1, 1, 0), (0, 1, 2), (1, 1, 0)),
            1,
        )
        assert len(inverses) == 67
        assert len(solves) == inverses.count(None) == 11
        # the same result as the search that solves all 67
        assert res == shift_equivalent_unfiltered(A, B)

    def test_search_budget_counts_system_entries(self, monkeypatch):
        A = SFTMatrix.parse("2,0,0;0,2,0;0,0,3")
        B = SFTMatrix.parse("2,1,0;0,2,0;0,0,3")
        assert sft.SEARCH_BUDGET == 5 * 10**6
        # every (lag, R) is charged first, and an R read at lag 1 is then
        # inverted once, so the R inverted are the lag-1 charges that stayed
        # within the budget; the 11^3 R of lag 1 are not inverted again
        inverted = []
        real_inv = sft.scaled_inverse
        monkeypatch.setattr(sft, "scaled_inverse", lambda R: inverted.append(R) or real_inv(R))
        # a 3-dimensional lattice of S: 18 equations in 4 unknowns per (lag, R)
        for budget, charges in ((5 * 72 + 71, 5), (6 * 72, 6), ((11**3 + 5) * 72, 11**3)):
            inverted.clear()
            monkeypatch.setattr(sft, "SEARCH_BUDGET", budget)
            res = shift_equivalent(A, B)
            assert res.status == "unknown"
            assert res.witness == "search budget exceeded before exhausting bounds"
            assert len(inverted) == charges

    def test_sylvester_budget_before_any_elimination(self, monkeypatch):
        A = SFTMatrix.parse("1,1;1,0")
        B = SFTMatrix.parse("0,1;1,1")
        assert sft.SYLVESTER_BUDGET == 5 * 10**13
        # n = 2, b = 1: the Sylvester systems have size n^12 b^2 = 4096
        monkeypatch.setattr(sft, "SYLVESTER_BUDGET", 4096)
        assert shift_equivalent(A, B).status == "equivalent"
        monkeypatch.setattr(sft, "SYLVESTER_BUDGET", 4095)
        eliminated = []
        monkeypatch.setattr(sft, "sylvester_basis", lambda *a: eliminated.append(a))
        with pytest.raises(BudgetExceededError, match="SYLVESTER_BUDGET = 4095"):
            shift_equivalent(A, B)
        assert eliminated == []
        # the pre-filters still give exact negatives
        monkeypatch.setattr(sft, "SYLVESTER_BUDGET", 0)
        res = shift_equivalent(A, SFTMatrix.parse("1,1;1,1"))
        assert res.status == "not_equivalent"

    def test_box_point_budget_is_the_search_budget_witness(self, monkeypatch):
        # 11^5 R candidates at entry bound 10, 3^5 at entry bound 2
        A = SFTMatrix.parse("1,0,0;0,1,0;0,0,2")
        B = SFTMatrix.parse("2,0,0;0,1,0;0,0,1")
        monkeypatch.setattr(intlinalg, "BOX_POINT_BUDGET", 1000)
        res = shift_equivalent(A, B)
        assert res.status == "unknown"
        assert res.witness == "search budget exceeded before exhausting bounds"
        assert shift_equivalent(A, B, entry_bound=2).status == "equivalent"

    def test_r_candidates_are_read_as_far_as_the_search_goes(self, monkeypatch):
        # the least certificate uses the 1,454th of the 11^5 R at entry bound 10
        A = SFTMatrix.parse("1,0,0;0,1,0;0,0,2")
        B = SFTMatrix.parse("2,0,0;0,1,0;0,0,1")
        least = shift_equivalent(A, B).certificate
        read = []
        real = sft.lattice_points_in_box

        def spy(*args, **kwargs):
            for v in real(*args, **kwargs):
                read.append(v)
                yield v

        monkeypatch.setattr(sft, "lattice_points_in_box", spy)
        assert shift_equivalent(A, B).certificate == least
        assert len(read) == 1454
        assert read[-1] == tuple(v for row in least.R for v in row)
        # BOX_POINT_BUDGET counts the R the search reads, not the box
        monkeypatch.setattr(intlinalg, "BOX_POINT_BUDGET", 1453)
        res = shift_equivalent(A, B)
        assert res.status == "unknown"
        assert res.witness == "search budget exceeded before exhausting bounds"
        monkeypatch.setattr(intlinalg, "BOX_POINT_BUDGET", 1454)
        assert shift_equivalent(A, B).certificate == least

    def test_certificate_build_rejects_junk(self):
        with pytest.raises(DomainError):
            SECertificate.build(
                A_WORKED, B_WORKED, ((1, 0), (0, 1)), ((1, 0), (0, 1)), 1
            )


class TestGl2zSimilar:
    def test_reflexive(self):
        A = IntMatrix2(0, 1, 2, 0)
        res = gl2z_similar(A, A)
        assert res.status == "similar" and res.T == IntMatrix2.identity()

    def test_worked_pair(self):
        res = gl2z_similar(IntMatrix2(0, 1, 2, 0), IntMatrix2(0, 2, 1, 0))
        assert res.status == "similar"
        assert res.T == IntMatrix2(0, 1, 1, 0)

    def test_conjugation_identity_holds(self):
        A = IntMatrix2(0, 1, 2, 0)
        B = IntMatrix2(0, 2, 1, 0)
        T = gl2z_similar(A, B).T
        assert A * T == T * B
        assert abs(T.det()) == 1

    def test_scalar_vs_jordan(self):
        res = gl2z_similar(IntMatrix2(2, 0, 0, 2), IntMatrix2(2, 1, 0, 2))
        assert res.status == "not_similar"
        assert "Smith" in res.witness

    def test_charpoly_filter(self):
        res = gl2z_similar(IntMatrix2(2, 0, 0, 2), IntMatrix2(3, 0, 0, 3))
        assert res.status == "not_similar"
        assert "characteristic" in res.witness

    def test_random_conjugates_detected(self):
        rng = random.Random(131)
        for _ in range(15):
            A = IntMatrix2(*(rng.randint(-3, 3) for _ in range(4)))
            T = random_unimodular(rng, size_cap=6)
            d = T.det()
            Tinv = IntMatrix2(T.d // d, -T.b // d, -T.c // d, T.a // d)
            B = Tinv * A * T
            res = gl2z_similar(A, B, bound=8)
            assert res.status == "similar"
            got = res.T
            assert A * got == got * B and abs(got.det()) == 1

    def test_unknown_when_bound_tiny(self):
        # conjugate by a large shear so that every conjugator is out of range
        A = IntMatrix2(0, 1, 2, 0)
        T = IntMatrix2(1, 7, 0, 1)
        Tinv = IntMatrix2(1, -7, 0, 1)
        B = Tinv * A * T
        res = gl2z_similar(A, B, bound=2)
        assert res.status in ("unknown", "similar")
        res_big = gl2z_similar(A, B, bound=20)
        assert res_big.status == "similar"

    def test_matches_listing_oracle(self):
        # the first unimodular T in signed order is the least of the listing
        rng = random.Random(139)
        seen = set()
        for i in range(60):
            if i % 3 == 0:  # GL2(Z)-conjugate
                A = IntMatrix2(*(rng.randint(-4, 4) for _ in range(4)))
                T = random_unimodular(rng, size_cap=5)
                d = T.det()
                B = IntMatrix2(T.d // d, -T.b // d, -T.c // d, T.a // d) * A * T
            elif i % 3 == 1:  # almost always charpoly-separated
                A, B = (IntMatrix2(*(rng.randint(-4, 4) for _ in range(4))) for _ in range(2))
            else:  # reducible, with the same eigenvalues
                l1, l2 = rng.randint(-3, 3), rng.randint(-3, 3)
                A = IntMatrix2(l1, rng.randint(-4, 4), 0, l2)
                B = IntMatrix2(l2, 0, rng.randint(-4, 4), l1)
            for bound in range(1, 11):
                res = gl2z_similar(A, B, bound)
                assert res == gl2z_similar_listing(A, B, bound), (A, B, bound)
                seen.add(res.status)
        assert seen == {"similar", "not_similar", "unknown"}


def _random_pair(rng: random.Random):
    """A permutation-conjugate pair, an elementary pair (R S, S R) or two
    random matrices, 2x2 or 3x3."""
    n = rng.choice((2, 3))

    def rand(hi):
        return tuple(tuple(rng.randint(0, hi) for _ in range(n)) for _ in range(n))

    kind = rng.randrange(3)
    if kind == 0:
        A = rand(3)
        p = list(range(n))
        rng.shuffle(p)
        B = tuple(tuple(A[p[i]][p[j]] for j in range(n)) for i in range(n))
    elif kind == 1:
        R, S = rand(2), rand(2)
        A, B = mat_mul(R, S), mat_mul(S, R)
    else:
        A, B = rand(3), rand(3)
    return SFTMatrix(A), SFTMatrix(B)


BUDGET_WITNESS = "search budget exceeded before exhausting bounds"


def test_matches_two_path_scan():
    # the one lattice solve per (lag, R) against the reference that solves
    # a nonsingular R in Fractions and scans every S for a singular one
    rng = random.Random(211)
    compared = 0
    for _ in range(150):
        A, B = _random_pair(rng)
        for bounds in ((2, 2), (3, 2), (4, 3)):
            ref = shift_equivalent_scan(A, B, *bounds)
            if ref.witness == BUDGET_WITNESS:
                continue
            assert shift_equivalent(A, B, *bounds) == ref, (A, B, bounds)
            compared += 1
    assert compared >= 400


def test_determinant_filter_matches_unfiltered_search(monkeypatch):
    # the same SEResult as the search that solves every (lag, R), singular A
    # included, and the same budget witness under small search budgets

    # the least certificate is at lag 2, with det R = 9 dividing 6^2, not 6
    A, B = SFTMatrix.parse("0,3;2,1"), SFTMatrix.parse("1,3;2,0")
    res = shift_equivalent(A, B, 4, 3)
    assert res == shift_equivalent_unfiltered(A, B, 4, 3)
    assert res.certificate.k == 2
    rng = random.Random(229)
    singular = stopped = 0
    for i in range(600):
        A, B = _random_pair(rng)
        bounds = (rng.randint(1, 3), rng.randint(1, 3))
        budget = 5 * 10**6 if i % 3 else rng.randint(0, 300)
        monkeypatch.setattr(sft, "SEARCH_BUDGET", budget)
        ref = shift_equivalent_unfiltered(A, B, *bounds, budget=budget)
        assert shift_equivalent(A, B, *bounds) == ref, (A, B, bounds, budget)
        singular += charpoly(A.rows)[0] == 0
        stopped += ref.witness == BUDGET_WITNESS
    assert singular >= 100 and stopped >= 30


def test_s_lattice_is_built_only_for_singular_a(monkeypatch):
    # with det A != 0 each S comes from R^-1, so {B S = S A} is not needed
    built = []
    real = sft.sylvester_basis
    monkeypatch.setattr(sft, "sylvester_basis", lambda X, Y: built.append((X, Y)) or real(X, Y))
    rng = random.Random(233)
    seen = {True: 0, False: 0}
    for _ in range(300):
        A, B = _random_pair(rng)
        built.clear()
        shift_equivalent(A, B, 2, 2)
        if not built:  # decided by A = B or by a pre-filter
            continue
        singular = charpoly(A.rows)[0] == 0
        assert built[0] == (A.rows, B.rows)
        assert ((B.rows, A.rows) in built) == singular, (A, B)
        seen[singular] += 1
    assert min(seen.values()) >= 20, seen


def test_verdict_monotone_in_bounds():
    # raising either bound keeps every certificate in the search, and the
    # search is exhaustive below its budget
    rng = random.Random(223)
    checked = 0
    for _ in range(100):
        A, B = _random_pair(rng)
        b, lag = rng.randint(1, 3), rng.randint(1, 2)
        small = shift_equivalent(A, B, b, lag)
        if small.status != "equivalent":
            continue
        checked += 1
        for bounds in ((b + 1, lag), (b, lag + 1), (b + 2, lag + 1)):
            large = shift_equivalent(A, B, *bounds)
            if large.witness != BUDGET_WITNESS:
                assert large.status == "equivalent", (A, B, bounds)
                assert large.certificate.k <= small.certificate.k
    assert checked >= 30
