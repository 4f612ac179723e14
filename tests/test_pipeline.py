import dataclasses
import json
import random
import warnings
from fractions import Fraction

import pytest

from lattes_sft import (
    BudgetExceededError,
    ContinuedFraction,
    DomainError,
    EllipticCurve,
    IntMatrix2,
    Poly,
    QuadElem,
    QuadSurd,
    SFTMatrix,
    ZetaRational,
    apply_functor,
    companion_matrix,
    comparison_report,
    conjugacy_test,
    duplication_map,
    functor_invariants,
    k_invariants,
    per_count_enumerate,
    per_count_trace,
    period_matrix,
    scale_lattice,
    zeta_sft,
)
from lattes_sft import cli, dynsys, pipeline
from lattes_sft.lattice import PseudoLattice
from oracles import expand_seen, period_matrix_fold

SQRT2 = QuadElem(0, 1, 2)
CURVE = EllipticCurve(4, 2, 0, cm_D=2)


class TestFunctor:
    def test_worked_example_complete(self):
        out = apply_functor(CURVE, SQRT2)
        assert out.D == 2
        assert out.A == IntMatrix2(0, 1, 2, 0)
        assert out.theta_prime == QuadSurd(0, 2, 2)
        assert out.cf == ContinuedFraction((0, 1), (2,))
        assert out.T == IntMatrix2(2, 1, 1, 0)
        assert out.zeta == ZetaRational(Poly.one(), Poly((1, 0, -2)))
        assert out.K0.is_trivial

    def test_rational_epsilon_rejected(self):
        with pytest.raises(DomainError, match="irrational"):
            apply_functor(CURVE, QuadElem(2, 0, 2))

    def test_sqrt5(self):
        out = functor_invariants(5, QuadElem(0, 1, 5))
        assert out.A == IntMatrix2(0, 1, 5, 0)
        assert out.theta_prime == QuadSurd(0, 5, 5)
        assert out.cf == ContinuedFraction((0, 2), (4,))
        assert out.T == IntMatrix2(4, 1, 1, 0)
        assert out.zeta.den == Poly((1, 0, -5))

    def test_fundamental_unit(self):
        # eps = 1 + sqrt(2): norm -1, so eps*L = L and theta' = sqrt(2)
        out = functor_invariants(2, QuadElem(1, 1, 2))
        assert out.A == IntMatrix2(0, 1, 1, 2)
        assert out.theta_prime == QuadSurd(0, 1, 2)
        assert out.cf == ContinuedFraction((0,), (2,))  # frac(sqrt(2))
        assert out.T == IntMatrix2(2, 1, 1, 0)
        assert out.zeta.den == Poly((1, -2, -1))
        assert out.K0 == k_invariants(SFTMatrix(((0, 1), (1, 2)))).K0
        assert str(out.K0) == "Z/2"
        assert scale_lattice(PseudoLattice.from_sqrt(2), QuadElem(1, 1, 2)).index == 1

    def test_curve_needs_annotation(self):
        with pytest.raises(DomainError, match="CM"):
            apply_functor(EllipticCurve(4, 2, 0), SQRT2)

    @pytest.mark.parametrize("D", [1, 0, -4])
    def test_D_at_most_1_rejected(self, D):
        with pytest.raises(DomainError, match="D must be an integer > 1"):
            functor_invariants(D, SQRT2)
        with pytest.raises(DomainError, match="D must be an integer > 1"):
            comparison_report(EllipticCurve(4, 2, 0, cm_D=D), SQRT2, 1)

    def test_field_mismatch(self):
        with pytest.raises(DomainError):
            functor_invariants(3, SQRT2)

    def test_non_squarefree_d_needs_compatible_epsilon(self):
        # Z + Z*sqrt(8) = Z + Z*2*sqrt(2) is not stable under sqrt(2)
        with pytest.raises(DomainError, match="endomorphism"):
            functor_invariants(8, SQRT2)
        # but rescaling by 1 + sqrt(8)/... an element that stabilizes it works:
        out = functor_invariants(8, QuadElem(0, 2, 2))  # multiplication by sqrt(8)
        assert out.A == companion_matrix(QuadElem(0, 2, 2))

    def test_negative_companion_entries_rejected(self):
        # norm(3 + sqrt(2)) = 7 > 0 makes the companion matrix non-SFT
        with pytest.raises(DomainError, match="negative"):
            functor_invariants(2, QuadElem(3, 1, 2))

    def test_internal_consistency(self):
        rng = random.Random(137)
        for _ in range(20):
            D = rng.choice([2, 3, 5, 7, 13])
            a = rng.randint(-4, 0)
            b = rng.choice([1, 2, 3])
            eps = QuadElem(a, b, D)
            if -int(eps.norm()) < 0 or int(eps.trace()) < 0:
                continue
            out = functor_invariants(D, eps)
            assert out.A == companion_matrix(eps)
            assert out.A.trace() == eps.trace()
            assert out.A.det() == eps.norm()
            assert out.T == period_matrix(out.cf)
            assert out.T.det() in (1, -1)
            assert out.zeta == zeta_sft(SFTMatrix.from_intmatrix2(out.A))
            assert out.zeta.den == Poly(
                (1, -out.A.trace(), out.A.det())
            )

    def test_index_functoriality(self):
        L = PseudoLattice.from_sqrt(2)
        eps = QuadElem(1, 1, 2)
        once = scale_lattice(L, eps).index
        twice = scale_lattice(L, eps * eps).index
        assert twice == once * once

    def test_long_period_matches_references(self):
        # an input of the benchmark's longest period band (L = 13340)
        D = 600000239
        out = functor_invariants(D, QuadElem(51708, 3, D))
        x = out.theta_prime.translate(-out.theta_prime.floor())
        assert (out.cf.preperiod, out.cf.period) == expand_seen(x.P, x.Q, x.D)
        assert len(out.cf.period) == 13340
        assert out.T.entries() == period_matrix_fold(out.cf.period)

    @pytest.mark.parametrize(
        "perturb, message",
        [
            (lambda T: IntMatrix2(T.a + 1, T.b, T.c, T.d), "determinant"),
            # same determinant, but no longer fixes the tail
            (lambda T: T * IntMatrix2(1, 1, 0, 1), "fix"),
            (lambda T: IntMatrix2(T.a, T.c, T.b, T.d), "fix"),  # transpose
        ],
    )
    def test_period_matrix_checked(self, monkeypatch, perturb, message):
        from lattes_sft import pipeline

        monkeypatch.setattr(pipeline, "period_matrix", lambda cf: perturb(period_matrix(cf)))
        with pytest.raises(ArithmeticError, match=message):
            functor_invariants(7, QuadElem(2, 1, 7))

    def test_json_field_names(self):
        doc = json.loads(cli.to_json(apply_functor(CURVE, SQRT2)))
        assert list(doc) == [
            "D", "epsilon", "A", "theta_prime", "cf", "T", "zeta", "K0",
        ]

    def test_chains_factor_nothing(self, monkeypatch):
        # eps.D is square-free, so D lies in its field exactly when D / eps.D
        # is a square; square_part only words a field-mismatch error.  Each
        # eps is built before the patch, since QuadElem checks its own D.
        import sys

        from lattes_sft.cfrac import square_part

        cases = [(2, SQRT2), (8, QuadElem(1, 2, 2)), (45, QuadElem(2, 3, 5))]

        def refuse(n):
            raise AssertionError(f"square_part({n}) called")

        patched = 0
        for name, module in list(sys.modules.items()):
            if name == "lattes_sft" or name.startswith("lattes_sft."):
                for key, value in list(vars(module).items()):
                    if value is square_part:
                        monkeypatch.setattr(module, key, refuse)
                        patched += 1
        assert patched >= 3
        for D, eps in cases:
            functor_invariants(D, eps)
        assert [r.distinct_count for r in comparison_report(CURVE, SQRT2, 2)] == [5, 17]


class TestConjugacyTest:
    def test_identical(self):
        out = apply_functor(CURVE, SQRT2)
        verdict = conjugacy_test(out, out)
        assert verdict.shift_equivalence.status == "equivalent"
        assert verdict.shift_equivalence.certificate.k == 1
        assert verdict.gl2_similarity.status == "similar"

    def test_different_fields(self):
        out2 = functor_invariants(2, SQRT2)
        out5 = functor_invariants(5, QuadElem(0, 1, 5))
        verdict = conjugacy_test(out2, out5)
        assert verdict.shift_equivalence.status == "not_equivalent"
        assert verdict.gl2_similarity.status == "not_similar"

    def test_symmetry_of_status(self):
        out2 = functor_invariants(2, SQRT2)
        out5 = functor_invariants(5, QuadElem(0, 1, 5))
        for a, b in ((out2, out5), (out2, out2)):
            assert (
                conjugacy_test(a, b).shift_equivalence.status
                == conjugacy_test(b, a).shift_equivalence.status
            )

    def test_json_encoding(self):
        out = apply_functor(CURVE, SQRT2)
        doc = json.loads(cli.to_json(conjugacy_test(out, out)))
        assert doc["shift_equivalence"] == {
            "status": "equivalent",
            "certificate": {"R": [[1, 0], [0, 1]], "S": [[0, 1], [2, 0]], "k": 1},
        }
        assert list(doc["gl2_similarity"]) == ["status", "T"]
        assert json.loads(cli.to_json(k_invariants(SFTMatrix(((0, 1), (5, 0)))))) == {
            "K0": {"rank": 0, "torsion": [4]},
            "K1_rank": 0,
            "bowen_franks": {"rank": 0, "torsion": [4]},
        }

    def test_conjugated_matrix_is_equivalent(self):
        import dataclasses

        out = functor_invariants(2, SQRT2)
        swapped = dataclasses.replace(out, A=IntMatrix2(0, 2, 1, 0))
        verdict = conjugacy_test(out, swapped)
        assert verdict.shift_equivalence.status == "equivalent"
        assert verdict.gl2_similarity.status == "similar"


class TestComparisonReport:
    def test_worked_example_table(self):
        rows = comparison_report(CURVE, SQRT2, 3)
        assert json.loads(cli.to_json(rows)) == [
            {"n": 1, "trace_count": 0, "distinct_count": 5, "multiplicity_count": 5},
            {"n": 2, "trace_count": 4, "distinct_count": 17, "multiplicity_count": 17},
            {"n": 3, "trace_count": 0, "distinct_count": 65, "multiplicity_count": 65},
        ]

    def test_counts_disagree_and_are_reported_not_asserted(self):
        # the documented discrepancy: tr(A) = 0 while the map fixes infinity
        rows = comparison_report(CURVE, SQRT2, 1)
        assert rows[0].trace_count == 0
        assert rows[0].distinct_count == 5

    def test_multiplicity_rows(self):
        rows = comparison_report(CURVE, SQRT2, 2)
        assert [r.multiplicity_count for r in rows] == [5, 17]

    def test_trace_column_matches_enumeration(self):
        A = SFTMatrix.from_intmatrix2(companion_matrix(SQRT2))
        rows = comparison_report(CURVE, SQRT2, 2)
        for r in rows:
            assert r.trace_count == per_count_enumerate(A, r.n)

    def test_counts_need_no_root_finding(self, monkeypatch):
        def no_roots(*args, **kwargs):
            raise AssertionError("comparison_report located roots")

        monkeypatch.setattr("lattes_sft.dynsys.aberth_roots", no_roots)
        rows = comparison_report(CURVE, SQRT2, 3)
        assert [(r.trace_count, r.distinct_count) for r in rows] == [
            (0, 5), (4, 17), (0, 65)
        ]

    def test_worked_example_period_four(self):
        rows = comparison_report(CURVE, SQRT2, 4)
        assert rows[-1].distinct_count == rows[-1].multiplicity_count == 257
        # Lucas recurrence s_n = Tr s_{n-1} - N s_{n-2} for tr(A^n)
        tr, nm = 0, -2
        s = [2, tr]
        for _ in range(3):
            s.append(tr * s[-1] - nm * s[-2])
        assert [r.trace_count for r in rows] == s[1:]

    def test_large_coefficient_curve(self):
        # j = -32768, D = 11: root location on this model needs guard bits
        # at n = 3, and the counts must not depend on it
        E = EllipticCurve(-4, -112, 656, cm_D=11)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = comparison_report(E, QuadElem(0, 1, 11), 3)
        assert [r.distinct_count for r in rows] == [5, 17, 65]
        assert [r.trace_count for r in rows] == [0, 22, 0]

    @pytest.mark.parametrize("twist", (1, -1, 2))
    @pytest.mark.parametrize("D, curve", ((3, (0, 0, 1)), (2, (4, 2, 0)), (7, (-3, -32, -64))))
    def test_one_iterate_chain(self, monkeypatch, D, curve, twist):
        # the CM classes and their twists (a d, b d^2, c d^3): phi^n is
        # composed once per n > 1, and its fixed points give the same rows as
        # the period-n points of phi
        a, b, c = curve
        E = EllipticCurve(a * twist, b * twist**2, c * twist**3, cm_D=D)
        eps = QuadElem(0, 1, D)
        compose = dynsys.compose
        calls = []

        def counted(f, g):
            calls.append(g)
            return compose(f, g)

        monkeypatch.setattr(dynsys, "compose", counted)
        phi = duplication_map(E)
        A = SFTMatrix.from_intmatrix2(companion_matrix(eps))
        for n_max in range(1, 5):
            calls.clear()
            rows = comparison_report(E, eps, n_max)
            assert len(calls) == n_max - 1
            expected = []
            for n in range(1, n_max + 1):
                count = dynsys.periodic_count(phi, n)
                expected.append(
                    pipeline.ComparisonRow(
                        n=n,
                        trace_count=per_count_trace(A, n),
                        distinct_count=count.count_distinct,
                        multiplicity_count=count.count_with_multiplicity,
                    )
                )
            assert rows == expected

    def test_closed_form_count_checked(self, monkeypatch):
        from lattes_sft import dynsys, pipeline

        def one_short(phi, n):
            count = dynsys.periodic_count(phi, n)
            return dataclasses.replace(count, count_distinct=count.count_distinct - 1)

        monkeypatch.setattr(pipeline, "periodic_count", one_short)
        with pytest.raises(ArithmeticError, match="closed-form"):
            comparison_report(CURVE, SQRT2, 1)

    def test_bezout_count_checked(self, monkeypatch):
        from lattes_sft import dynsys

        iterate = dynsys.iterate
        monkeypatch.setattr(dynsys, "iterate", lambda f, n: iterate(f, n + 1))
        with pytest.raises(ArithmeticError, match="Bezout"):
            comparison_report(CURVE, SQRT2, 1)

    def test_guard(self, monkeypatch):
        def no_compose(f, g):
            raise AssertionError("composed past the budget")

        monkeypatch.setattr(dynsys, "compose", no_compose)
        with pytest.raises(BudgetExceededError, match="ITERATE_DEGREE_BUDGET = 1024"):
            comparison_report(CURVE, SQRT2, 6)
        assert issubclass(BudgetExceededError, DomainError)
        with pytest.raises(DomainError):
            comparison_report(CURVE, SQRT2, 0)
        # the field is checked before the iterate budget
        with pytest.raises(DomainError, match=r"epsilon lies in Q\(sqrt\(3\)\)"):
            comparison_report(CURVE, QuadElem(0, 1, 3), 6)

    def test_period_five(self):
        rows = comparison_report(CURVE, SQRT2, 5)
        assert [(r.n, r.trace_count, r.distinct_count, r.multiplicity_count) for r in rows] == [
            (1, 0, 5, 5), (2, 4, 17, 17), (3, 0, 65, 65), (4, 8, 257, 257), (5, 0, 1025, 1025)
        ]

    def test_enumeration_budget_is_named(self):
        # the companion matrix of 8 sqrt(2) has 129 edges, and 129^4 > 10^7
        with pytest.raises(BudgetExceededError, match="ENUMERATION_BUDGET = 10000000"):
            comparison_report(CURVE, QuadElem(0, 8, 2), 4)
