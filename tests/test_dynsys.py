import decimal
import json
import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import mp

from lattes_sft import (
    BudgetExceededError,
    DomainError,
    EllipticCurve,
    IntMatrix2,
    Poly,
    RationalMap,
    SFTMatrix,
    aberth_roots,
    compose,
    conjugate,
    duplication_map,
    iterate,
    periodic_count,
    periodic_points,
    zeta_from_counts,
    zeta_sft,
)
from lattes_sft import cli, dynsys
from lattes_sft.exactnum import _prs_gcd
from lattes_sft.intlinalg import poly_mul
from reference import (
    aberth_roots_mp,
    compose_fraction,
    compose_poly_mul,
    float_sweeps_unfrozen,
    poly_mp,
    roots_mpc,
)


def P(*coeffs):
    return Poly(tuple(Fraction(c) for c in coeffs))


Z2 = RationalMap(P(0, 0, 1), P(1))  # z^2
INV = RationalMap(P(1), P(0, 1))  # 1/z
IDENT = RationalMap(P(0, 1), P(1))  # z


class TestCompose:
    def test_squares(self):
        assert compose(Z2, Z2) == RationalMap(P(0, 0, 0, 0, 1), P(1))

    def test_identity_neutral(self):
        phi = RationalMap(P(1, 0, 2), P(0, 3, 1))
        assert compose(phi, IDENT) == phi
        assert compose(IDENT, phi) == phi

    def test_involution(self):
        assert compose(INV, INV) == IDENT

    def test_degree_multiplicative(self):
        rng = random.Random(89)
        for _ in range(20):
            f = _random_map(rng)
            g = _random_map(rng)
            assert compose(f, g).degree == f.degree * g.degree

    @pytest.mark.parametrize("twist", (1, -1, 2))
    @pytest.mark.parametrize("curve", ((0, 0, 1), (4, 2, 0), (-3, -32, -64)))
    def test_doubling_iterates_match_fraction_route(self, curve, twist):
        # the CM classes j = 0, 8000, -3375 and their twists (a d, b d^2, c d^3)
        a, b, c = curve
        phi = duplication_map(EllipticCurve(a * twist, b * twist**2, c * twist**3))
        out = phi
        for _ in range(3):
            step = compose(phi, out)
            assert step == compose_fraction(phi, out)
            out = step

    def test_conjugated_maps_match_fraction_route(self):
        # conjugating gives non-monic maps with negative leading coefficients
        rng = random.Random(113)
        for k in range(20):
            phi = IDENT
            while phi.degree != 2 + k % 2:
                phi = conjugate(_random_map(rng, max_deg=3), _random_mobius(rng))
            out = phi
            for _ in range(2):
                step = compose(phi, out)
                assert step == compose_fraction(phi, out)
                out = step

    @settings(max_examples=12, deadline=None)
    @given(
        num=st.lists(st.integers(-5, 5), min_size=1, max_size=5),
        den=st.lists(st.integers(-5, 5), min_size=1, max_size=5),
        mobius=st.none() | st.tuples(*[st.integers(-3, 3)] * 4),
    )
    def test_compose_takes_no_gcd(self, num, den, mobius):
        # compose builds f o g without a gcd, as the composition of two maps
        # in lowest terms is in lowest terms; the oracle reduces through the
        # public constructor's gcd.  Conjugates are non-monic, with negative
        # leading coefficients.  The PRS gcd, with no mod-p certificate, is a
        # third route, run up to degree 64, past which it takes seconds.
        try:
            phi = RationalMap(P(*num), P(*den))
        except DomainError:
            assume(False)
        assume(2 <= phi.degree <= 4)
        if mobius is not None:
            M = IntMatrix2(*mobius)
            assume(M.det() != 0)
            phi = conjugate(phi, M)
        out = phi
        while out.degree * phi.degree <= 256:
            step = compose(phi, out)
            assert step == compose_fraction(phi, out)
            assert math.gcd(*step.num.ints, *step.den.ints) == 1
            assert step.den.ints[-1] > 0
            if step.degree <= 64:
                assert len(_prs_gcd(list(step.num.ints), list(step.den.ints))) == 1
            out = step


    @settings(max_examples=60, deadline=None)
    @given(
        maps=st.lists(
            st.lists(st.integers(-(2**64), 2**64), min_size=1, max_size=6),
            min_size=4,
            max_size=4,
        )
    )
    def test_compose_matches_poly_mul_route(self, maps):
        # mixed signs up to 2^64, num and den of unequal degree on either side
        try:
            f = RationalMap(P(*maps[0]), P(*maps[1]))
            g = RationalMap(P(*maps[2]), P(*maps[3]))
        except DomainError:
            assume(False)
        assert compose(f, g) == compose_poly_mul(f, g)

    def test_degree_1024_iterate_matches_poly_mul_route(self):
        phi = duplication_map(EllipticCurve(4, 2, 0))
        out = iterate(phi, 4)
        step = compose(phi, out)
        assert step.degree == 1024
        assert step == compose_poly_mul(phi, out)


def _random_map(rng, max_deg=2):
    while True:
        num = P(*(rng.randint(-3, 3) for _ in range(rng.randint(1, max_deg + 1))))
        den = P(*(rng.randint(-3, 3) for _ in range(rng.randint(1, max_deg + 1))))
        try:
            m = RationalMap(num, den)
        except DomainError:
            continue
        return m


class TestConjugate:
    def test_identity_mobius(self):
        phi = RationalMap(P(1, 0, 2), P(0, 3, 1))
        assert conjugate(phi, IntMatrix2.identity()) == phi

    def test_z2_by_inversion(self):
        assert conjugate(Z2, IntMatrix2(0, 1, 1, 0)) == Z2

    def test_degree_preserved(self):
        rng = random.Random(97)
        for _ in range(20):
            phi = _random_map(rng)
            f = _random_mobius(rng)
            assert conjugate(phi, f).degree == phi.degree

    def test_group_action(self):
        # the map of F * G is m_F o m_G
        rng = random.Random(101)
        for _ in range(15):
            phi = _random_map(rng)
            f = _random_mobius(rng)
            g = _random_mobius(rng)
            assert conjugate(conjugate(phi, f), g) == conjugate(phi, f * g)

    def test_scalar_multiple_is_same_map(self):
        rng = random.Random(107)
        for _ in range(15):
            phi = _random_map(rng)
            M = _random_mobius(rng)
            k = rng.choice([-3, -1, 2, 5])
            kM = IntMatrix2(*(k * v for v in M.entries()))
            assert conjugate(phi, kM) == conjugate(phi, M)


def _random_mobius(rng):
    while True:
        M = IntMatrix2(*(rng.randint(-3, 3) for _ in range(4)))
        if M.det() != 0:
            return M


class TestMobius:
    """A Moebius map is its integer matrix; conjugate builds the map and
    its inverse from it."""

    def test_invertibility_required(self):
        for M in (IntMatrix2(1, 2, 2, 4), IntMatrix2(0, 0, 0, 0), IntMatrix2(0, 1, 0, 3)):
            with pytest.raises(DomainError, match="ad - bc != 0"):
                conjugate(Z2, M)

    def test_inverse(self):
        # m^{-1} o id o m is the identity exactly when the adjugate inverts m
        rng = random.Random(109)
        for M in [IntMatrix2(1, 2, 3, 4)] + [_random_mobius(rng) for _ in range(20)]:
            assert conjugate(IDENT, M) == IDENT


class TestIterate:
    def test_degree_growth(self):
        for phi, d in ((Z2, 2), (RationalMap(P(1, 0, 0, 2), P(0, 1)), 3),
                       (duplication_map(EllipticCurve(4, 2, 0)), 4)):
            for n in (1, 2, 3):
                if d**n > 70:
                    continue
                assert iterate(phi, n).degree == d**n

    def test_needs_positive_count(self):
        with pytest.raises(DomainError):
            iterate(Z2, 0)

    def test_degree_budget(self, monkeypatch):
        assert dynsys.ITERATE_DEGREE_BUDGET == 4**5
        assert iterate(Z2, 10).degree == 4**5
        assert iterate(INV, 101) == INV

        def no_compose(f, g):
            raise AssertionError("composed past the budget")

        monkeypatch.setattr(dynsys, "compose", no_compose)
        for phi, n in ((Z2, 11), (duplication_map(EllipticCurve(4, 2, 0)), 6),
                       (Z2, 10**12)):
            with pytest.raises(BudgetExceededError, match="ITERATE_DEGREE_BUDGET = 1024"):
                iterate(phi, n)


class TestPrecisionBudget:
    def test_over_budget_refused_before_any_work(self, monkeypatch):
        assert dynsys.PRECISION_BUDGET == 4096

        def no_start(coeffs, deg):
            raise AssertionError("located roots past the budget")

        monkeypatch.setattr(dynsys, "_initial_points", no_start)
        with pytest.raises(BudgetExceededError, match="PRECISION_BUDGET = 4096"):
            aberth_roots(P(-2, 0, 1), 4097)

    def test_periodic_points_refuses_before_counting(self, monkeypatch):
        def no_count(phi, n):
            raise AssertionError("counted past the budget")

        monkeypatch.setattr(dynsys, "periodic_count", no_count)
        phi = duplication_map(EllipticCurve(4, 2, 0))
        with pytest.raises(BudgetExceededError, match="PRECISION_BUDGET = 4096"):
            periodic_points(phi, 5, precision=5000)

    def test_below_floor_refused(self):
        # at 0 bits the zero rule read both fixed points 0 and 1 of z^2 as 0,
        # and at -100 bits decimal refused the context
        assert dynsys.PRECISION_FLOOR == 64
        with pytest.raises(DomainError, match="below PRECISION_FLOOR = 64"):
            periodic_points(Z2, 1, precision=0)
        with pytest.raises(DomainError, match="below PRECISION_FLOOR = 64"):
            aberth_roots(P(-2, 0, 1), precision=-100)
        assert periodic_points(Z2, 1, precision=64).finite_points == (0j, 1 + 0j)

    def test_at_budget_runs(self):
        phi = duplication_map(EllipticCurve(4, 2, 0))
        rep = periodic_points(phi, 1, precision=dynsys.PRECISION_BUDGET)
        assert rep.count_distinct == 5 and len(rep.finite_points) == 4


class TestRootDegreeBudget:
    def test_refused_before_counting(self, monkeypatch):
        assert dynsys.ROOT_DEGREE_BUDGET == 4**3

        def no_count(phi, n):
            raise AssertionError("counted past the budget")

        monkeypatch.setattr(dynsys, "periodic_count", no_count)
        for phi, n in ((duplication_map(EllipticCurve(4, 2, 0)), 4),
                       (duplication_map(EllipticCurve(4, 2, 0)), 5), (Z2, 7)):
            with pytest.raises(BudgetExceededError, match="ROOT_DEGREE_BUDGET = 64"):
                periodic_points(phi, n)
        # the iterate budget is checked first, with its own message
        with pytest.raises(BudgetExceededError, match="ITERATE_DEGREE_BUDGET = 1024"):
            periodic_points(Z2, 10**12)

    def test_at_budget_runs(self):
        rep = periodic_points(Z2, 6)
        assert rep.count_distinct == 2**6 + 1 and len(rep.finite_points) == 2**6


class TestPeriodicPoints:
    def test_z2_fixed_points(self):
        rep = periodic_points(Z2, 1)
        assert rep.count_with_multiplicity == 3
        assert rep.count_distinct == 3
        assert rep.infinity_fixed
        assert sorted(round(z.real) for z in rep.finite_points) == [0, 1]
        assert all(abs(z.imag) < 1e-25 for z in rep.finite_points)

    def test_z2_period_two(self):
        rep = periodic_points(Z2, 2)
        assert rep.count_with_multiplicity == 5
        assert rep.count_distinct == 5
        assert rep.infinity_fixed
        pts = sorted(rep.finite_points, key=lambda z: (z.real, z.imag))
        expected = sorted(
            [complex(0, 0), complex(1, 0), complex(-0.5, 3**0.5 / 2),
             complex(-0.5, -(3**0.5) / 2)],
            key=lambda z: (z.real, z.imag),
        )
        assert all(abs(a - b) < 1e-12 for a, b in zip(pts, expected))

    def test_worked_doubling_map_fixed_points(self):
        # fixed-point polynomial of the degree-4 doubling map:
        # P1 - x Q1 = -3x^4 - 16x^3 - 12x^2 + 4, square-free, infinity fixed
        phi = duplication_map(EllipticCurve(4, 2, 0))
        F = phi.num - Poly.x() * phi.den
        assert F == P(4, 0, -12, -16, -3)
        rep = periodic_points(phi, 1)
        assert rep.count_with_multiplicity == 5
        assert rep.count_distinct == 5
        assert rep.infinity_fixed
        assert len(rep.finite_points) == 4

    def test_d11_model_converges_at_n3(self):
        # x^3 - 4x^2 - 112x + 656 (j = -32768): the mpmath-only sweeps ran
        # 200 times at 160 bits without converging; on the jet route two
        # polish sweeps finish it
        phi = duplication_map(EllipticCurve(-4, -112, 656))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = periodic_points(phi, 3)
        assert rep.count_distinct == 65 and len(rep.finite_points) == 64

    def test_d11_model_converges_at_n3_at_64_bits(self):
        # Horner on the n = 3 square-free part loses about 28 of the 30
        # digits at 64 bits, and ran all max_sweeps; the jet loses none
        phi = duplication_map(EllipticCurve(-4, -112, 656))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = periodic_points(phi, 3, precision=64)
        assert rep.count_distinct == 65 and len(rep.finite_points) == 64

    def test_quadratic_polynomial_converges_at_n6(self):
        # -2z^2 + 3z + 2 at n = 6 (degree 64): Horner on the square-free
        # part ran all max_sweeps and warned; the jet converges
        phi = RationalMap(P(2, 3, -2), P(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = periodic_points(phi, 6)
        assert rep.count_distinct == 65 and len(rep.finite_points) == 64

    def test_count_route_matches_located_report(self):
        for n in (1, 2):
            count = periodic_count(Z2, n)
            rep = periodic_points(Z2, n)
            assert (
                count.count_with_multiplicity, count.count_distinct, count.infinity_fixed
            ) == (rep.count_with_multiplicity, rep.count_distinct, rep.infinity_fixed)
            assert count.squarefree.degree == len(rep.finite_points)

    def test_counts_are_conjugacy_invariant(self):
        rng = random.Random(103)
        phi = RationalMap(P(-2, 0, 1), P(1))  # z^2 - 2
        for _ in range(6):
            f = _random_mobius(rng)
            psi = conjugate(phi, f)
            for n in (1, 2, 3):
                a = periodic_points(phi, n)
                b = periodic_points(psi, n)
                assert (a.count_with_multiplicity, a.count_distinct) == (
                    b.count_with_multiplicity,
                    b.count_distinct,
                )

    def test_doubling_count_at_the_budget(self):
        # x(E[31]) and x(E[33]) plus infinity: 4^5 + 1 distinct points
        count = periodic_count(duplication_map(EllipticCurve(4, 2, 0)), 5)
        assert count.count_distinct == count.count_with_multiplicity == 4**5 + 1

    def test_degree_guard(self):
        with pytest.raises(DomainError):
            periodic_points(IDENT, 1)
        with pytest.raises(DomainError):
            periodic_points(Z2, 0)

    def test_json_shape(self):
        doc = json.loads(cli.to_json(periodic_points(Z2, 1)))
        assert set(doc) == {
            "n", "degree", "count_with_multiplicity", "count_distinct",
            "finite_points", "infinity_fixed",
        }


# Factors whose products have zero roots, +-i, real roots, tiny and huge
# roots; lowest degree first.
_FACTORS = st.one_of(
    st.just([0, 1]),
    st.just([1, 0, 1]),
    st.builds(lambda b, a: [b, a], st.integers(-9, 9), st.integers(1, 4)),
    st.builds(lambda c, b, a: [c, b, a], st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 3)),
    st.builds(lambda k, sign: [sign * (2**k + 1), 1], st.integers(200, 240), st.sampled_from((1, -1))),
    st.builds(lambda k: [-1, 2**k], st.integers(200, 240)),
)


@st.composite
def _squarefree_ints(draw):
    """Integer coefficients of a square-free polynomial of degree 1 to 12,
    either dense (entries up to 2^210) or a product of _FACTORS times a
    scalar up to 2^200 + 1."""
    if draw(st.booleans()):
        entry = st.one_of(st.integers(-5, 5), st.integers(-(2**210), 2**210))
        ints = draw(st.lists(entry, min_size=2, max_size=13))
    else:
        ints = [draw(st.sampled_from((1, -3, 2**200 + 1)))]
        for f in draw(st.lists(_FACTORS, min_size=1, max_size=6)):
            ints = poly_mul(ints, f)
    F = Poly._from_ints(ints)
    assume(1 <= F.degree <= 12 and F.squarefree_part().degree == F.degree)
    return F.ints


def _located(roots, precision=128):
    """Roots with the zero rule applied (a real or imaginary part at most
    2^(10 - precision) max(|z|, 2^-precision) is 0), as sorted machine
    complex numbers."""
    tol, floor = mp.mpf(2) ** (10 - precision), mp.mpf(2) ** -precision
    out = []
    for v in roots:
        bound = tol * max(abs(v), floor)
        out.append(complex(float(v.real) if abs(v.real) > bound else 0.0,
                           float(v.imag) if abs(v.imag) > bound else 0.0))
    return sorted(out, key=lambda v: (v.real, v.imag))


@pytest.fixture
def float_results(monkeypatch):
    """The list of what each ``_float_sweeps`` call returns."""
    results = []
    float_sweeps = dynsys._float_sweeps

    def spy(*args):
        results.append(float_sweeps(*args))
        return results[-1]

    monkeypatch.setattr(dynsys, "_float_sweeps", spy)
    return results


class TestAberth:
    def test_small_poly(self):
        roots = roots_mpc(aberth_roots(P(-2, 0, 1)))  # x^2 - 2
        with mp.workprec(160):
            assert abs(roots[0] + mp.sqrt(2)) < mp.mpf(2) ** -110
            assert abs(roots[1] - mp.sqrt(2)) < mp.mpf(2) ** -110

    def test_zero_root_and_order(self):
        roots = aberth_roots(P(0, -1, 0, 1))  # x(x^2-1)
        assert [round(float(x)) for x, _ in roots] == [-1, 0, 1]

    def test_nonconvergence_is_reported_not_fatal(self, monkeypatch):
        monkeypatch.setattr(dynsys, "MAX_SWEEPS", 1)
        with pytest.warns(RuntimeWarning, match="did not converge"):
            roots = aberth_roots(P(-2, 0, 0, 0, 0, 1))
        assert len(roots) == 5  # locations rough, count still right

    def test_real_and_imaginary_parts_below_tolerance_are_zero(self):
        roots = aberth_roots(P(-2, 0, 1))  # x^2 - 2
        assert all(y == 0 for _, y in roots)
        roots = aberth_roots(P(1, 0, 1))  # x^2 + 1
        assert roots == [(0, -1), (0, 1)]

    def test_wilkinson_24_converges(self):
        # prod (x - k), k = 1..24: the mpmath-only sweeps stall at 128 bits
        # and warn; GUARD_STEP more bits of working precision converge
        ints = [1]
        for k in range(1, 25):
            ints = poly_mul(ints, [-k, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            roots = aberth_roots(Poly._from_ints(ints))
        assert [y for _, y in roots] == [0] * 24
        roots = roots_mpc(roots)
        with mp.workprec(160):
            assert all(abs(r.real - k) < mp.mpf(2) ** -110 * k for k, r in enumerate(roots, 1))

    @pytest.mark.parametrize("float_phase", [True, False])
    def test_converging_inputs_take_no_guard_bits(self, monkeypatch, float_phase):
        # a stall would add GUARD_STEP bits; with None in its place it raises.
        # Without the float phase the decimal sweeps start from
        # _initial_points, as they did alone before, and converged there
        monkeypatch.setattr(dynsys, "GUARD_STEP", None)
        if not float_phase:
            monkeypatch.setattr(dynsys, "_float_sweeps", lambda newton, z: None)
        polys = [P(-2, 0, 1), P(0, -1, 0, 1), P(-10**800, 0, 1)]
        for curve in ((4, 2, 0), (0, 0, 1), (-3, -32, -64), (-4, -112, 656)):
            phi = duplication_map(EllipticCurve(*curve))
            polys += [periodic_count(phi, n).squarefree for n in (1, 2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for F in polys:
                assert len(aberth_roots(F)) == F.degree

    def test_float_phase_takes_roots_of_modulus_1e200(self, float_results):
        # (x - 10^200)(x^2 + 1)(x + 2): past |z| = 1 the float sweeps
        # evaluate the reversed polynomial, so 10^200 never overflows
        big = 10**200
        F = Poly._from_ints(poly_mul(poly_mul([-big, 1], [1, 0, 1]), [2, 1]))
        roots = roots_mpc(aberth_roots(F))
        assert len(float_results[0]) == 4
        for root in (-2, -1j, 1j, 1e200):
            assert min(abs(z - root) for z in float_results[0]) < 1e-12 * abs(root)
        assert [r.imag for r in roots] == [0, -1, 1, 0]
        assert [r.real for r in roots[1:3]] == [0, 0]
        with mp.workprec(160):
            assert abs(roots[0].real + 2) < mp.mpf(2) ** -110
            assert abs(roots[3].real / big - 1) < mp.mpf(2) ** -110

    def test_non_finite_float_phase_falls_back(self, float_results):
        # x^2 - 10^800: the roots +-10^400 have no machine float, so the
        # decimal sweeps start from _initial_points
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            roots = roots_mpc(aberth_roots(P(-10**800, 0, 1)))
        assert float_results == [None]
        assert [r.imag for r in roots] == [0, 0]
        with mp.workprec(160):
            big = mp.mpf(10) ** 400
            assert abs(roots[0].real / big + 1) < mp.mpf(2) ** -110
            assert abs(roots[1].real / big - 1) < mp.mpf(2) ** -110

    def test_coincident_start_points_give_no_float_result(self):
        # 1 / (z_i - z_j) divides by zero when two points coincide
        newton = dynsys._horner_float([-2, 0, 1])
        assert dynsys._float_sweeps(newton, [1 + 0j, 1 + 0j]) is None

    def test_float_sweeps_freeze_a_point_once_its_step_is_below_float_step(self, monkeypatch):
        # (4,2,0) at n = 3: the jet on 64 points.  A point is evaluated again
        # only after a step of at least FLOAT_STEP (read back from its two
        # positions, which rounding moves by under 2^-10 of that), and a
        # point left behind ended on a step below it, so the float phase
        # makes fewer than 64 Newton evaluations a sweep
        calls, out = [], []
        float_sweeps = dynsys._float_sweeps

        def spy_sweeps(newton, z):
            def spy(v):
                calls.append((z.index(v), v))
                return newton(v)

            out.append(float_sweeps(spy, z))
            return out[-1]

        monkeypatch.setattr(dynsys, "_float_sweeps", spy_sweeps)
        periodic_points(duplication_map(EllipticCurve(4, 2, 0)), 3)
        (z,) = out
        assert len(z) == 64
        last, sweep, sweeps = {}, {}, 1
        for k, (i, v) in enumerate(calls):
            if k and i <= calls[k - 1][0]:
                sweeps += 1
            if i in last:
                assert abs(v - last[i]) >= dynsys.FLOAT_STEP * (1 - 2**-10) * abs(v)
            last[i], sweep[i] = v, sweeps
        assert sorted(last) == list(range(64))
        frozen = [i for i in last if sweep[i] < sweeps]
        assert frozen
        for i in frozen:
            assert abs(last[i] - z[i]) < dynsys.FLOAT_STEP * (1 + 2**-10) * abs(z[i])
        assert len(calls) < 64 * sweeps

    @pytest.mark.parametrize(
        "phi, periods",
        [(duplication_map(EllipticCurve(*curve)), (1, 2, 3))
         for curve in ((4, 2, 0), (0, 0, 1), (-3, -32, -64), (-4, -112, 656))]
        + [(RationalMap(P(1, 0, 2), P(0, 3, 1)), (1, 2, 3)),
           (RationalMap(P(1, -1, 0, 2), P(3, 0, 1)), (1, 2))],
    )
    def test_frozen_float_sweeps_locate_the_unfrozen_floats(self, monkeypatch, phi, periods):
        # freezing a point whose step is below FLOAT_STEP moves no reported
        # float against sweeps that evaluate every point every time
        frozen = [periodic_points(phi, n).finite_points for n in periods]
        monkeypatch.setattr(dynsys, "_float_sweeps", float_sweeps_unfrozen)
        assert [periodic_points(phi, n).finite_points for n in periods] == frozen

    @pytest.mark.parametrize("precision", [64, 128, 1024])
    @settings(max_examples=80)
    @given(ints=_squarefree_ints())
    @example(ints=[0, 1, 0, 1])  # x (x^2 + 1): a zero root and +-i
    @example(ints=[-(2**201) - 2, 0, 2**200 + 1])  # coefficients past 2^200
    def test_matches_mpmath_reference(self, ints, precision):
        F = Poly._from_ints(ints)
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            ref = aberth_roots_mp(F, precision)
        assume(not log)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            roots = roots_mpc(aberth_roots(F, precision), precision)
        assert _located(roots, precision) == _located(ref, precision)

    @pytest.mark.parametrize("curve", [(0, 0, 1), (4, 2, 0), (-3, -32, -64)])
    def test_doubling_map_at_n3_matches_mpmath_reference(self, curve):
        # degree 64: the float sweeps, the precision ramp and the polish
        F = periodic_count(duplication_map(EllipticCurve(*curve)), 3).squarefree
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            roots = roots_mpc(aberth_roots(F))
            ref = aberth_roots_mp(F)
        assert len(roots) == 64
        assert _located(roots) == _located(ref)

    @pytest.mark.parametrize("ints", [[-2, 0, 1], [0, 1, 0, 1]])  # x^2 - 2, x (x^2 + 1)
    def test_matches_mpmath_reference_at_the_precision_budget(self, ints):
        F = Poly._from_ints(ints)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            roots = roots_mpc(aberth_roots(F, dynsys.PRECISION_BUDGET), dynsys.PRECISION_BUDGET)
            ref = aberth_roots_mp(F, dynsys.PRECISION_BUDGET)
        assert _located(roots, 4096) == _located(ref, 4096)
        with mp.workprec(4200):
            assert all(abs(r - v) < mp.mpf(2) ** -4080 for r, v in zip(roots, ref))

    def test_ramp_converges_only_at_full_precision(self, monkeypatch):
        # the float phase hands over the exact roots of (x-1)(x-2)(x-3), so
        # every step of the first decimal sweep is 0; that sweep runs below
        # full precision and is not taken as convergence, the next one is
        monkeypatch.setattr(dynsys, "_float_sweeps", lambda newton, z: [1 + 0j, 2 + 0j, 3 + 0j])
        F = P(-6, 11, -6, 1)
        monkeypatch.setattr(dynsys, "MAX_SWEEPS", 1)
        with pytest.warns(RuntimeWarning, match="did not converge"):
            aberth_roots(F, 1024)
        digits = []
        sweep = dynsys._aberth_sweep

        def spy(*args):
            digits.append(decimal.getcontext().prec)
            return sweep(*args)

        monkeypatch.setattr(dynsys, "_aberth_sweep", spy)
        monkeypatch.setattr(dynsys, "MAX_SWEEPS", 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            roots = aberth_roots(F, 1024)
        assert roots == [(1, 0), (2, 0), (3, 0)]
        assert digits == [115, math.ceil((1024 + 32) * math.log10(2)) + 1]

    def test_d11_model_takes_guard_bits_without_waiting(self, monkeypatch):
        # x^3 - 4x^2 - 112x + 656 at n = 3 and 1024 bits: Horner on the
        # square-free part loses about 28 digits, so at 319 digits the steps
        # stop short of the tolerance and GUARD_STEP bits are needed.  The
        # first step that does not shrink takes them, so few sweeps run at
        # 319 digits or more: one at 319 and two at 339
        F = periodic_count(duplication_map(EllipticCurve(-4, -112, 656)), 3).squarefree
        digits = []
        sweep = dynsys._aberth_sweep

        def spy(*args):
            digits.append(decimal.getcontext().prec)
            return sweep(*args)

        monkeypatch.setattr(dynsys, "_aberth_sweep", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            roots = aberth_roots(F, 1024)
        assert len(roots) == 64
        assert sum(d >= math.ceil((1024 + 32) * math.log10(2)) + 1 for d in digits) <= 4

    def test_backward_error(self):
        # |F(x)| below 1e-9 times the evaluation scale sum |c_i| |x|^i
        phi = duplication_map(EllipticCurve(4, 2, 0))
        for n in (1, 2):
            phin = iterate(phi, n)
            F = (phin.num - Poly.x() * phin.den).squarefree_part()
            roots = roots_mpc(aberth_roots(F, 128))
            with mp.workprec(192):
                for r in roots:
                    scale = sum(
                        (abs(mp.mpf(c.numerator)) / c.denominator) * abs(r) ** i
                        for i, c in enumerate(F.coeffs)
                    )
                    assert abs(poly_mp(F, r)) < 1e-9 * scale

    def test_zero_derivative_is_nudged(self):
        # 0 is the critical point of z^2 - 1: p'(0) = 0 gives no Newton step,
        # so the sweep moves the point by the nudge and says so
        newton = dynsys._horner_pairs(P(-1, 0, 1).ints)
        with decimal.localcontext(dynsys._context(40)):
            nudge = decimal.Decimal(2) ** -64
            re, im = [decimal.Decimal(0), decimal.Decimal(5)], [decimal.Decimal(0)] * 2
            _, nudged = dynsys._aberth_sweep(newton, re, im, decimal.Decimal(4) ** -128, nudge)
        assert nudged
        assert (re[0], im[0]) == (nudge, 0)

    def test_stall_below_the_top_level_moves_up_one_level(self, monkeypatch):
        # at 1024 bits the polish has two levels; a largest step below
        # FLOAT_STEP that does not shrink at the lower one moves the next
        # sweep to the top, where a zero step converges
        steps = iter([decimal.Decimal("1e-30"), decimal.Decimal("1e-30"), decimal.Decimal(0)])
        digits = []

        def fake(newton, re, im, floor2, nudge):
            digits.append(decimal.getcontext().prec)
            return next(steps), False

        monkeypatch.setattr(dynsys, "_aberth_sweep", fake)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = dynsys._polish(None, [(decimal.Decimal(1), decimal.Decimal(0))], 1024)
        assert out == [(1, 0)]
        top = math.ceil((1024 + 32) * math.log10(2)) + 1
        assert digits[0] == digits[1] < digits[2] == top

    @pytest.mark.parametrize("second, stalls", [
        ("1e-100", True), ("1e-101", True), ("1e-150", True), ("1e-199", True),
        ("1e-200", False), ("1e-300", False),
    ])
    def test_stall_is_shrinking_by_less_than_the_square(self, monkeypatch, second, stalls):
        # at 1024 bits a largest squared step of 1e-100 at the lower level
        # sends the next sweep to the top; there, one that shrank by less
        # than its square (whatever the decimal exponent wanders by) is
        # limited by its precision and adds GUARD_STEP bits, and one that
        # shrank by its square or more is not; a zero step then converges
        steps = iter([decimal.Decimal("1e-100"), decimal.Decimal(second), decimal.Decimal(0)])
        digits = []

        def fake(newton, re, im, floor2, nudge):
            digits.append(decimal.getcontext().prec)
            return next(steps), False

        monkeypatch.setattr(dynsys, "_aberth_sweep", fake)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            dynsys._polish(None, [(decimal.Decimal(1), decimal.Decimal(0))], 1024)
        top = math.ceil((1024 + 32) * math.log10(2)) + 1
        guard = math.ceil(dynsys.GUARD_STEP * math.log10(2))
        assert digits == [115, top, top + guard if stalls else top]


@pytest.fixture
def sums(monkeypatch):
    """For each ``_aberth_sweep`` call, its working digits and the number of
    Aberth sums it took in Decimal (``_decimal_sum``)."""
    log = []
    sweep, decimal_sum = dynsys._aberth_sweep, dynsys._decimal_sum

    def sweep_spy(*args):
        log.append([decimal.getcontext().prec, 0])
        return sweep(*args)

    def sum_spy(*args):
        log[-1][1] += 1
        return decimal_sum(*args)

    monkeypatch.setattr(dynsys, "_aberth_sweep", sweep_spy)
    monkeypatch.setattr(dynsys, "_decimal_sum", sum_spy)
    return log


class TestFloatSum:
    """A decimal sweep takes the Aberth sum of a point in machine floats
    when the error that puts into its step is below the tolerance or the
    cube of its relative Newton step, and in Decimal otherwise."""

    def test_points_past_the_float_range_take_the_decimal_sum(self, monkeypatch, sums):
        # x^2 - 10^800: the float copies of +-10^400 are infinite
        def no_float_sum(*args):
            raise AssertionError("float sum of a point out of range")

        monkeypatch.setattr(dynsys, "_float_sum", no_float_sum)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            roots = roots_mpc(aberth_roots(P(-10**800, 0, 1)))
        # every sweep sums in Decimal (a point whose correction is exactly 0
        # does not move and takes no sum)
        assert sums and all(n for _, n in sums)
        assert [r.imag for r in roots] == [0, 0]
        with mp.workprec(160):
            big = mp.mpf(10) ** 400
            assert abs(roots[0].real / big + 1) < mp.mpf(2) ** -110
            assert abs(roots[1].real / big - 1) < mp.mpf(2) ** -110

    def test_points_closer_than_a_float_fall_back(self, sums):
        # (x - 1)(10^20 x - 10^20 - 1): the float copies of 1 and 1 + 10^-20
        # are the same float, so 1 / (z_i - z_j) has no float value
        big = 10**20
        F = Poly._from_ints(poly_mul([-1, 1], [-(big + 1), big]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            (a, ai), (b, bi) = aberth_roots(F)
        assert sums and all(n == 2 for _, n in sums)
        assert ai == bi == 0
        tol = decimal.Decimal(2) ** -110
        assert abs(a - 1) < tol
        assert abs(b - 1 - decimal.Decimal(10) ** -20) < tol

    def test_corpus_doubling_maps_polish_in_two_float_sum_sweeps(self, sums):
        # at 128 bits the gate takes every sum in floats, and the polish
        # still takes two sweeps per call, as the Decimal sums did
        for curve in ((0, 0, 1), (4, 2, 0), (-3, -32, -64)):
            for t in (1, -1, 2):
                a, b, c = curve
                phi = duplication_map(EllipticCurve(a * t, b * t**2, c * t**3))
                for n in (1, 2, 3):
                    sums.clear()
                    periodic_points(phi, n)
                    assert sums == [[50, 0], [50, 0]], (curve, t, n)

    @pytest.mark.parametrize("curve", [(4, 2, 0), (-4, -112, 656)])
    def test_certifying_sweep_takes_float_sums_at_1024_bits(self, sums, curve):
        # the steps of the first three sweeps are too large for a float sum
        # to leave them their cube; the certifying sweep's are below it
        periodic_points(duplication_map(EllipticCurve(*curve)), 3, 1024)
        assert sums == [[115, 64], [115, 64], [319, 64], [319, 0]]

    def test_float_sum_bounds_its_error(self):
        # the bound holds against the exact sum over the points themselves,
        # here Fractions whose float copies are off by up to half an ulp
        rng = random.Random(7)
        for _ in range(40):
            pts = [(Fraction(rng.uniform(-2, 2)) * (1 + Fraction(1, 3 * 2**53)),
                    Fraction(rng.uniform(-2, 2))) for _ in range(rng.randint(2, 40))]
            fz = [complex(float(x), float(y)) for x, y in pts]
            i = rng.randrange(len(pts))
            s, ds = dynsys._float_sum(fz, i)
            exact = [Fraction(0), Fraction(0)]
            for j, (x, y) in enumerate(pts):
                if j != i:
                    dx, dy = pts[i][0] - x, pts[i][1] - y
                    m = dx * dx + dy * dy
                    exact[0] += dx / m
                    exact[1] -= dy / m
            err = abs(complex(float(exact[0] - Fraction(s.real)), float(exact[1] - Fraction(s.imag))))
            assert err <= ds

    def test_coincident_float_copies_give_no_float_sum(self):
        fz = [1 + 0j, 2 + 0j, 1 + 0j]
        assert dynsys._float_sum(fz, 0) is None
        assert dynsys._float_sum(fz, 1) is not None
        # closer than the first-order bound allows, but distinct floats
        assert dynsys._float_sum([1 + 0j, 1 + 2**-50 + 0j], 0) is None
        # apart only in a subnormal part: the term is infinite
        assert dynsys._float_sum([1e-150 + 0j, complex(1e-150, 1e-320)], 0) is None


def _pair_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _pair_div(x, y):
    m = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / m, (x[1] * y[0] - x[0] * y[1]) / m)


def _pair_eval(p, z):
    """p(z) for a Poly p at a (real, imaginary) pair of Fractions."""
    out = (Fraction(0), Fraction(0))
    for c in reversed(p.coeffs):
        out = _pair_mul(out, z)
        out = (out[0] + c, out[1])
    return out


def _homogeneous(phi):
    """phi's coefficients, lowest degree first, padded to phi.degree + 1."""
    return [list(f.ints) + [0] * (phi.degree + 1 - len(f.ints)) for f in (phi.num, phi.den)]


def _exact_correction(phi, n, z):
    """F(z) / (F'(z) - k F(z) / z) from the expanded F = P_n - x Q_n, with k
    the multiplicity of its zero root, in Fractions; and k."""
    phin = iterate(phi, n)
    F = phin.num - Poly.x() * phin.den
    k = next(i for i, c in enumerate(F.ints) if c)
    f, df = _pair_eval(F, z), _pair_eval(F.derivative(), z)
    if k:
        kf = _pair_div(f, z)
        df = (df[0] - k * kf[0], df[1] - k * kf[1])
    return _pair_div(f, df), k


def _jet_maps():
    rng = random.Random(131)
    maps = [(duplication_map(EllipticCurve(*c)), 2) for c in _CM_CURVES]
    maps += [(Z2, 3), (RationalMap(P(0, 1, 0, 2), P(3, 0, 1)), 3)]  # 0 is fixed
    while len(maps) < 12:
        phi = _random_map(rng, max_deg=3)
        if phi.degree >= 2:
            maps.append((phi, 3 if phi.degree == 2 else 2))
    return maps


_CM_CURVES = ((0, 0, 1), (4, 2, 0), (-3, -32, -64), (-4, -112, 656))
_JET_POINTS = [(Fraction(1, 3), Fraction(-2, 7)), (Fraction(5, 2), Fraction(1, 4)),
               (Fraction(-7, 5), Fraction(0)), (Fraction(2, 9), Fraction(11, 3)),
               (Fraction(-1, 8), Fraction(1, 16))]


class TestJet:
    """The Newton correction of P_n - x Q_n through phi's homogeneous pair
    run n times with the chain rule, against the expanded polynomial."""

    def test_jet_is_exact_in_fractions(self):
        # z^8 - z and the map fixing 0 give F a simple zero root; the
        # deflation F / (F' - k F / z) holds for any k
        charts, ks = set(), set()
        for phi, n in _jet_maps():
            num, den = _homogeneous(phi)
            for z in _JET_POINTS:
                want, k = _exact_correction(phi, n, z)
                ks.add(k)
                jet = dynsys._jet_pairs(
                    [Fraction(c) for c in num], [Fraction(c) for c in den], n, k, Fraction(1)
                )
                nr, ni, dr, di = jet(*z)
                assert _pair_div((nr, ni), (dr, di)) == want, (phi, n, z)
                # the chart of each step: |X| <= |Z| exactly when
                # |phi^j(z)| <= 1, so X/Z is the Horner variable
                x = z
                for _ in range(n):
                    charts.add(x[0] ** 2 + x[1] ** 2 <= 1)
                    x = _pair_div(_pair_eval(phi.num, x), _pair_eval(phi.den, x))
        assert charts == {True, False} and {0, 1} <= ks

    def test_float_jet_matches_exact(self):
        for phi, n in _jet_maps():
            num, den = _homogeneous(phi)
            scale = 1 << max(abs(c).bit_length() for c in num + den)
            for z in _JET_POINTS:
                want, k = _exact_correction(phi, n, z)
                jet = dynsys._jet_float([c / scale for c in num], [c / scale for c in den], n, k)
                got = jet(complex(z[0], z[1]))
                want = complex(float(want[0]), float(want[1]))
                assert abs(got - want) <= 1e-10 * abs(want), (phi, n, z)

    @pytest.fixture
    def evaluators(self, monkeypatch):
        """The names of the evaluators ``aberth_roots`` builds, in order."""
        built = []
        for name in ("_horner_float", "_horner_pairs", "_jet_float", "_jet_pairs"):
            def spy(*args, _name=name, _fn=getattr(dynsys, name)):
                built.append(_name)
                return _fn(*args)

            monkeypatch.setattr(dynsys, name, spy)
        return built

    def test_periodic_points_selects_the_jet(self, evaluators):
        phi = duplication_map(EllipticCurve(4, 2, 0))
        for n in (1, 2):
            evaluators.clear()
            periodic_points(phi, n)
            assert evaluators == ["_horner_float", "_horner_pairs"]
        evaluators.clear()
        periodic_points(phi, 3)
        assert evaluators == ["_jet_float", "_jet_pairs"]
        # z^2 + 1/4 has the multiplier-1 fixed point 1/2, a double root of F:
        # at n = 5 the jet would cost less (30 < 33), but F is not square-free
        parabolic = RationalMap(P(Fraction(1, 4), 0, 1), P(1))
        count = periodic_count(parabolic, 5)
        assert not count.finite_simple and 2 * 5 * 3 < 2**5 + 1
        evaluators.clear()
        periodic_points(parabolic, 5)
        assert evaluators == ["_horner_float", "_horner_pairs"]
        evaluators.clear()
        periodic_points(Z2, 5)
        assert evaluators == ["_jet_float", "_jet_pairs"]

    def test_bare_polynomial_keeps_horner(self, evaluators):
        F = periodic_count(duplication_map(EllipticCurve(4, 2, 0)), 3).squarefree
        aberth_roots(F)
        assert evaluators == ["_horner_float", "_horner_pairs"]

    @pytest.mark.parametrize("phi, n", [
        *((duplication_map(EllipticCurve(a * t, b * t**2, c * t**3)), 3)
          for a, b, c in _CM_CURVES for t in (1, -1)),
        (Z2, 5), (Z2, 6), (RationalMap(P(0, 1, 0, 2), P(3, 0, 1)), 3),
        (RationalMap(P(1, -2, 0, 1), P(2, 1)), 3), (RationalMap(P(-2, 0, 1), P(3, 1)), 5),
    ], ids=lambda v: str(v).replace(" ", "") if isinstance(v, RationalMap) else f"n{v}")
    def test_jet_and_horner_routes_agree(self, phi, n):
        count = periodic_count(phi, n)
        assert count.finite_simple and 2 * n * (phi.degree + 1) < phi.degree**n + 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = periodic_points(phi, n)
            horner = aberth_roots(count.squarefree)
        assert rep.finite_points == tuple(sorted(
            (complex(float(x), float(y)) for x, y in horner),
            key=lambda v: (v.real, v.imag),
        ))


class TestZetaFromCounts:
    def test_trace_counts_of_worked_matrix(self):
        A = SFTMatrix(((0, 1), (2, 0)))
        from lattes_sft import per_count_trace

        counts = [per_count_trace(A, n) for n in range(1, 7)]
        assert zeta_from_counts(counts, 6) == [
            Fraction(v) for v in (1, 0, 2, 0, 4, 0, 8)
        ]

    def test_zero_counts(self):
        assert zeta_from_counts([0] * 5, 5) == [Fraction(1)] + [Fraction(0)] * 5

    def test_fibonacci(self):
        A = SFTMatrix(((1, 1), (1, 0)))
        from lattes_sft import per_count_trace

        counts = [per_count_trace(A, n) for n in range(1, 6)]
        assert zeta_from_counts(counts, 5) == [
            Fraction(v) for v in (1, 1, 2, 3, 5, 8)
        ]

    def test_matches_rational_zeta_series(self):
        rng = random.Random(107)
        from lattes_sft import per_count_trace

        for _ in range(25):
            A = SFTMatrix(
                tuple(tuple(rng.randint(0, 5) for _ in range(2)) for _ in range(2))
            )
            counts = [per_count_trace(A, n) for n in range(1, 9)]
            assert zeta_from_counts(counts, 8) == zeta_sft(A).series(8)

    def test_needs_enough_counts(self):
        with pytest.raises(DomainError):
            zeta_from_counts([1, 2], 3)
