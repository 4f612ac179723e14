"""End-to-end chain from a CM-annotated curve and an integral field element
to shift-dynamics invariants, plus the side-by-side periodic-point
comparison harness.

The comparison harness uses exact counts only, with no root finding.  It
reads the iterates from ``dynsys.iterates``, so it is bounded by the same
ITERATE_DEGREE_BUDGET as ``iterate``, and rests on three identities that are
internally forced: the Bezout count degree^n + 1 (asserted in
``dynsys.periodic_count``), the trace/enumeration agreement, and the
closed-form Lattes count 4^n + 1 of distinct period-n points of the
doubling map.  The complex-map distinct count is reported next to the
trace count, never asserted equal to it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cfrac import ContinuedFraction, QuadSurd, expand, period_matrix, surd_step
from .dynsys import iterates, periodic_count
from .errors import DomainError
from .exactnum import QuadElem, companion_matrix
from .intlinalg import IntMatrix2, is_square, square_part
from .lattes import EllipticCurve, duplication_map
from .lattice import PseudoLattice, scale_lattice
from .sft import (
    AbelianGroupInvariant,
    SEResult,
    SFTMatrix,
    SimilarityResult,
    ZetaRational,
    gl2z_similar,
    k_invariants,
    per_count_enumerate,
    per_count_trace,
    shift_equivalent,
    zeta_sft,
)


@dataclass(frozen=True)
class FunctorOutput:
    D: int
    epsilon: QuadElem
    A: IntMatrix2
    theta_prime: QuadSurd
    cf: ContinuedFraction
    T: IntMatrix2
    zeta: ZetaRational
    K0: AbelianGroupInvariant


def _check_field(D: int, eps: QuadElem) -> None:
    """eps.D is square-free, so D lies in its field exactly when D / eps.D
    is a square; D is factored only to word the error."""
    if D <= 1:
        raise DomainError("D must be an integer > 1")
    if D % eps.D or not is_square(D // eps.D):
        raise DomainError(
            f"epsilon lies in Q(sqrt({eps.D})) but D = {D} has square-free part "
            f"{square_part(D)[1]}"
        )


def _check_period_matrix(T: IntMatrix2, cf: ContinuedFraction, x: QuadSurd) -> None:
    """Second route to T: det T = (-1)^L, and T = ((p, p'), (q, q')) fixes
    the purely periodic tail (P0 + sqrt(D0))/Q0 of x, i.e. the tail is a
    root of q t^2 + (q' - p) t - p'.  Its irrational and rational parts
    vanish separately."""
    P0, Q0, D0 = x.P, x.Q, x.D
    for b in cf.preperiod:
        P0, Q0 = surd_step(P0, Q0, D0, b)
    (p, p1), (q, q1) = T.rows()
    if T.det() != (-1) ** len(cf.period):
        raise ArithmeticError("period matrix determinant is not (-1)^period")
    if (
        2 * q * P0 + (q1 - p) * Q0 != 0
        or q * (P0 * P0 + D0) + (q1 - p) * P0 * Q0 - p1 * Q0 * Q0 != 0
    ):
        raise ArithmeticError("period matrix does not fix the periodic tail")


def functor_invariants(D: int, eps: QuadElem) -> FunctorOutput:
    """Chain: companion matrix, lattice rescaling, continued fraction,
    period matrix (checked against the periodic tail), zeta function, K0."""
    _check_field(D, eps)
    A = companion_matrix(eps)
    sub = scale_lattice(PseudoLattice.from_sqrt(D), eps)
    theta_prime = sub.normalized.theta
    x = theta_prime.translate(-theta_prime.floor())
    cf = expand(x)
    T = period_matrix(cf)
    _check_period_matrix(T, cf, x)
    sft_A = SFTMatrix.from_intmatrix2(A)
    return FunctorOutput(
        D=D,
        epsilon=eps,
        A=A,
        theta_prime=theta_prime,
        cf=cf,
        T=T,
        zeta=zeta_sft(sft_A),
        K0=k_invariants(sft_A).K0,
    )


def apply_functor(E: EllipticCurve, eps: QuadElem) -> FunctorOutput:
    """Shift-dynamics invariants of the doubling dynamics on a CM curve."""
    if E.cm_D is None:
        raise DomainError("curve carries no CM annotation D (CM by Q(sqrt(-D)))")
    return functor_invariants(E.cm_D, eps)


@dataclass(frozen=True)
class ConjugacyVerdict:
    shift_equivalence: SEResult
    gl2_similarity: SimilarityResult


def conjugacy_test(out1: FunctorOutput, out2: FunctorOutput) -> ConjugacyVerdict:
    """Shift equivalence of the two shift matrices, with GL2(Z) similarity
    reported as corroboration, each at the default bounds of
    ``shift_equivalent`` and ``gl2z_similar``."""
    se = shift_equivalent(SFTMatrix.from_intmatrix2(out1.A), SFTMatrix.from_intmatrix2(out2.A))
    sim = gl2z_similar(out1.A, out2.A)
    return ConjugacyVerdict(se, sim)


@dataclass(frozen=True)
class ComparisonRow:
    n: int
    trace_count: int
    distinct_count: int
    multiplicity_count: int


def comparison_report(E: EllipticCurve, eps: QuadElem, n_max: int) -> list[ComparisonRow]:
    """Side-by-side periodic-point counts for the doubling map of E and the
    edge shift of the companion matrix of eps, for n = 1..n_max.  The
    iterates come from the one chain ``dynsys.iterates``, bounded by its
    ITERATE_DEGREE_BUDGET, and the period-n points of phi are the fixed
    points of phi^n."""
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if E.cm_D is None:
        raise DomainError("curve carries no CM annotation D (CM by Q(sqrt(-D)))")
    _check_field(E.cm_D, eps)
    A = SFTMatrix.from_intmatrix2(companion_matrix(eps))
    rows = []
    for n, phin in enumerate(iterates(duplication_map(E), n_max), 1):
        count = periodic_count(phin, 1)
        tr = per_count_trace(A, n)
        if tr != per_count_enumerate(A, n):
            raise ArithmeticError("trace/enumeration identity violated")
        # The period-n points of the doubling map are the x-coordinates of
        # E[2^n - 1] and E[2^n + 1], which meet only in O: 4^n finite points
        # plus infinity on every non-singular curve.
        if count.count_distinct != 4**n + 1:
            raise ArithmeticError("closed-form Lattes count identity violated")
        rows.append(
            ComparisonRow(
                n=n,
                trace_count=tr,
                distinct_count=count.count_distinct,
                multiplicity_count=count.count_with_multiplicity,
            )
        )
    return rows
