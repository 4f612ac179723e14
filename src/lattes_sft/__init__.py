"""Exact reduction of elliptic-curve doubling dynamics to integer-matrix
shift dynamics.

The chain: a curve y^2 = x^3 + a x^2 + b x + c carrying a CM discriminant D
and an integral element eps of Q(sqrt(D)) produce a 2x2 companion matrix,
a rescaled pseudo-lattice with a periodic continued fraction, the period
matrix of that fraction, the rational zeta function of the edge shift, and
its K-theory type.  Every step is exact; floats appear only in point-doubling
oracles and root location, never in a count or an invariant.
"""

from .cfrac import ContinuedFraction, QuadSurd, convergents, expand, period_matrix
from .dynsys import (
    PeriodicCount,
    PeriodicReport,
    aberth_roots,
    compose,
    conjugate,
    iterate,
    periodic_count,
    periodic_points,
    zeta_from_counts,
)
from .errors import BudgetExceededError, DomainError, ParseError
from .exactnum import Poly, QuadElem, companion_matrix
from .intlinalg import IntMatrix2
from .lattes import EllipticCurve, RationalMap, double_point, duplication_map, lift_y
from .lattice import PseudoLattice, SublatticeData, hnf2, scale_lattice
from .pipeline import (
    ComparisonRow,
    ConjugacyVerdict,
    FunctorOutput,
    apply_functor,
    comparison_report,
    conjugacy_test,
    functor_invariants,
)
from .sft import (
    AbelianGroupInvariant,
    KInvariants,
    SECertificate,
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

__version__ = "0.1.0"

__all__ = [
    "AbelianGroupInvariant",
    "BudgetExceededError",
    "ComparisonRow",
    "ConjugacyVerdict",
    "ContinuedFraction",
    "DomainError",
    "EllipticCurve",
    "FunctorOutput",
    "IntMatrix2",
    "KInvariants",
    "ParseError",
    "PeriodicCount",
    "PeriodicReport",
    "Poly",
    "PseudoLattice",
    "QuadElem",
    "QuadSurd",
    "RationalMap",
    "SECertificate",
    "SEResult",
    "SFTMatrix",
    "SimilarityResult",
    "SublatticeData",
    "ZetaRational",
    "aberth_roots",
    "apply_functor",
    "companion_matrix",
    "comparison_report",
    "compose",
    "conjugacy_test",
    "conjugate",
    "convergents",
    "double_point",
    "duplication_map",
    "expand",
    "functor_invariants",
    "gl2z_similar",
    "hnf2",
    "iterate",
    "k_invariants",
    "lift_y",
    "per_count_enumerate",
    "per_count_trace",
    "period_matrix",
    "periodic_count",
    "periodic_points",
    "scale_lattice",
    "shift_equivalent",
    "zeta_from_counts",
    "zeta_sft",
]
