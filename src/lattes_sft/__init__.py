"""Exact reduction of elliptic-curve doubling dynamics to integer-matrix
shift dynamics.

The chain: a curve y^2 = x^3 + a x^2 + b x + c taken to have CM by
Q(sqrt(-D)), for a radicand D (not a discriminant: D = 2 means CM by
Z[sqrt(-2)], of discriminant -8), and an integral element eps of Q(sqrt(D))
produce a 2x2 companion matrix, a rescaled pseudo-lattice with a periodic
continued fraction, the period matrix of that fraction, the rational zeta
function of the edge shift, and its K-theory type.  Every step is exact;
floats appear only in root location, never in a count or an invariant.
"""

from importlib import import_module

__version__ = "0.1.0"

# The module that defines each exported name.  A name is imported from its
# module on first use, so ``import lattes_sft`` loads no submodule and a
# CLI process loads only what its subcommand runs.
_EXPORTS = {
    "cfrac": ("ContinuedFraction", "QuadSurd", "convergents", "expand", "period_matrix"),
    "dynsys": (
        "PeriodicCount",
        "PeriodicReport",
        "aberth_roots",
        "compose",
        "conjugate",
        "iterate",
        "periodic_count",
        "periodic_points",
        "zeta_from_counts",
    ),
    "errors": ("BudgetExceededError", "DomainError", "ParseError"),
    "exactnum": ("Poly", "QuadElem", "companion_matrix"),
    "intlinalg": ("IntMatrix2",),
    "lattes": ("EllipticCurve", "RationalMap", "duplication_map"),
    "lattice": ("PseudoLattice", "SublatticeData", "hnf2", "scale_lattice"),
    "pipeline": (
        "ComparisonRow",
        "ConjugacyVerdict",
        "FunctorOutput",
        "apply_functor",
        "comparison_report",
        "conjugacy_test",
        "functor_invariants",
    ),
    "sft": (
        "AbelianGroupInvariant",
        "KInvariants",
        "SECertificate",
        "SEResult",
        "SFTMatrix",
        "SimilarityResult",
        "ZetaRational",
        "gl2z_similar",
        "k_invariants",
        "per_count_enumerate",
        "per_count_trace",
        "shift_equivalent",
        "zeta_sft",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # The value is looked up in its module on every access and never bound
    # here: a wrapper put into the module for a while (a traced benchmark
    # run does this) must not stay behind in this namespace.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys())
