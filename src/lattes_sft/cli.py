"""Command-line surface.

Exit codes: 0 success, 1 domain error (a named precondition failed),
2 usage or parse error, 3 verification mismatch, 141 (128 + SIGPIPE)
stdout closed before the output was written.  With --output json the
whole stdout is a single JSON document; diagnostics go to stderr.

Each subcommand imports the library modules it runs when it runs, so a
process loads only those: ``cfrac`` loads cfrac, ``zeta`` and
``shift-equiv`` exactnum and sft, ``periodic`` exactnum, lattes and dynsys,
and ``functor``, ``compare`` and ``verify`` the whole chain.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections.abc import Callable
from fractions import Fraction

from .errors import PRECISION_BUDGET, DomainError, ParseError
from .intlinalg import IntMatrix2, matrix_text

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3

# Value types matched by module and class name, not by class, so that
# writing a document imports no module its subcommand did not load.
_TEXT_TYPES = {f"{__package__}.exactnum.QuadElem", f"{__package__}.cfrac.QuadSurd"}
_POLY_TYPE = f"{__package__}.exactnum.Poly"


def _plain(obj):
    """JSON form of the library's value types; a dataclass becomes its
    fields in declaration order, those that are None left out."""
    if isinstance(obj, IntMatrix2):
        return obj.rows()
    kind = f"{type(obj).__module__}.{type(obj).__qualname__}"
    if isinstance(obj, Fraction) or kind in _TEXT_TYPES:
        return str(obj)
    if kind == _POLY_TYPE:
        return [str(c) for c in obj.coeffs]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if dataclasses.is_dataclass(obj):
        return {
            f.name: getattr(obj, f.name)
            for f in dataclasses.fields(obj)
            if getattr(obj, f.name) is not None
        }
    raise TypeError(f"{type(obj).__name__} has no JSON form")


def to_json(doc) -> str:
    """The one JSON encoder of every document the CLI writes."""
    return json.dumps(doc, indent=2, default=_plain)


def _emit(doc, text_lines: Callable[[], list[str]], args) -> None:
    """Print doc as JSON, or the lines text_lines() builds; they are built
    only for text output."""
    if args.output == "json":
        print(to_json(doc))
    else:
        for line in text_lines():
            print(line)


def _functor_text(out) -> list[str]:
    return [f"{f.name}: {getattr(out, f.name)}" for f in dataclasses.fields(out)]


def cmd_functor(args) -> int:
    from .exactnum import QuadElem
    from .lattes import EllipticCurve
    from .pipeline import apply_functor, functor_invariants

    eps = QuadElem.parse(args.eps)
    if args.curve is not None:
        E = EllipticCurve.parse(args.curve, cm_D=args.D)
        out = apply_functor(E, eps)
    else:
        out = functor_invariants(args.D, eps)
    _emit(out, lambda: _functor_text(out), args)
    return EXIT_OK


def cmd_zeta(args) -> int:
    from .sft import SFTMatrix, zeta_sft

    A = SFTMatrix.parse(args.matrix)
    z = zeta_sft(A)
    _emit({"matrix": A.rows, "zeta": z}, lambda: [str(z)], args)
    return EXIT_OK


def _map_from_args(args):
    from .lattes import EllipticCurve, RationalMap, duplication_map

    if args.map is not None:
        return RationalMap.parse(args.map)
    if args.curve is not None:
        return duplication_map(EllipticCurve.parse(args.curve))
    raise ParseError("one of --map or --curve is required")


def cmd_periodic(args) -> int:
    from .dynsys import periodic_points

    phi = _map_from_args(args)
    rep = periodic_points(phi, args.n, args.precision)

    def lines():
        return [
            f"n: {rep.n}",
            f"degree: {rep.degree}",
            f"count_with_multiplicity: {rep.count_with_multiplicity}",
            f"count_distinct: {rep.count_distinct}",
            f"infinity_fixed: {rep.infinity_fixed}",
            "finite_points: "
            + "; ".join(f"{z.real:.12g}{z.imag:+.12g}i" for z in rep.finite_points),
        ]

    _emit(rep, lines, args)
    return EXIT_OK


def cmd_shift_equiv(args) -> int:
    from .sft import SFTMatrix, shift_equivalent

    A = SFTMatrix.parse(args.A)
    B = SFTMatrix.parse(args.B)
    res = shift_equivalent(A, B, args.entry_bound, args.lag_bound)

    def lines():
        out = [f"status: {res.status}"]
        if res.certificate is not None:
            c = res.certificate
            out += [
                f"R: {matrix_text(c.R)}",
                f"S: {matrix_text(c.S)}",
                f"k: {c.k}",
            ]
        if res.witness is not None:
            out.append(f"witness: {res.witness}")
        return out

    _emit(res, lines, args)
    return EXIT_OK


def cmd_cfrac(args) -> int:
    from .cfrac import QuadSurd, expand

    surd = QuadSurd.parse(args.surd)
    cf = expand(surd)
    _emit({"surd": surd, "cf": cf}, lambda: [str(cf)], args)
    return EXIT_OK


def cmd_compare(args) -> int:
    from .exactnum import QuadElem
    from .lattes import EllipticCurve, duplication_map
    from .pipeline import comparison_report

    eps = QuadElem.parse(args.eps)
    E = EllipticCurve.parse(args.curve, cm_D=args.D)
    rows = comparison_report(E, eps, args.n)
    phi = duplication_map(E)
    doc = {
        "curve": str(E),
        "D": args.D,
        "epsilon": eps,
        "map_degree": phi.degree,
        "epsilon_norm": eps.norm(),
        "rows": rows,
    }

    def lines():
        return [
            f"curve: {E}",
            f"D: {args.D}",
            f"epsilon: {eps}",
            f"map_degree: {phi.degree}",
            f"epsilon_norm: {eps.norm()}",
            "n\ttrace_count\tdistinct_count\tmultiplicity_count",
        ] + [
            f"{r.n}\t{r.trace_count}\t{r.distinct_count}\t{r.multiplicity_count}"
            for r in rows
        ]

    _emit(doc, lines, args)
    return EXIT_OK


def _verify_checks() -> list[tuple[str, str, str]]:
    """Replay the worked doubling example; returns (name, expected, got).
    The expected values are literal text, so a fault in a ``__str__`` shows
    as a mismatch rather than on both sides."""
    from .exactnum import QuadElem
    from .lattes import EllipticCurve, duplication_map
    from .lattice import PseudoLattice, scale_lattice
    from .pipeline import apply_functor

    curve = EllipticCurve(4, 2, 0, cm_D=2)
    eps = QuadElem(0, 1, 2)
    sub = scale_lattice(PseudoLattice.from_sqrt(2), eps)
    out = apply_functor(curve, eps)
    return [
        ("duplication_map", "4,0,-4,0,1 / 0,8,16,4", str(duplication_map(curve))),
        ("sublattice_index", "2", str(sub.index)),
        ("normalized_lattice", "Z+Z*(0+sqrt(2))/2", str(sub.normalized)),
        ("A", "0,1;2,0", str(out.A)),
        ("theta_prime", "(0+sqrt(2))/2", str(out.theta_prime)),
        ("cf", "[0,1;(2)]", str(out.cf)),
        ("T", "2,1;1,0", str(out.T)),
        ("zeta", "1/(1-2t^2)", str(out.zeta)),
        ("K0", "trivial", str(out.K0)),
    ]


def cmd_verify(args) -> int:
    checks = _verify_checks()
    mismatches = [(n, e, g) for n, e, g in checks if e != g]
    doc = {
        "status": "ok" if not mismatches else "mismatch",
        "checks": [
            {"name": n, "expected": e, "got": g, "ok": e == g} for n, e, g in checks
        ],
    }

    def lines():
        out = [
            f"ok {n}: {g}" if e == g else f"MISMATCH {n}: expected {e}, got {g}"
            for n, e, g in checks
        ]
        out.append("verify: " + ("OK" if not mismatches else "MISMATCH"))
        return out

    _emit(doc, lines, args)
    return EXIT_OK if not mismatches else EXIT_MISMATCH


D_HELP = (
    "radicand D > 1, not a discriminant: eps lies in Q(sqrt(D)), the lattice "
    "is Z + Z*sqrt(D), and the curve is taken to have CM by Q(sqrt(-D))"
)
CURVE_HELP = "; write a value that starts with '-' as --curve=-3,-32,-64"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattes",
        description=(
            "Exact reduction of elliptic-curve doubling dynamics to "
            "integer-matrix shift dynamics"
        ),
    )
    parser.add_argument(
        "--output", choices=("text", "json"), default="text", help="output format"
    )
    parser.add_argument(
        "--precision",
        type=int,
        default=128,
        help=f"root-location precision of 'periodic' in bits (64 to {PRECISION_BUDGET})",
    )
    parser.add_argument(
        "--entry-bound", type=int, default=10, help="entry bound for searches"
    )
    parser.add_argument(
        "--lag-bound", type=int, default=6, help="lag bound for shift equivalence"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("functor", help="full invariant chain for (curve, D, eps)")
    p.add_argument("--D", type=int, required=True, help=D_HELP)
    p.add_argument("--eps", required=True, help="field element 'a+b*sqrt(D)'")
    p.add_argument("--curve", help="curve 'a,b,c' (optional annotation)" + CURVE_HELP)
    p.set_defaults(func=cmd_functor)

    p = sub.add_parser("zeta", help="zeta function of an edge shift")
    p.add_argument("--matrix", required=True, help="matrix 'a,b;c,d' (rows by ';')")
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("periodic", help="periodic points of a rational map")
    p.add_argument("--map", help="rational map 'num_coeffs / den_coeffs'")
    p.add_argument("--curve", help="curve 'a,b,c' (its doubling map is used)" + CURVE_HELP)
    p.add_argument("-n", type=int, required=True, help="period")
    p.set_defaults(func=cmd_periodic)

    p = sub.add_parser("shift-equiv", help="bounded shift-equivalence decision")
    p.add_argument("--A", required=True, help="matrix text")
    p.add_argument("--B", required=True, help="matrix text")
    p.set_defaults(func=cmd_shift_equiv)

    p = sub.add_parser("cfrac", help="periodic continued fraction of a surd")
    p.add_argument("--surd", required=True, help="surd '(P+sqrt(D))/Q'")
    p.set_defaults(func=cmd_cfrac)

    p = sub.add_parser("compare", help="periodic-point count comparison table")
    p.add_argument("--curve", required=True, help="curve 'a,b,c'" + CURVE_HELP)
    p.add_argument("--D", type=int, required=True, help=D_HELP)
    p.add_argument("--eps", required=True, help="field element 'a+b*sqrt(D)'")
    p.add_argument("-n", type=int, required=True,
                   help="max period; the degree 4^n of its iterate is bounded by ITERATE_DEGREE_BUDGET")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="replay the worked example and diff")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    if args.precision < 64:
        print("error: precision must be at least 64 bits", file=sys.stderr)
        return EXIT_USAGE
    if args.entry_bound < 1 or args.lag_bound < 1:
        print("error: search bounds must be >= 1", file=sys.stderr)
        return EXIT_USAGE

    # Exact results such as long period matrices pass the interpreter's
    # int-to-string digit limit; lift it while the command prints them.
    has_limit = hasattr(sys, "get_int_max_str_digits")
    if has_limit:
        digit_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    finally:
        if has_limit:
            sys.set_int_max_str_digits(digit_limit)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the flush at
        # shutdown does not raise again, and exit as a process killed by
        # SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entry()
