"""Elliptic curves y^2 = x^3 + a*x^2 + b*x + c and the x-coordinate doubling
map, in exact arithmetic.

The doubling map descends to the degree-4 rational map

    (x^4 - 2b x^2 - 8c x + b^2 - 4ac) / (4 (x^3 + a x^2 + b x + c)),

which is the expansion of lambda^2 - a - 2x for the tangent slope
lambda = (3x^2 + 2ax + b)/(2y) on the curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DomainError, ParseError
from .exactnum import Poly


@dataclass(frozen=True)
class EllipticCurve:
    a: Fraction
    b: Fraction
    c: Fraction
    cm_D: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "c", Fraction(self.c))
        rhs = self.rhs()
        if rhs.gcd(rhs.derivative()).degree > 0:
            raise DomainError("singular curve: x^3+ax^2+bx+c has a repeated root")

    def rhs(self) -> Poly:
        return Poly((self.c, self.b, self.a, Fraction(1)))

    def __str__(self) -> str:
        return f"{self.a},{self.b},{self.c}"

    @classmethod
    def parse(cls, text: str, cm_D: int | None = None) -> "EllipticCurve":
        toks = text.strip().split(",")
        if len(toks) != 3:
            raise ParseError(f"bad curve text {text!r}; expected 'a,b,c'")
        try:
            a, b, c = (Fraction(t.strip()) for t in toks)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad curve text {text!r}") from exc
        return cls(a, b, c, cm_D)


@dataclass(frozen=True)
class RationalMap:
    """A rational self-map num/den of the projective line, held in lowest
    terms with integer-primitive coefficients and positive denominator lead;
    so both ``num.den`` and ``den.den`` are 1.

    The public constructor (and ``parse``) divides out gcd(num, den), as
    input can share a factor.  ``_coprime`` builds the map from integer
    coefficient lists already known to be coprime, such as a composition of
    two maps in lowest terms, and divides out only their integer content."""

    num: Poly
    den: Poly

    def __post_init__(self):
        num, den = self.num, self.den
        if den.is_zero:
            raise DomainError("zero denominator")
        if num.is_zero:
            raise DomainError("the zero map is not a self-map of degree >= 1")
        g = num.gcd(den)
        if g.degree > 0:
            num //= g
            den //= g
        # num/den = (num.ints * den.den) / (den.ints * num.den)
        self._set([c * den.den for c in num.ints], [c * num.den for c in den.ints])
        if self.degree < 1:
            raise DomainError("constant map")

    @classmethod
    def _coprime(cls, num: list[int], den: list[int]) -> "RationalMap":
        """The map num/den for coprime integer coefficient lists, lowest
        degree first; only the integer content and the sign are normalised."""
        m = object.__new__(cls)
        m._set(num, den)
        return m

    def _set(self, num: list[int], den: list[int]) -> None:
        num, den = Poly._from_ints(num), Poly._from_ints(den)
        content = gcd(*num.ints, *den.ints) * (-1 if den.ints[-1] < 0 else 1)
        if content != 1:
            num = Poly._from_ints([c // content for c in num.ints])
            den = Poly._from_ints([c // content for c in den.ints])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def degree(self) -> int:
        return max(self.num.degree, self.den.degree)

    def __str__(self) -> str:
        return f"{self.num.to_text()} / {self.den.to_text()}"

    @classmethod
    def parse(cls, text: str) -> "RationalMap":
        if " / " in text:
            ntext, dtext = text.split(" / ", 1)
        else:
            parts = text.split("/")
            if len(parts) != 2:
                raise ParseError(
                    f"bad map text {text!r}; expected 'num_coeffs / den_coeffs'"
                )
            ntext, dtext = parts
        return cls(Poly.from_text(ntext), Poly.from_text(dtext))


def duplication_map(E: EllipticCurve) -> RationalMap:
    """x-coordinate of point doubling on E, a degree-4 rational map."""
    a, b, c = E.a, E.b, E.c
    num = Poly((b * b - 4 * a * c, -8 * c, -2 * b, Fraction(0), Fraction(1)))
    den = Poly((4 * c, 4 * b, 4 * a, Fraction(4)))
    return RationalMap(num, den)

