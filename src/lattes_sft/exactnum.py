"""Exact arithmetic foundation: arbitrary-precision rationals, univariate
polynomials over the rationals, and elements a + b*sqrt(D) of a real
quadratic field.

Rationals are ``fractions.Fraction`` (always reduced, positive denominator);
the alias ``Rational`` is exported for callers.  Polynomial arithmetic
that grows coefficients runs over the integers: a product clears the
denominators of both factors once and multiplies with
``intlinalg.poly_mul``, the one polynomial product of the package, and a
gcd is certified coprime modulo a prime or runs as a primitive polynomial
remainder sequence, which keeps coefficient growth in check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError, ParseError
from .intlinalg import IntMatrix2, is_squarefree, poly_mul

Rational = Fraction


# ---------------------------------------------------------------------------
# polynomials over Q


def _trim(v: list) -> list:
    while v and v[-1] == 0:
        v.pop()
    return v


def _int_content(v: list[int]) -> int:
    g = 0
    for c in v:
        g = gcd(g, abs(c))
    return g or 1


def _int_primitive(v: list[int]) -> list[int]:
    g = _int_content(v)
    return [c // g for c in v]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Remainder of (scalar multiple of a) by b, fraction-free."""
    r = list(a)
    db = len(b) - 1
    lcb = b[-1]
    while r and len(r) - 1 >= db:
        lr = r[-1]
        d = len(r) - 1 - db
        r = [lcb * c for c in r]
        for i, bc in enumerate(b):
            r[i + d] -= lr * bc
        _trim(r)
    return r


def _prs_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive PRS gcd of integer coefficient lists (lowest degree first)."""
    a = _int_primitive(_trim(list(a)))
    b = _int_primitive(_trim(list(b)))
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _trim(_pseudo_rem(a, b))
        a, b = b, (_int_primitive(r) if r else [])
    return a


_COPRIMALITY_PRIMES = (2**61 - 1, 2**31 - 1, 999999937)


def _gfp_gcd_degree(a: list[int], b: list[int], p: int) -> int:
    """Degree of gcd(a mod p, b mod p) over GF(p)."""
    a = _trim([c % p for c in a])
    b = _trim([c % p for c in b])
    while b:
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        r = list(a)
        while r and len(r) - 1 >= db:
            f = (r[-1] * inv) % p
            d = len(r) - 1 - db
            for i, bc in enumerate(b):
                r[i + d] = (r[i + d] - f * bc) % p
            _trim(r)
        a, b = b, r
    return len(a) - 1


def _provably_coprime(a: list[int], b: list[int]) -> bool:
    """One mod-p gcd of degree 0 certifies gcd = 1 over Q: for p dividing
    neither leading coefficient, the mod-p gcd degree bounds the rational
    gcd degree from above.  A nonzero mod-p degree proves nothing."""
    for p in _COPRIMALITY_PRIMES:
        if a[-1] % p == 0 or b[-1] % p == 0:
            continue
        return _gfp_gcd_degree(a, b, p) == 0
    return False


class Poly:
    """Univariate polynomial over Q, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def lc(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        return self.coeffs[-1]

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            tuple(self.coefficient(i) + other.coefficient(i) for i in range(n))
        )

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            tuple(self.coefficient(i) - other.coefficient(i) for i in range(n))
        )

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Poly):
            (sa, a), (sb, b) = self._int_coeffs(), other._int_coeffs()
            return Poly(Fraction(c, sa * sb) for c in poly_mul(a, b))
        return Poly(tuple(c * Fraction(other) for c in self.coeffs))

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise DomainError("division by the zero polynomial")
        q = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 1)
        r = list(self.coeffs)
        dlc = other.lc()
        db = other.degree
        while len(r) - 1 >= db and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < db:
                break
            f = r[-1] / dlc
            d = len(r) - 1 - db
            q[d] = f
            for i, bc in enumerate(other.coeffs):
                r[i + d] -= f * bc
            r.pop()
        return Poly(q), Poly(r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self * (1 / self.lc())

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor."""
        if self.is_zero:
            return other.monic()
        if other.is_zero:
            return self.monic()
        a, b = self._int_coeffs()[1], other._int_coeffs()[1]
        if _provably_coprime(a, b):
            return Poly.one()
        g = _prs_gcd(a, b)
        return Poly(g).monic()

    def squarefree_part(self) -> "Poly":
        """Monic product of the distinct irreducible factors."""
        if self.is_zero:
            raise DomainError("the zero polynomial has no square-free part")
        g = self.gcd(self.derivative())
        q, r = divmod(self, g)
        if not r.is_zero:
            raise ArithmeticError("gcd must divide exactly")
        return q.monic()

    def _int_coeffs(self) -> tuple[int, list[int]]:
        """(s, v): s is the least positive integer making s * self
        integral, and v lists the coefficients of s * self."""
        scale = lcm(*(c.denominator for c in self.coeffs)) if self.coeffs else 1
        return scale, [c.numerator * (scale // c.denominator) for c in self.coeffs]

    def eval_mp(self, z):
        """Horner evaluation at an mpmath number, in the caller's precision."""
        from mpmath import mpf

        out = z * 0
        for c in reversed(self.coeffs):
            out = out * z + mpf(c.numerator) / c.denominator
        return out

    def to_text(self) -> str:
        if self.is_zero:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    @classmethod
    def from_text(cls, text: str) -> "Poly":
        try:
            return cls(tuple(Fraction(tok.strip()) for tok in text.strip().split(",")))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad polynomial text {text!r}") from exc

    def pretty(self, var: str = "x") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                coeff = "" if mag == 1 else (
                    f"({mag})" if mag.denominator != 1 else str(mag)
                )
                power = var if i == 1 else f"{var}^{i}"
                body = coeff + power
            sign = "-" if c < 0 else ("+" if parts else "")
            parts.append(sign + body)
        return "".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Poly({self.to_text()!r})"


# ---------------------------------------------------------------------------
# real quadratic field elements


_ELEM_RE = re.compile(
    r"^(-?\d+(?:/\d+)?)\s*([+-])\s*(-?\d+(?:/\d+)?)\s*\*\s*sqrt\(\s*(\d+)\s*\)$"
)


@dataclass(frozen=True)
class QuadElem:
    """The element a + b*sqrt(D) of Q(sqrt(D)), D square-free."""

    a: Fraction
    b: Fraction
    D: int

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.D <= 1 or not is_squarefree(self.D):
            raise DomainError("D must be a square-free integer > 1")

    def _check(self, other: "QuadElem") -> None:
        if self.D != other.D:
            raise DomainError(f"mismatched fields: sqrt({self.D}) vs sqrt({other.D})")

    def __add__(self, other: "QuadElem") -> "QuadElem":
        self._check(other)
        return QuadElem(self.a + other.a, self.b + other.b, self.D)

    def __sub__(self, other: "QuadElem") -> "QuadElem":
        self._check(other)
        return QuadElem(self.a - other.a, self.b - other.b, self.D)

    def __neg__(self) -> "QuadElem":
        return QuadElem(-self.a, -self.b, self.D)

    def __mul__(self, other: "QuadElem") -> "QuadElem":
        self._check(other)
        return QuadElem(
            self.a * other.a + self.b * other.b * self.D,
            self.a * other.b + self.b * other.a,
            self.D,
        )

    def __truediv__(self, other: "QuadElem") -> "QuadElem":
        self._check(other)
        n = other.norm()
        if n == 0:
            raise DomainError("division by zero")
        return QuadElem(
            (self.a * other.a - self.b * other.b * self.D) / n,
            (self.b * other.a - self.a * other.b) / n,
            self.D,
        )

    def conjugate(self) -> "QuadElem":
        return QuadElem(self.a, -self.b, self.D)

    def norm(self) -> Fraction:
        return self.a * self.a - self.D * self.b * self.b

    def trace(self) -> Fraction:
        return 2 * self.a

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    @property
    def is_integral(self) -> bool:
        """Membership in Z[sqrt(D)]; half-integer elements are not admitted."""
        return self.a.denominator == 1 and self.b.denominator == 1

    def __str__(self) -> str:
        sep = "-" if self.b < 0 else "+"
        return f"{self.a}{sep}{abs(self.b)}*sqrt({self.D})"

    @classmethod
    def parse(cls, text: str) -> "QuadElem":
        m = _ELEM_RE.match(text.strip())
        if not m:
            raise ParseError(f"bad field element text {text!r}; expected 'a+b*sqrt(D)'")
        b = Fraction(m.group(3))
        if m.group(2) == "-":
            b = -b
        return cls(Fraction(m.group(1)), b, int(m.group(4)))


def companion_matrix(eps: QuadElem) -> IntMatrix2:
    """Integer matrix ((0, 1), (-N, Tr)) of an integral irrational element."""
    if not eps.is_integral:
        raise DomainError("epsilon must be integral: integer a and b")
    if eps.b == 0:
        raise DomainError("epsilon must be irrational (b != 0): a rational integer has no quadratic companion matrix")
    return IntMatrix2(0, 1, -int(eps.norm()), int(eps.trace()))
