"""Exact arithmetic foundation: univariate polynomials over the rationals,
and elements a + b*sqrt(D) of a real quadratic field.

Rationals are ``fractions.Fraction`` (always reduced, positive denominator).
A polynomial is held as integer coefficients ``ints`` over one positive
integer ``den``, in lowest terms, and every algorithm reads the integers:
a product is one ``intlinalg.poly_mul`` (the one polynomial product of the
package) over the product of the denominators, division is one integer
pseudo-division ``_pseudo_divmod``, shared with the gcd, and a gcd is
certified coprime modulo a prime or runs as a primitive polynomial
remainder sequence, which keeps coefficient growth in check.  The
mod-p Euclid of the certificate runs on 128-bit lanes of one integer per
polynomial, a few big-integer operations per step; its primes lie below
2^30 so that a lane stays below 2^64 between two Barrett reductions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError, ParseError
from .intlinalg import IntMatrix2, is_squarefree, poly_mul


# ---------------------------------------------------------------------------
# polynomials over Q


def _trim(v: list) -> list:
    while v and v[-1] == 0:
        v.pop()
    return v


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int], int]:
    """Integer pseudo-division of coefficient lists, lowest degree first,
    b nonzero: (q, r, s) with s*a = q*b + r and deg r < deg b.  s is a
    power of b's leading coefficient, taken only at steps where that
    coefficient does not divide the leading term."""
    db = len(b) - 1
    lcb = b[-1]
    q = [0] * max(len(a) - db, 0)
    r = list(a)
    s = 1
    while len(r) > db:
        f, rem = divmod(r[-1], lcb)
        if rem:
            f = r[-1]
            r = [lcb * c for c in r]
            q = [lcb * c for c in q]
            s *= lcb
        d = len(r) - 1 - db
        q[d] += f
        for i, bc in enumerate(b):
            r[i + d] -= f * bc
        _trim(r)
    return q, r, s


def _prs_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive PRS gcd of nonzero integer coefficient lists, up to a
    scalar."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_divmod(a, b)[1]
        g = gcd(*r) or 1
        a, b = b, [c // g for c in r]
    return a


_COPRIMALITY_PRIMES = (1073741789, 1073741783, 999999937)


_LANE = b"\xff" * 8 + b"\x00" * 8  # the low 64 bits of a 128-bit lane


def _drop_zero_lanes(A: int, d: int, p: int) -> tuple[int, int]:
    """A with its top lanes from lane d down that are 0 mod p removed, and
    the index of its new top lane (-1 when none is left)."""
    while d >= 0:
        top = A >> (128 * d)
        if top % p:
            break
        A -= top << (128 * d)
        d -= 1
    return A, d


def _gfp_gcd_degree(a: list[int], b: list[int], p: int) -> int:
    """Degree of gcd(a mod p, b mod p) over GF(p), for a prime p < 2^30.

    A polynomial is one integer whose 128-bit lanes hold its coefficients,
    lowest degree first, as non-negative representatives mod p, so each
    Euclid step is a few big-integer operations, not a loop over the
    coefficients.  Both operands and every remainder keep a top lane that
    is nonzero mod p.  A quotient step adds c B << 128 (da - db), with c in
    [1, p) chosen so that the top lane becomes 0 mod p, and drops the top
    lanes that are 0 mod p.  One Barrett step, A - p (((A m) >> 64) & low)
    with m = floor(2^64 / p) and low the low 64 bits of every lane, brings
    every lane of A below 2p at once; it runs after every 6 quotient steps
    and whenever a remainder becomes the divisor.  The lanes of a divisor
    are then below 2p, so a step adds less than 2 p^2 to a lane, and as
    p < 2^30 a lane stays below 2p + 12 p^2 < 2^64 between two Barrett
    steps.  So A m never carries from one lane into the next (each lane's
    product is below 2^128), the quotient a lane reads is floor(a_i m /
    2^64) >= floor(a_i / p) - 1, and no lane goes negative."""
    m = (1 << 64) // p
    low = int.from_bytes(_LANE * max(len(a), len(b)), "little")

    def lanes(v: list[int]) -> int:
        return int.from_bytes(b"".join((c % p).to_bytes(16, "little") for c in v), "little")

    A, da = _drop_zero_lanes(lanes(a), len(a) - 1, p)
    B, db = _drop_zero_lanes(lanes(b), len(b) - 1, p)
    while db >= 0:
        neg_inv = -pow((B >> (128 * db)) % p, -1, p)
        steps = 0
        while da >= db:
            shift = 128 * da
            A += ((A >> shift) * neg_inv % p * B) << (shift - 128 * db)
            A, da = _drop_zero_lanes(A, da, p)
            steps += 1
            if steps == 6:
                A -= p * (((A * m) >> 64) & low)
                steps = 0
        A -= p * (((A * m) >> 64) & low)
        A, B, da, db = B, A, db, da
    return da


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
    """Univariate polynomial over Q: the integer coefficients ``ints``,
    lowest degree first with no trailing zero, over the positive integer
    ``den``, in lowest terms (``den`` is the least common denominator of
    the coefficients)."""

    __slots__ = ("ints", "den")

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def _from_ints(cls, ints, den: int = 1) -> "Poly":
        """The polynomial with integer coefficients ints over den != 0."""
        p = object.__new__(cls)
        p._set(list(ints), den)
        return p

    def _set(self, ints: list[int], den: int) -> None:
        _trim(ints)
        if den != 1:
            g = gcd(den, *ints) * (-1 if den < 0 else 1)
            if g != 1:
                ints = [c // g for c in ints]
                den //= g
        object.__setattr__(self, "ints", tuple(ints))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def x(cls) -> "Poly":
        return cls._from_ints((0, 1))

    @classmethod
    def one(cls) -> "Poly":
        return cls._from_ints((1,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.ints)

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    def coefficient(self, i: int) -> Fraction:
        return Fraction(self.ints[i], self.den) if 0 <= i < len(self.ints) else Fraction(0)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ints == other.ints and self.den == other.den

    def __hash__(self):
        return hash((self.ints, self.den))

    def __bool__(self):
        return bool(self.ints)

    def __add__(self, other: "Poly") -> "Poly":
        den = lcm(self.den, other.den)
        a = [den // self.den * c for c in self.ints]
        b = [den // other.den * c for c in other.ints]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return Poly._from_ints(a, den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -other

    def __neg__(self) -> "Poly":
        return Poly._from_ints([-c for c in self.ints], self.den)

    def __mul__(self, other):
        if isinstance(other, Poly):
            return Poly._from_ints(poly_mul(self.ints, other.ints), self.den * other.den)
        k = Fraction(other)
        return Poly._from_ints([c * k.numerator for c in self.ints], self.den * k.denominator)

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """With s*A = q*B + r for self = A/a and other = B/b:
        self = (q*b / (s*a)) * other + r / (s*a)."""
        if other.is_zero:
            raise DomainError("division by the zero polynomial")
        q, r, s = _pseudo_divmod(self.ints, other.ints)
        return (
            Poly._from_ints([c * other.den for c in q], s * self.den),
            Poly._from_ints(r, s * self.den),
        )

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def monic(self) -> "Poly":
        return Poly._from_ints(self.ints, self.ints[-1]) if self.ints else self

    def derivative(self) -> "Poly":
        return Poly._from_ints([i * c for i, c in enumerate(self.ints)][1:], self.den)

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor."""
        if self.is_zero:
            return other.monic()
        if other.is_zero:
            return self.monic()
        if self.degree == 0 or other.degree == 0:
            return Poly.one()  # a nonzero constant is a unit
        if _provably_coprime(self.ints, other.ints):
            return Poly.one()
        return Poly._from_ints(_prs_gcd(self.ints, other.ints)).monic()

    def squarefree_part(self) -> "Poly":
        """Monic product of the distinct irreducible factors."""
        if self.is_zero:
            raise DomainError("the zero polynomial has no square-free part")
        g = self.gcd(self.derivative())
        if g.degree == 0:
            return self.monic()
        q, r = divmod(self, g)
        if not r.is_zero:
            raise ArithmeticError("gcd must divide exactly")
        return q.monic()

    def to_text(self) -> str:
        return ",".join(str(c) for c in self.coeffs) or "0"

    @classmethod
    def from_text(cls, text: str) -> "Poly":
        try:
            return cls(tuple(Fraction(tok.strip()) for tok in text.strip().split(",")))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad polynomial text {text!r}") from exc

    def pretty(self, var: str = "x") -> str:
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
        return "".join(parts) or "0"

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
        try:
            a, b = Fraction(m.group(1)), Fraction(m.group(3))
        except ZeroDivisionError as exc:
            raise ParseError(f"bad field element text {text!r}") from exc
        return cls(a, -b if m.group(2) == "-" else b, int(m.group(4)))


def companion_matrix(eps: QuadElem) -> IntMatrix2:
    """Integer matrix ((0, 1), (-N, Tr)) of an integral irrational element."""
    if not eps.is_integral:
        raise DomainError("epsilon must be integral: integer a and b")
    if eps.b == 0:
        raise DomainError("epsilon must be irrational (b != 0): a rational integer has no quadratic companion matrix")
    return IntMatrix2(0, 1, -int(eps.norm()), int(eps.trace()))
