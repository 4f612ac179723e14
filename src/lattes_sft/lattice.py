"""Pseudo-lattices Z + Z*theta in a real quadratic field.

Rescaling by an integral field element eps produces the sublattice
eps*(Z + Z*theta); its column Hermite form [[a, b], [0, c]] in the basis
(1, theta) yields the index a*c and the normalized generator
theta' = (b + c*theta)/a, so eps*L = a*(Z + Z*theta').

The matrix of eps in the basis (1, theta) is computed on integers.  With
theta = (P + sqrt(Dt))/Q, Q | Dt - P*P, eps = a + b*sqrt(d) and d
square-free, theta lies in Q(sqrt(d)) exactly when d | Dt and Dt/d is a
square m*m.  Then, with N = (Dt - P*P)/Q,

    eps       = (a - b*P/m) + (b*Q/m)*theta
    eps*theta = (b*N/m) + (a + b*P/m)*theta

so eps maps L into itself exactly when m divides b*P, b*Q and b*N.  The
period matrix of the normalized generator is left to
``pipeline.functor_invariants``, which checks it against its continued
fraction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd, isqrt

from .cfrac import QuadSurd
from .errors import DomainError, ParseError
from .exactnum import QuadElem
from .intlinalg import IntMatrix2, is_square, square_part


@dataclass(frozen=True)
class PseudoLattice:
    """The rank-2 subgroup Z + Z*theta of the real line, theta > 0 irrational."""

    theta: QuadSurd

    def __post_init__(self):
        if not self.theta.is_positive():
            raise DomainError("lattice generator theta must be positive")

    @classmethod
    def from_sqrt(cls, D: int) -> "PseudoLattice":
        return cls(QuadSurd(0, 1, D))

    def __str__(self) -> str:
        return f"Z+Z*{self.theta}"

    @classmethod
    def parse(cls, text: str) -> "PseudoLattice":
        m = re.match(r"^Z\+Z\*(.+)$", text.strip())
        if not m:
            raise ParseError(f"bad lattice text {text!r}; expected 'Z+Z*(P+sqrt(D))/Q'")
        return cls(QuadSurd.parse(m.group(1)))


@dataclass(frozen=True)
class SublatticeData:
    basis_matrix: IntMatrix2
    index: int
    normalized: PseudoLattice

    def __post_init__(self):
        if self.index != abs(self.basis_matrix.det()):
            raise DomainError("index must equal |det(basis_matrix)|")


def hnf2(M: IntMatrix2) -> IntMatrix2:
    """Column Hermite form [[a, b], [0, c]] with a, c > 0 and 0 <= b < a."""
    if M.det() == 0:
        raise DomainError("sublattice matrix must be nonsingular")
    # a nonsingular M has (M.c, M.d) != (0, 0), so c > 0; any (x, y) with
    # x M.c + y M.d = c will do: two differ by k (M.d, -M.c)/c, moving b by k a
    c = gcd(M.c, M.d)
    x = pow(M.c // c, -1, abs(M.d // c)) if M.d else M.c // c
    y = (c - x * M.c) // M.d if M.d else 0
    a = abs(M.det()) // c
    return IntMatrix2(a, (x * M.a + y * M.b) % a, 0, c)


def _affine_surd(t: QuadSurd, add: int, mul: int, div: int) -> QuadSurd:
    """The surd (add + mul*t)/div for mul > 0, div != 0."""
    return QuadSurd(mul * t.P + add * t.Q, t.Q * div, mul * mul * t.D)


def scale_lattice(L: PseudoLattice, eps: QuadElem) -> SublatticeData:
    """Hermite-normalized description of the sublattice eps*L of L."""
    P, Q, Dt = L.theta.P, L.theta.Q, L.theta.D
    d = eps.D
    if Dt % d or not is_square(Dt // d):
        raise DomainError(
            f"epsilon lies in Q(sqrt({d})), the lattice in Q(sqrt({square_part(Dt)[1]}))"
        )
    if not eps.is_integral:
        raise DomainError("epsilon must be integral: integer a and b")
    if eps.is_zero:
        raise DomainError("epsilon must be nonzero")
    a, b = int(eps.a), int(eps.b)
    m = isqrt(Dt // d)
    bP, bQ, bN = b * P, b * Q, b * ((Dt - P * P) // Q)
    if bP % m or bQ % m or bN % m:
        raise DomainError("not an endomorphism of this pseudo-lattice")
    M = IntMatrix2(a - bP // m, bN // m, bQ // m, a + bP // m)
    H = hnf2(M)
    theta_p = _affine_surd(L.theta, H.b, H.d, H.a)
    return SublatticeData(H, abs(M.det()), PseudoLattice(theta_p))
