"""Pseudo-lattices Z + Z*theta in a real quadratic field.

Rescaling by an integral field element eps produces the sublattice
eps*(Z + Z*theta); its column Hermite form [[a, b], [0, c]] in the basis
(1, theta) yields the index a*c and the normalized generator
theta' = (b + c*theta)/a, so eps*L = a*(Z + Z*theta').
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .cfrac import IntMatrix2, QuadSurd, expand, period_matrix
from .errors import DomainError, ParseError
from .exactnum import QuadElem
from .intlinalg import xgcd


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

    def theta_elem(self) -> QuadElem:
        return QuadElem.from_surd(self.theta)

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
    u1, u2 = M.a, M.b
    v1, v2 = M.c, M.d
    g, x, y = xgcd(v1, v2)
    if g == 0:
        a, b, c = u1, u2, 0  # unreachable for nonsingular M
    else:
        a = (v2 // g) * u1 - (v1 // g) * u2
        b = x * u1 + y * u2
        c = g
    if a < 0:
        a = -a
    b %= a
    return IntMatrix2(a, b, 0, c)


def _affine_surd(t: QuadSurd, add: int, mul: int, div: int) -> QuadSurd:
    """The surd (add + mul*t)/div for mul > 0, div != 0."""
    return QuadSurd(mul * t.P + add * t.Q, t.Q * div, mul * mul * t.D)


def scale_lattice(L: PseudoLattice, eps: QuadElem) -> SublatticeData:
    """Hermite-normalized description of the sublattice eps*L of L."""
    theta = L.theta_elem()
    if eps.D != theta.D:
        raise DomainError(
            f"epsilon lies in Q(sqrt({eps.D})), the lattice in Q(sqrt({theta.D}))"
        )
    if not eps.is_integral:
        raise DomainError("epsilon must be integral: integer a and b")
    if eps.is_zero:
        raise DomainError("epsilon must be nonzero")

    def coords(xi: QuadElem) -> tuple[int, int]:
        v = xi.b / theta.b
        u = xi.a - v * theta.a
        if u.denominator != 1 or v.denominator != 1:
            raise DomainError("not an endomorphism of this pseudo-lattice")
        return int(u), int(v)

    u1, v1 = coords(eps)
    u2, v2 = coords(eps * theta)
    M = IntMatrix2(u1, u2, v1, v2)
    H = hnf2(M)
    theta_p = _affine_surd(L.theta, H.b, H.d, H.a)
    return SublatticeData(H, abs(M.det()), PseudoLattice(theta_p))


def stationary_matrix(L: PseudoLattice, eps: QuadElem) -> IntMatrix2:
    """Period matrix of the normalized generator of eps*L.

    The generator is translated into (0, 1) before expansion; translations
    change only the preperiod, never the period.
    """
    t = scale_lattice(L, eps).normalized.theta
    frac = t.translate(-t.floor())
    return period_matrix(expand(frac))
