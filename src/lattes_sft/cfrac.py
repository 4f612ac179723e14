"""Periodic continued fractions of real quadratic irrationals.

A quadratic surd is kept in the classical integer form (P + sqrt(D))/Q with
Q dividing D - P*P, which makes the expansion recurrence

    a = floor((P + sqrt(D)) / Q),   P' = a*Q - P,   Q' = (D - P'*P') / Q

purely integral.  By Galois's theorem the expansion of a surd is purely
periodic exactly when the surd is reduced (x > 1 and -1 < x' < 0), so the
period starts at the first reduced state and ends when that state comes
back: the preperiod is as short as possible and the period is a minimal
cycle, with no table of visited states.  The period matrix is a balanced
product, so its few large products run at the interpreter's fast
(Karatsuba) multiplication instead of a quadratic left-to-right fold.

Work is bounded: ``expand`` computes at most ``EXPAND_BUDGET`` partial
quotients in each of its two phases; past that bound it raises
``BudgetExceededError``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import BudgetExceededError, DomainError, ParseError
# square_part stays importable from here, where callers and tests look it up.
from .intlinalg import IntMatrix2, is_square, mat2_mul, square_part  # noqa: F401

# Most partial quotients expand computes for the preperiod, and again for
# the period, before it gives up.
EXPAND_BUDGET = 10**6

# Partial quotients folded by plain recurrence into one leaf matrix of the
# balanced product in period_matrix.
_PERIOD_CHUNK = 32

_SURD_RE = re.compile(
    r"^\(\s*(-?\d+)\s*\+\s*sqrt\(\s*(\d+)\s*\)\s*\)\s*/\s*(-?\d+)$"
)


@dataclass(frozen=True, eq=False)
class QuadSurd:
    """The real quadratic irrational (P + sqrt(D))/Q."""

    P: int
    Q: int
    D: int

    def __post_init__(self):
        if self.Q == 0:
            raise DomainError("surd denominator Q must be nonzero")
        if self.D <= 0 or is_square(self.D):
            raise DomainError("D must be positive and not a perfect square")
        if (self.D - self.P * self.P) % self.Q != 0:
            # rescale so that Q | D - P*P; the value is unchanged
            q = abs(self.Q)
            object.__setattr__(self, "P", self.P * q)
            object.__setattr__(self, "D", self.D * q * q)
            object.__setattr__(self, "Q", self.Q * q)

    def __eq__(self, other) -> bool:
        """Equal values: the value is P/Q + sign(Q)*sqrt(D/Q^2), and D/Q^2 is
        not a rational square, so P/Q, D/Q^2 and the sign of Q fix it.
        Compared by cross-multiplication, with nothing factored."""
        if not isinstance(other, QuadSurd):
            return NotImplemented
        return (
            self.P * other.Q == other.P * self.Q
            and self.D * other.Q * other.Q == other.D * self.Q * self.Q
            and (self.Q > 0) == (other.Q > 0)
        )

    def __hash__(self):
        return hash((Fraction(self.P, self.Q), Fraction(self.D, self.Q * self.Q), self.Q > 0))

    def floor(self) -> int:
        s = isqrt(self.D)
        if self.Q > 0:
            return (self.P + s) // self.Q
        return -((self.P + s) // -self.Q) - 1

    def translate(self, k: int) -> "QuadSurd":
        """The surd plus the integer k."""
        return QuadSurd(self.P + k * self.Q, self.Q, self.D)

    def is_positive(self) -> bool:
        num_pos = self.P >= 0 or self.P * self.P < self.D
        return num_pos if self.Q > 0 else not num_pos

    def cmp_fraction(self, r: Fraction) -> int:
        """Sign of (self - r), computed exactly (never 0: self is irrational)."""
        t = Fraction(r) * self.Q - self.P  # compare sqrt(D) with t, up to sign(Q)
        if t < 0:
            s = 1
        else:
            s = 1 if self.D > t * t else -1
        return s if self.Q > 0 else -s

    def __str__(self) -> str:
        return f"({self.P}+sqrt({self.D}))/{self.Q}"

    @classmethod
    def parse(cls, text: str) -> "QuadSurd":
        m = _SURD_RE.match(text.strip())
        if not m:
            raise ParseError(f"bad surd text {text!r}; expected '(P+sqrt(D))/Q'")
        return cls(int(m.group(1)), int(m.group(3)), int(m.group(2)))


@dataclass(frozen=True)
class ContinuedFraction:
    """Eventually periodic continued fraction: preperiod then repeating period."""

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "preperiod", tuple(map(int, self.preperiod)))
        object.__setattr__(self, "period", tuple(map(int, self.period)))
        if not self.period:
            raise DomainError("period must be nonempty")
        if min(self.period) < 1:
            raise DomainError("period entries must be >= 1")
        if min(self.preperiod[1:], default=1) < 1:
            raise DomainError("preperiod entries after the first must be >= 1")

    def quotients(self, n: int) -> list[int]:
        """First n partial quotients, cycling through the period."""
        out = list(self.preperiod[:n])
        i = 0
        while len(out) < n:
            out.append(self.period[i % len(self.period)])
            i += 1
        return out

    def __str__(self) -> str:
        pre = ",".join(map(str, self.preperiod))
        per = ",".join(map(str, self.period))
        return f"[{pre};({per})]"

    @classmethod
    def parse(cls, text: str) -> "ContinuedFraction":
        t = text.strip()
        m = re.match(r"^\[([0-9,\-\s]*);\(([0-9,\s]+)\)\]$", t)
        if not m:
            raise ParseError(f"bad continued fraction text {text!r}")
        pre = [int(v) for v in m.group(1).split(",") if v.strip() != ""]
        per = [int(v) for v in m.group(2).split(",") if v.strip() != ""]
        return cls(tuple(pre), tuple(per))


def surd_step(P: int, Q: int, D: int, a: int) -> tuple[int, int]:
    """The integer form (P', Q') of 1/((P + sqrt(D))/Q - a), with D kept."""
    P = a * Q - P
    return P, (D - P * P) // Q


def expand(x: QuadSurd) -> ContinuedFraction:
    """Exact eventually periodic continued fraction of a quadratic surd."""
    P, Q, D = x.P, x.Q, x.D
    s = isqrt(D)
    preperiod: list[int] = []
    # reduced: 0 < P < sqrt(D) and sqrt(D) - P < Q < sqrt(D) + P
    while not (0 < P <= s and s - P < Q <= s + P):
        if len(preperiod) == EXPAND_BUDGET:
            raise BudgetExceededError(
                f"preperiod of {x} exceeds the expansion budget of {EXPAND_BUDGET} quotients "
                f"(EXPAND_BUDGET = {EXPAND_BUDGET})"
            )
        a = (P + s) // Q if Q > 0 else -((P + s) // -Q) - 1
        preperiod.append(a)
        P, Q = surd_step(P, Q, D, a)
    P0, Q0 = P, Q
    period: list[int] = []
    for _ in range(EXPAND_BUDGET):
        # A reduced state has Q > 0, and every later state is reduced.  The
        # step is surd_step, inlined: a call per quotient would cost half
        # again the time of this loop on long periods.
        a = (P + s) // Q
        period.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
        if P == P0 and Q == Q0:
            break
    else:
        raise BudgetExceededError(
            f"period of {x} exceeds the expansion budget of {EXPAND_BUDGET} quotients "
            f"(EXPAND_BUDGET = {EXPAND_BUDGET})"
        )
    return ContinuedFraction(tuple(preperiod), tuple(period))


def period_matrix(cf: ContinuedFraction) -> IntMatrix2:
    """Product of ((a, 1), (1, 0)) over the period, in order.

    Each chunk of the period is folded by the convergent recurrence, whose
    matrix is ((p_k, p_{k-1}), (q_k, q_{k-1})); the chunk matrices are then
    multiplied in a balanced tree, in order, as entry 4-tuples, which cost
    less per node than IntMatrix2 objects."""
    period = cf.period
    mats = []
    for i in range(0, len(period), _PERIOD_CHUNK):
        p, p1, q, q1 = 1, 0, 0, 1
        for a in period[i : i + _PERIOD_CHUNK]:
            p, p1 = a * p + p1, p
            q, q1 = a * q + q1, q
        mats.append((p, p1, q, q1))
    while len(mats) > 1:
        paired = [mat2_mul(mats[i], mats[i + 1]) for i in range(0, len(mats) - 1, 2)]
        if len(mats) % 2:
            paired.append(mats[-1])
        mats = paired
    return IntMatrix2(*mats[0])


def convergents(cf: ContinuedFraction, n: int) -> list[Fraction]:
    """First n convergents p_i/q_i by the standard recurrence."""
    if n < 1:
        raise DomainError("need at least one convergent")
    pm1, pm2 = 1, 0
    qm1, qm2 = 0, 1
    out = []
    for a in cf.quotients(n):
        p = a * pm1 + pm2
        q = a * qm1 + qm2
        out.append(Fraction(p, q))
        pm2, pm1 = pm1, p
        qm2, qm1 = qm1, q
    return out
