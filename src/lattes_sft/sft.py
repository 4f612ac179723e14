"""Subshifts of finite type presented by non-negative integer matrices.

Periodic-point counts come from two independent routes (matrix trace versus
explicit closed-walk enumeration in the edge multigraph), zeta functions from
det(I - tA), and K-type invariants from one Smith normal form (K0 and the
Bowen-Franks group are isomorphic, see ``k_invariants``).  Shift equivalence
is decided by invariant pre-filters followed by a bounded exhaustive search
for a certificate (R, S, k), which satisfies the Sylvester constraints
A R = R B and B S = S A (``shift_equivalent``), and GL2(Z) similarity by a
bounded search for a unimodular conjugator (``gl2z_similar``).  Exhausting
the bounds yields Unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import ENTRY_BOUND, LAG_BOUND, BudgetExceededError, DomainError, ParseError
from .exactnum import Poly
from .intlinalg import (
    IntMatrix2,
    add_scalar,
    charpoly,
    identity,
    is_square,
    lattice_points_in_box,
    lattice_solutions,
    mat_mul,
    mat_pow,
    matrix_text,
    scaled_inverse,
    smith_normal_form,
    sylvester_basis,
    trace,
    unflatten,
)

ENUMERATION_BUDGET = 10**7


@dataclass(frozen=True)
class SFTMatrix:
    """Square non-negative integer matrix defining an edge shift."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise DomainError("matrix must be square and nonempty")
        if any(v < 0 for r in rows for v in r):
            raise DomainError("matrix entries must be non-negative")

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def from_intmatrix2(cls, M: IntMatrix2) -> "SFTMatrix":
        if min(M.entries()) < 0:
            raise DomainError(
                f"matrix {M} has negative entries and defines no edge shift"
            )
        return cls(M.rows())

    @property
    def total_edges(self) -> int:
        return sum(v for r in self.rows for v in r)

    def __str__(self) -> str:
        return matrix_text(self.rows)

    @classmethod
    def parse(cls, text: str) -> "SFTMatrix":
        try:
            rows = tuple(
                tuple(int(v) for v in row.split(",")) for row in text.strip().split(";")
            )
        except ValueError as exc:
            raise ParseError(f"bad matrix text {text!r}") from exc
        return cls(rows)


@dataclass(frozen=True)
class ZetaRational:
    """Rational function num/den in t, coprime, den(0) = 1."""

    num: Poly
    den: Poly

    def __post_init__(self):
        num, den = self.num, self.den
        if den.is_zero:
            raise DomainError("zero denominator")
        g = num.gcd(den)
        if g.degree > 0:
            num //= g
            den //= g
        d0 = den.coefficient(0)
        if d0 == 0:
            raise DomainError("denominator must not vanish at t = 0")
        num *= 1 / d0
        den *= 1 / d0
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def series(self, N: int) -> list[Fraction]:
        """Power-series coefficients through degree N."""
        b = self.den
        out = []
        for k in range(N + 1):
            v = self.num.coefficient(k)
            v -= sum(b.coefficient(j) * out[k - j] for j in range(1, k + 1))
            out.append(v)  # b(0) = 1
        return out

    def __str__(self) -> str:
        n = self.num.pretty("t")
        if self.den == Poly.one():
            return n
        return f"{n}/({self.den.pretty('t')})"


@dataclass(frozen=True)
class AbelianGroupInvariant:
    """Isomorphism type Z^rank + Z/d1 + ... with d1 | d2 | ... , each > 1."""

    rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        if self.rank < 0:
            raise DomainError("rank must be non-negative")
        if any(d <= 1 for d in self.torsion):
            raise DomainError("torsion divisors must exceed 1")
        for x, y in zip(self.torsion, self.torsion[1:]):
            if y % x != 0:
                raise DomainError("torsion divisors must form a divisibility chain")

    @classmethod
    def from_smith_diagonal(cls, diag) -> "AbelianGroupInvariant":
        rank = sum(1 for d in diag if d == 0)
        torsion = tuple(d for d in diag if d > 1)
        return cls(rank, torsion)

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self) -> str:
        if self.is_trivial:
            return "trivial"
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return " x ".join(parts)


@dataclass(frozen=True)
class KInvariants:
    K0: AbelianGroupInvariant
    K1_rank: int
    bowen_franks: AbelianGroupInvariant


@dataclass(frozen=True)
class SECertificate:
    """Witness (R, S, k) for shift equivalence: A R = R B, B S = S A,
    A^k = R S, S R = B^k."""

    R: tuple[tuple[int, ...], ...]
    S: tuple[tuple[int, ...], ...]
    k: int

    def verify(self, A: "SFTMatrix", B: "SFTMatrix") -> bool:
        R, S, k = self.R, self.S, self.k
        a, b = A.rows, B.rows
        return (
            mat_mul(a, R) == mat_mul(R, b)
            and mat_mul(b, S) == mat_mul(S, a)
            and mat_pow(a, k) == mat_mul(R, S)
            and mat_mul(S, R) == mat_pow(b, k)
        )

    @classmethod
    def build(cls, A: "SFTMatrix", B: "SFTMatrix", R, S, k: int) -> "SECertificate":
        cert = cls(tuple(tuple(r) for r in R), tuple(tuple(r) for r in S), int(k))
        if k < 1:
            raise DomainError("lag must be positive")
        if any(v < 0 for M in (cert.R, cert.S) for row in M for v in row):
            raise DomainError("certificate matrices must be non-negative")
        if not cert.verify(A, B):
            raise DomainError("certificate fails the shift-equivalence equations")
        return cert


@dataclass(frozen=True)
class SEResult:
    status: str  # "equivalent" | "not_equivalent" | "unknown"
    certificate: SECertificate | None = None
    witness: str | None = None


@dataclass(frozen=True)
class SimilarityResult:
    status: str  # "similar" | "not_similar" | "unknown"
    T: IntMatrix2 | None = None
    witness: str | None = None


def per_count_trace(A: SFTMatrix, n: int) -> int:
    """Number of n-periodic points of the edge shift, as tr(A^n)."""
    if n < 1:
        raise DomainError("period must be >= 1")
    return trace(mat_pow(A.rows, n))


def _closed_walks(adj, cur: int, start: int, steps: int) -> int:
    if steps == 1:
        return adj[cur].count(start)
    total = 0
    for w in adj[cur]:
        total += _closed_walks(adj, w, start, steps - 1)
    return total


def per_count_enumerate(A: SFTMatrix, n: int) -> int:
    """Independent count of closed edge paths of length n, enumerated
    explicitly in the multigraph with A[i][j] parallel edges i -> j."""
    if n < 1:
        raise DomainError("period must be >= 1")
    edges = A.total_edges
    if edges**n > ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"enumeration budget exceeded: {edges}^{n} closed-walk bound exceeds "
            f"ENUMERATION_BUDGET = {ENUMERATION_BUDGET}"
        )
    adj = [
        [j for j in range(A.n) for _ in range(A.rows[i][j])] for i in range(A.n)
    ]
    return sum(_closed_walks(adj, v, v, n) for v in range(A.n))


def zeta_sft(A: SFTMatrix) -> ZetaRational:
    """The rational zeta function 1/det(I - tA) of the edge shift."""
    # det(I - tA) = t^n det(tI - A) at 1/t: the coefficients reversed
    return ZetaRational(Poly.one(), Poly._from_ints(reversed(charpoly(A.rows))))


def k_invariants(A: SFTMatrix) -> KInvariants:
    """K-group data of the shift matrix from one Smith normal form.

    K0 = Z^n/(I - A^t)Z^n, K1 = ker(I - A^t), Bowen-Franks = Z^n/(I - A)Z^n,
    and K0 = BF because coker(M) = coker(M^t): one Smith diagonal of A - I,
    the same as that of I - A, gives all three.
    """
    bf = AbelianGroupInvariant.from_smith_diagonal(smith_normal_form(add_scalar(A.rows, -1)))
    return KInvariants(K0=bf, K1_rank=bf.rank, bowen_franks=bf)


def _nonsingular_charpoly(rows) -> tuple[int, ...]:
    """Characteristic polynomial with the nilpotent-part factor t^m removed."""
    cs = charpoly(rows)  # monic, so some coefficient is nonzero
    return cs[next(i for i, c in enumerate(cs) if c):]


def _poly_text(cs) -> str:
    return Poly(cs).pretty("t")


# Most entries of the linear systems one search charges: 2 n^2 equations in
# dim{B S = S A} + 1 unknowns per (lag, R), the system that an integer solve
# for a singular R eliminates when det A = 0.  A nonsingular R solves no
# system, but each (lag, R) is charged the same, so the verdict does not
# depend on the path.  Reaching it took 3.4 to 5.6 s as a process for n
# from 4 to 10 with det A = 0 (diag(2, 2, 0, 3, 5, ...) against the same
# with a Jordan block at 2), and 0.2 to 0.7 s for the nonsingular pairs
# diag(2, 2, 2) and diag(2, 2, 3, 5, ...) against a Jordan block, on a
# 2-core container.
SEARCH_BUDGET = 5 * 10**6

# Most n^12 b^2 of the Sylvester systems, n x n with entries of b bits:
# A R = R B, and B S = S A as well when det A = 0.  Their echelon forms took
# 1.3e-13 to 2.2e-13 s times n^12 b^2 each (n = 2..14, b = 1..10^5) on a
# 2-core container, and shift-equiv at bounds 1, eliminating both systems,
# ran 8.6 and 10.4 s as a process at sizes 4.8e13 and 3.6e13.
SYLVESTER_BUDGET = 5 * 10**13


def shift_equivalent(
    A: SFTMatrix, B: SFTMatrix, entry_bound: int = ENTRY_BOUND, lag_bound: int = LAG_BOUND
) -> SEResult:
    """Decide shift equivalence over the non-negative integers within bounds.

    Invariant pre-filters give exact negatives.  A certificate is searched
    for lexicographically by (lag, R, S), so the returned certificate is the
    least one inside the bounds: R runs over the box points of the lattice
    {A R = R B}, read one at a time at lag 1 and kept for later lags with
    its ``scaled_inverse``.  A nonsingular R has the one S = R^-1 A^k, one
    product W A^k and an exact division by |det R|; when det A != 0 it is
    skipped at lag k unless |det R| divides det(A)^k.  A singular R is
    skipped when det A != 0, as det R det S = det(A)^k; when det A = 0 one
    integer solve (``intlinalg.lattice_solutions``) on the lattice
    {B S = S A} gives its least S with R S = A^k and S R = B^k.  Every
    (lag, R) is charged to the budget before its test, so verdicts and
    witnesses do not depend on the path.  Past SEARCH_BUDGET, or past
    BOX_POINT_BUDGET candidates for R reached, the result is unknown.  Past
    the pre-filters, n^12 b^2 over SYLVESTER_BUDGET raises
    BudgetExceededError before any Sylvester system is eliminated.
    A = B short-circuits to the reflexivity certificate (I, A, 1).
    """
    if A.n != B.n:
        raise DomainError("matrices must have the same size")
    if entry_bound < 1 or lag_bound < 1:
        raise DomainError("bounds must be >= 1")
    if A == B:
        cert = SECertificate.build(A, B, identity(A.n), A.rows, 1)
        return SEResult("equivalent", certificate=cert)

    pa, pb = _nonsingular_charpoly(A.rows), _nonsingular_charpoly(B.rows)
    if pa != pb:
        return SEResult(
            "not_equivalent",
            witness=(
                "characteristic polynomials of the nonsingular parts differ "
                f"(trace/determinant data): {_poly_text(pa)} vs {_poly_text(pb)}"
            ),
        )
    bfa = k_invariants(A).bowen_franks
    bfb = k_invariants(B).bowen_franks
    if bfa != bfb:
        return SEResult(
            "not_equivalent",
            witness=f"Bowen-Franks groups differ: {bfa} vs {bfb}",
        )

    bits = max(v.bit_length() for M in (A, B) for r in M.rows for v in r)
    if A.n**12 * bits**2 > SYLVESTER_BUDGET:
        raise BudgetExceededError(
            f"Sylvester systems of n^12 b^2 = {A.n**12 * bits**2} exceed SYLVESTER_BUDGET = {SYLVESTER_BUDGET}"
        )
    r_basis = sylvester_basis(A.rows, B.rows)
    # dim{B S = S A} = dim{A R = R B}: both are the sum, over the common
    # eigenvalues, of min(a, b) over the pairs of Jordan block sizes a of A
    # and b of B
    size = 2 * A.n * A.n * (len(r_basis) + 1)
    work = 0
    # |det A|, 0 when A is singular; only a singular A needs {B S = S A}
    det_a = abs(pa[0]) if len(pa) == A.n + 1 else 0
    s_basis = None if det_a else sylvester_basis(B.rows, A.rows)
    r_points = lattice_points_in_box(r_basis, A.n * A.n, 0, entry_bound)
    # (R, scaled_inverse(R)) of each R read at lag 1
    r_read = []
    # A^k and det(A)^k, or B^k when det A = 0, are running products: one
    # product per lag, made only when some R reads them.  Whether an R reads
    # them depends on R and det A alone, so lag 1 settles it
    Ak, det_ak, Bk, reads = A.rows, det_a, B.rows, False
    try:
        for k in range(1, lag_bound + 1):
            if k > 1 and reads:
                Ak = mat_mul(Ak, A.rows)
                if det_a:
                    det_ak *= det_a
                else:
                    Bk = mat_mul(Bk, B.rows)
            for c in r_points if k == 1 else r_read:
                work += size
                if work > SEARCH_BUDGET:
                    raise BudgetExceededError(f"SEARCH_BUDGET = {SEARCH_BUDGET}")
                if k == 1:
                    R = unflatten(c, A.n)
                    c = R, scaled_inverse(R)
                    r_read.append(c)
                R, inv = c
                if not inv and det_a:
                    continue  # det R det S = 0 != det(A)^k
                reads = True
                if inv:
                    d, W = inv  # d = |det R|, W = d R^-1
                    if det_a and det_ak % d:
                        continue  # no integer S has R S = A^k
                    # S = R^-1 A^k has B S = S A and S R = B^k as A R = R B
                    dS = mat_mul(W, Ak)
                    hi = d * entry_bound
                    if any(not 0 <= v <= hi or v % d for row in dS for v in row):
                        continue
                    S = tuple(tuple(v // d for v in row) for row in dS)
                else:
                    # R S = A^k stacked on S R = B^k
                    f = lambda S: mat_mul(R, S) + mat_mul(S, R)  # noqa: E731
                    S = next(lattice_solutions(s_basis, A.n, f, Ak + Bk, entry_bound), None)
                    if S is None:
                        continue
                cert = SECertificate.build(A, B, R, S, k)
                return SEResult("equivalent", certificate=cert)
    except BudgetExceededError:
        return SEResult(
            "unknown", witness="search budget exceeded before exhausting bounds"
        )
    return SEResult(
        "unknown",
        witness=f"no certificate with entries <= {entry_bound} and lag <= {lag_bound}",
    )


def gl2z_similar(A: IntMatrix2, B: IntMatrix2) -> SimilarityResult:
    """Decide GL2(Z) similarity A' = T^{-1} A T within ENTRY_BOUND: the T
    with A T = T B and entries in [-ENTRY_BOUND, ENTRY_BOUND] are read in
    signed order (``lattice_points_in_box``), and the first unimodular one,
    the least in that order, is returned."""
    if A == B:
        return SimilarityResult("similar", T=IntMatrix2.identity())
    if (A.trace(), A.det()) != (B.trace(), B.det()):
        return SimilarityResult(
            "not_similar",
            witness=(
                f"characteristic polynomials differ: trace {A.trace()} vs "
                f"{B.trace()}, determinant {A.det()} vs {B.det()}"
            ),
        )
    tr, dt = A.trace(), A.det()
    disc = tr * tr - 4 * dt
    if disc >= 0 and is_square(disc):
        # s*s = tr*tr - 4*dt, so s and tr have the same parity
        s = isqrt(disc)
        for lam in ((tr + s) // 2, (tr - s) // 2):
            dA = smith_normal_form(add_scalar(A.rows(), -lam))
            dB = smith_normal_form(add_scalar(B.rows(), -lam))
            if dA != dB:
                return SimilarityResult(
                    "not_similar",
                    witness=(
                        f"Smith forms of (A - {lam} I) differ: "
                        f"{list(dA)} vs {list(dB)}"
                    ),
                )
    basis = sylvester_basis(A.rows(), B.rows())
    for a, b, c, d in lattice_points_in_box(basis, 4, -ENTRY_BOUND, ENTRY_BOUND):
        if abs(a * d - b * c) == 1:
            return SimilarityResult("similar", T=IntMatrix2(a, b, c, d))
    return SimilarityResult(
        "unknown", witness=f"no unimodular conjugator with |entries| <= {ENTRY_BOUND}"
    )
