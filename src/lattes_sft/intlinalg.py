"""Exact integer arithmetic and linear algebra, below every module but errors.

Square tests and square-free parts by bounded trial division, the one
polynomial product of the package (``poly_mul``, by Kronecker
substitution on integer coefficient lists) and the composition of
homogeneous pairs (``compose_pair``, one Kronecker substitution for a
whole composition; only these two know the packed format), the 2x2
matrix type ``IntMatrix2``, and general matrices as tuples of row tuples.
``IntMatrix2`` is every 2x2 integer matrix of the package, the Moebius
maps of ``dynsys.conjugate`` included; its product ``mat2_mul`` also runs
on the bare 4-tuples of ``cfrac.period_matrix``, and ``matrix_text`` is
the one text form of a matrix.  Everything here is pure and exact:
products, characteristic polynomials (Faddeev-LeVerrier in integers), and
two integer eliminations.  ``column_echelon`` is behind the Smith diagonal,
integer kernels, and the lazy bounded enumeration, in signed order
(increasing on a non-negative box), of the integer solution lattice of a
Sylvester constraint A X = X B and of its points with f(X) = C for a
linear map f (``lattice_solutions``); it clears each row by Euclid steps,
least pivot first, into the unique reduced Hermite basis.  Fraction-free
Gauss-Jordan (``scaled_inverse``) is the determinant test: None for a
singular matrix, else its absolute determinant and its inverse times
that, an integer matrix.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, isqrt, lcm
from operator import add, le, mul

from .errors import BudgetExceededError

Rows = tuple[tuple[int, ...], ...]

# Largest trial divisor of square_part; a cofactor left below its cube has
# at most two prime factors and is split exactly.
TRIAL_DIVISION_BOUND = 2**20

# Most points one lattice_points_in_box enumeration reaches: 2 * 10^5 points
# of a 16-entry box take about 1 s.
BOX_POINT_BUDGET = 2 * 10**5

# Largest size n^4 (1 + n (b + log2 n) b^0.585 / 10^4) of a charpoly of an
# n x n matrix with entries of b bits.  Faddeev-LeVerrier makes n^4 scalar
# products, the k-th round's with factors of b and about k (b + log2 n)
# bits: interpreter overhead per product, plus Karatsuba work (exponent
# log2 3 - 1 = 0.585 in b) that dominates past a few hundred bits.  On a
# 2-core container charpoly took 0.5e-7 to 2.1e-7 s times that size over
# n = 2..80 and b = 2..10^7: 5.4 s at n = 80, b = 2 (size 4.5e7), 81 s at
# n = 40, b = 1000 (5.9e8), 34 s at n = 2, b = 10^7 (4.0e8).  At the budget
# one charpoly takes about 5 s, and the two of a shift-equivalence
# pre-filter stay near 15 s as a process.
CHARPOLY_BUDGET = 4 * 10**7


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def square_part(n: int) -> tuple[int, int]:
    """Split n > 0 as m*m * kernel with kernel square-free; returns (m, kernel).

    Trial division stops at TRIAL_DIVISION_BOUND = B.  Every prime factor of
    what is left then exceeds B, so a cofactor below B**3 is 1, a prime, a
    prime square or a product of two distinct primes; a larger one raises
    BudgetExceededError."""
    m = 1
    kernel = 1
    rest = n
    p = 2
    limit = min(isqrt(rest), TRIAL_DIVISION_BOUND)
    while p <= limit:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            m *= p ** (e // 2)
            if e % 2:
                kernel *= p
            limit = min(isqrt(rest), TRIAL_DIVISION_BOUND)
        p += 1 if p == 2 else 2
    if p * p <= rest:
        # stopped at the bound, so every prime factor of rest exceeds it
        if rest >= TRIAL_DIVISION_BOUND**3:
            raise BudgetExceededError(
                f"square_part({n}): the cofactor {rest} left by trial division up to "
                f"TRIAL_DIVISION_BOUND = {TRIAL_DIVISION_BOUND} is not below the bound's cube"
            )
        r = isqrt(rest)
        if r * r == rest:
            return m * r, kernel
    if rest > 1:
        kernel *= rest
    return m, kernel


def is_squarefree(n: int) -> bool:
    return n > 0 and square_part(n)[0] == 1


def _kronecker_pack(v: list[int], width: int) -> int:
    """sum v[i] * 2^(8*width*i), written in bytes: the positive and the
    negative coefficients each pack to one integer and the result is their
    difference."""
    pos = b"".join((c if c > 0 else 0).to_bytes(width, "little") for c in v)
    neg = b"".join((-c if c < 0 else 0).to_bytes(width, "little") for c in v)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _kronecker_unpack(value: int, n: int, width: int) -> list[int]:
    """The n coefficients of value read as digits in base 2^(8*width),
    balanced: each in [-2^(8*width-1), 2^(8*width-1)).  Exact when every
    coefficient of the polynomial value encodes is below 2^(8*width-1) in
    absolute value; then |value| < 2^(8*width*n - 1), so its two's
    complement in n digits is exact, and each digit at or above half is
    negative and borrows from the next."""
    base = 1 << (8 * width)
    half = base >> 1
    data = value.to_bytes(n * width, "little", signed=True)
    out = []
    carry = 0
    for i in range(0, n * width, width):
        c = int.from_bytes(data[i : i + width], "little") + carry
        carry = c >= half
        out.append(c - base if carry else c)
    return out


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of integer coefficient lists, lowest degree first, by
    Kronecker substitution: each list is read as the digits of one integer
    in base 2^k, the two integers are multiplied once (CPython's Karatsuba
    product), and the digits of the product are its coefficients.

    k is a multiple of 8 with every product coefficient below 2^(k-1) in
    absolute value, so the digits read back balanced are exact.  Packing
    and unpacking go through bytes and take linear time; shifting or
    masking the product digit by digit, or going through ``str``, is
    quadratic.  The result has len(a) + len(b) - 1 entries, or none when a
    factor is empty."""
    if not a or not b:
        return []
    bits = (
        max(map(abs, a)).bit_length()
        + max(map(abs, b)).bit_length()
        + min(len(a), len(b)).bit_length()
        + 1
    )
    width = (bits + 7) // 8
    product = _kronecker_pack(a, width) * _kronecker_pack(b, width)
    return _kronecker_unpack(product, len(a) + len(b) - 1, width)


def _monomials(R: int, S: int, m: int) -> list[int]:
    """[R^i S^(m-i) for i = 0..m], for m >= 1.  Each is one product of a
    monomial of degree m // 2 and one of degree m - m // 2, split as evenly
    as i allows, so the pure powers come by repeated squaring and, for
    even m, every even i is a square."""
    if m == 1:
        return [S, R]
    h = m // 2
    lo = _monomials(R, S, h)
    hi = lo if 2 * h == m else _monomials(R, S, m - h)
    return [lo[min(i // 2, h)] * hi[i - min(i // 2, h)] for i in range(m + 1)]


def compose_pair(
    a: list[int], b: list[int], r: list[int], s: list[int]
) -> tuple[list[int], list[int]]:
    """The homogeneous pair (a, b) of degree m = max(len(a), len(b)) - 1
    at the pair (r, s): the coefficient lists of sum a_i r^i s^(m-i) and
    sum b_i r^i s^(m-i), lowest degree first, each with
    m * (max(len(r), len(s)) - 1) + 1 entries, for m >= 1 and a, b not
    both zero.

    One Kronecker substitution serves the whole composition: r and s are
    packed once, at a byte width that holds every coefficient of both
    sums.  A coefficient of r^i s^(m-i) is at most max(|r|_1, |s|_1)^m in
    absolute value (|.|_1 the sum of the absolute coefficients), so one of
    a sum is at most max(|a|_1, |b|_1) max(|r|_1, |s|_1)^m; that bound,
    which also holds every coefficient of r and s, is below
    2^(8*width-1).  Each packed r^i s^(m-i) is one product of two
    monomials of degree about m/2 (``_monomials``; at m = 4 that is eight
    products, five of them squares), each sum is a scalar combination of
    them, and each sum is unpacked once.  Only the final
    coefficients must fit the width: a packed integer is the polynomial's
    value at 2^(8*width), and a product of values is the value of the
    product whatever the size of its coefficients."""
    m = max(len(a), len(b)) - 1
    bound = max(sum(map(abs, a)), sum(map(abs, b))) * max(
        sum(map(abs, r)), sum(map(abs, s))
    ) ** m
    width = (bound.bit_length() + 8) // 8
    terms = _monomials(_kronecker_pack(r, width), _kronecker_pack(s, width), m)
    num = den = 0
    for x, y, term in zip_longest(a, b, terms, fillvalue=0):
        num += x * term
        den += y * term
    n = m * (max(len(r), len(s)) - 1) + 1
    return _kronecker_unpack(num, n, width), _kronecker_unpack(den, n, width)


def matrix_text(rows) -> str:
    """The text form of an integer matrix: rows by ';', entries by ','."""
    return ";".join(",".join(map(str, r)) for r in rows)


def mat2_mul(
    x: tuple[int, int, int, int], y: tuple[int, int, int, int]
) -> tuple[int, int, int, int]:
    """Product of 2x2 matrices given by their entries (a, b, c, d) of
    ((a, b), (c, d))."""
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


@dataclass(frozen=True)
class IntMatrix2:
    """2x2 integer matrix ((a, b), (c, d))."""

    a: int
    b: int
    c: int
    d: int

    @classmethod
    def identity(cls) -> "IntMatrix2":
        return cls(1, 0, 0, 1)

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix2":
        (a, b), (c, d) = rows
        return cls(int(a), int(b), int(c), int(d))

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other: "IntMatrix2") -> "IntMatrix2":
        return IntMatrix2(*mat2_mul(self.entries(), other.entries()))

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace(self) -> int:
        return self.a + self.d

    def __str__(self) -> str:
        return matrix_text(self.rows())


def identity(n: int) -> Rows:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(A, B) -> Rows:
    cols = tuple(zip(*B))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in A)


def mat_pow(A, e: int) -> Rows:
    out = identity(len(A))
    base = tuple(tuple(r) for r in A)
    while e:
        if e & 1:
            out = mat_mul(out, base)
        e >>= 1
        if e:
            base = mat_mul(base, base)
    return out


def trace(A) -> int:
    return sum(A[i][i] for i in range(len(A)))


def add_scalar(M, c: int) -> Rows:
    """M + c I for a square matrix M."""
    return tuple(
        tuple(v + c if i == j else v for j, v in enumerate(row)) for i, row in enumerate(M)
    )


def charpoly(A) -> tuple[int, ...]:
    """Coefficients of det(t*I - A), lowest degree first (monic), by
    Faddeev-LeVerrier in integers: M_1 = I, c_(n-k) = -tr(A M_k)/k and
    M_(k+1) = A M_k + c_(n-k) I.  Each division is exact by Newton's
    identities; a remainder raises ArithmeticError.  Raises
    BudgetExceededError before any product when the size of the matrix is
    over CHARPOLY_BUDGET."""
    n = len(A)
    b = max((abs(v).bit_length() for row in A for v in row), default=0)
    size = n**4 * (1 + n * (b + n.bit_length()) * b**0.585 / 10**4)
    if size > CHARPOLY_BUDGET:
        raise BudgetExceededError(
            f"charpoly of size {size:.3g} ({n} x {n}, {b}-bit entries) exceeds "
            f"CHARPOLY_BUDGET = {CHARPOLY_BUDGET}"
        )
    coeffs = [0] * n + [1]
    M = identity(n)
    for k in range(1, n + 1):
        AM = mat_mul(A, M)
        c, rem = divmod(-trace(AM), k)
        if rem:
            raise ArithmeticError("characteristic polynomial must be integral")
        coeffs[n - k] = c
        M = add_scalar(AM, c)
    return tuple(coeffs)


def smith_normal_form(M) -> tuple[int, ...]:
    """The Smith diagonal of an m x n integer matrix: min(m, n) entries,
    non-negative, with d1 | d2 | ... and zeros last.

    Echelon forms of the columns and of the rows alternate until every
    column has one nonzero entry; a gcd/lcm pass (Z/a + Z/b = Z/gcd + Z/lcm)
    puts those pivots into a divisibility chain.  The loop ends because
    ``column_echelon`` returns the unique reduced Hermite basis: the first
    pivot of a pass is the gcd of the first column of the pass before, so
    it never grows, and it drops unless it divides every entry of that
    column; once it does, the next pass returns that column as
    (p, 0, ..., 0), and the same argument applies to the remaining block."""
    cols = column_echelon(list(zip(*M)))
    while any(sum(map(bool, c)) > 1 for c in cols):
        cols = column_echelon(list(zip(*cols)))
    d = [max(c) for c in cols]  # each column's one nonzero entry, its positive pivot
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return tuple(d) + (0,) * (min(len(M), len(M[0])) - len(d))


def scaled_inverse(rows) -> tuple[int, Rows] | None:
    """(d, W) with d = |det R| and W = d R^-1 for a nonsingular square
    integer matrix R, so R^-1 C = W C / d; None when R is singular.

    Fraction-free Gauss-Jordan elimination (Bareiss) on [R | I]: step c
    maps each row x other than the pivot row p to (p[c] x - x[c] p) / q,
    q the pivot of the step before, and every division is exact, as each
    entry is then a minor of [R | I] (Sylvester's identity); a row with
    x[c] = 0 is only scaled by p[c] / q, or kept when p[c] = q.  The steps
    multiply [R | I] on the left, so it ends as [q I | q R^-1] with
    q = ±det R, and d and W take the sign of q off."""
    n = len(rows)
    aug = [list(r) + [0] * n for r in rows]
    for i in range(n):
        aug[i][n + i] = 1
    q = 1
    for c in range(n):
        p = next((i for i in range(c, n) if aug[i][c]), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        piv = aug[c]
        pc = piv[c]
        for i, x in enumerate(aug):
            if i != c:
                xc = x[c]
                if xc:
                    aug[i] = [(pc * a - xc * b) // q for a, b in zip(x, piv)]
                elif pc != q:
                    aug[i] = [pc * a // q for a in x]
        q = pc
    s = 1 if q > 0 else -1
    return s * q, tuple(tuple(s * v for v in r[n:]) for r in aug)


def kernel_basis(M) -> list[tuple[int, ...]]:
    """Echelon basis of the integer kernel lattice {x : M x = 0}: the columns
    of the echelon form of M stacked on the identity with zero M part."""
    m, n = len(M), len(M[0])
    graph = [tuple(row[j] for row in M) + e for j, e in enumerate(identity(n))]
    return [c[m:] for c in column_echelon(graph) if not any(c[:m])]


def column_echelon(cols: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The reduced column Hermite basis of an integer column span: pivot rows
    strictly increase, pivots are positive, and earlier columns lie in
    [0, pivot) at each pivot row.  These conditions make the basis unique,
    so it depends on the span only, not on the columns that span it.

    Each row is cleared by plain Euclid steps: the column with the least
    nonzero |entry| there divides, and every other column loses its
    nearest-integer quotient multiple.  The least divisor keeps the
    multipliers, and so the growth of the other rows, small (Kannan and
    Bachem, SIAM J. Comput. 8, 1979)."""
    N = len(cols[0]) if cols else 0
    work = [list(c) for c in cols]
    out: list[list[int]] = []
    for row in range(N):
        live = [c for c in work if c[row]]  # every work column is zero above row
        while len(live) > 1:
            p = min(live, key=lambda c: abs(c[row]))
            for c in live:
                if c is not p:  # leaves a remainder of at most |p[row]|/2
                    q = (2 * c[row] + p[row]) // (2 * p[row])
                    c[row:] = [a - q * b for a, b in zip(c[row:], p[row:])]
            live = [c for c in live if c[row]]
        if live:
            work = [c for c in work if c is not live[0]]
            col = live[0] if live[0][row] > 0 else [-v for v in live[0]]
            for prev in out:
                q = prev[row] // col[row]
                if q:
                    prev[row:] = [a - q * b for a, b in zip(prev[row:], col[row:])]
            out.append(col)
    return [tuple(c) for c in out]


def lattice_points_in_box(cols: list[tuple[int, ...]], N: int, lo, hi) -> Iterator[tuple[int, ...]]:
    """The vectors of the lattice spanned by echelon columns with coordinate
    r in [lo[r], hi[r]], made as they are read, in signed order: by |v[r]|
    coordinate by coordinate, a non-negative entry before the negative one
    of the same size.  On a box with every lo[r] >= 0 that is increasing
    lexicographic order.  An int bound is the bound of every coordinate.
    A node makes its children one at a time, as the walk reaches them.
    Raises BudgetExceededError on reaching a point past the first
    BOX_POINT_BUDGET."""
    lo = (lo,) * N if isinstance(lo, int) else tuple(lo)
    hi = (hi,) * N if isinstance(hi, int) else tuple(hi)
    edges = [0] + [next(r for r in range(N) if c[r] != 0) for c in cols] + [N]
    count = 0

    def inside(v, r0: int, r1: int) -> bool:
        part = v[r0:r1]
        return all(map(le, lo[r0:r1], part)) and all(map(le, part, hi[r0:r1]))

    def node(j, v):
        # depth j, vector v, and the coefficients of column j that keep its
        # pivot entry in the box, in the order the children are read
        p, step = edges[j + 1], cols[j][edges[j + 1]]
        x = v[p]
        first, last = -((x - lo[p]) // step), (hi[p] - x) // step
        if lo[p] >= 0:
            return j, v, iter(range(first, last + 1))
        # the coefficients from c1 on give entries > 0, read upward, the
        # ones below it entries <= 0, read downward.  Along each run |entry|
        # grows by step, from (0, step] on the first and [0, step) on the
        # second, so signed order takes the two runs in turn, starting with
        # the one whose first |entry| is the smaller (the positive one on a
        # tie), and is made lazily
        c1 = max(first, -x // step + 1)
        up = range(c1, last + 1)
        down = range(min(last, c1 - 1), first - 1, -1)
        if 2 * (x + c1 * step) > step:
            up, down = down, up
        return j, v, (c for pair in zip_longest(up, down) for c in pair if c is not None)

    zero = (0,) * N
    if not inside(zero, 0, edges[1]):
        return
    if not cols:  # the lattice is {0}
        if BOX_POINT_BUDGET == 0:
            raise BudgetExceededError("more than BOX_POINT_BUDGET = 0 box points")
        yield zero
        return
    # depth first: edges[i + 1] is the pivot row p of column i, and the
    # coefficient of column i sets v[p], so the children of a node, ordered
    # by that entry, keep the order; with lo[p] >= 0 increasing is signed
    # order, and only lo[p] < 0 interleaves two runs.  A child is tested on
    # the rows after p up to the next pivot, if any; the rows up to p are in
    # the box.
    stack = [node(0, zero)]
    while stack:
        i, u, cs = stack[-1]
        col, r0, r1 = cols[i], edges[i + 1] + 1, edges[i + 2]
        for c in cs:
            v = tuple(map(add, u, map(c.__mul__, col)))
            if r0 < r1 and not inside(v, r0, r1):
                continue
            if i + 1 < len(cols):
                stack.append(node(i + 1, v))
                break  # its children are read before the next of u's
            if count == BOX_POINT_BUDGET:
                raise BudgetExceededError(f"more than BOX_POINT_BUDGET = {BOX_POINT_BUDGET} box points")
            count += 1
            yield v
        else:
            stack.pop()


def unflatten(v, n: int) -> Rows:
    """The n x n matrix whose rows are v read n entries at a time."""
    return tuple(tuple(v[i * n : i * n + n]) for i in range(n))


def sylvester_basis(A, B) -> list[tuple[int, ...]]:
    """Echelon basis of the integer lattice {X : A X = X B}, each X
    flattened row by row: the kernel of X -> A X - X B, whose matrix has
    A[i][k] [j = l] - [i = k] B[l][j] at row (i, j) and column (k, l)."""
    n = len(A)
    idx = [(i, j) for i in range(n) for j in range(n)]
    return kernel_basis(
        [[A[i][k] * (j == l) - (i == k) * B[l][j] for k, l in idx] for i, j in idx]
    )


def sylvester_solutions(A, B, lo: int, hi: int) -> list[Rows]:
    """Integer matrices X with A X = X B and every entry in [lo, hi], in
    signed order (``lattice_points_in_box``): increasing when lo >= 0."""
    n = len(A)
    return [unflatten(v, n) for v in lattice_points_in_box(sylvester_basis(A, B), n * n, lo, hi)]


def lattice_solutions(basis, n: int, f, C, hi: int) -> Iterator[Rows]:
    """Matrices X of the lattice with echelon basis ``basis`` (n x n
    matrices X_i, flattened) with f(X) = C and every entry in [0, hi], in
    increasing order; f is an integer-linear map from matrices to
    matrices.

    The points (t, X = sum c_i X_i) with f(X) = t C are the kernel of
    (t, c) -> sum c_i f(X_i) - t C carried to (t, X): one column echelon
    form, as in ``kernel_basis``, and enumerated at t = 1."""
    N = n * n
    graph = [tuple(-v for row in C for v in row) + (1,) + (0,) * N] + [
        tuple(v for row in f(unflatten(b, n)) for v in row) + (0,) + tuple(b) for b in basis
    ]
    m = len(graph[0]) - N - 1
    ech = [c[m:] for c in column_echelon(graph) if not any(c[:m])]
    for v in lattice_points_in_box(ech, N + 1, [1] + [0] * N, [1] + [hi] * N):
        yield unflatten(v[1:], n)


def solve_right(R, C):
    """Solve R X = C over the rationals; None if R is singular.

    Returns rows of Fractions.
    """
    n = len(R)
    aug = [[Fraction(R[i][j]) for j in range(n)] + [Fraction(x) for x in C[i]] for i in range(n)]
    w = len(aug[0])
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return tuple(tuple(row[n:w]) for row in aug)
