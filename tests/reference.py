"""Independent reference routes used by the tests.

Nothing here imports the code paths it checks: continued fractions come from
high-precision floats, Hermite forms from brute-force lattice point sets, and
unimodular matrices from explicit elementary products.  The integer
composition by one ``poly_mul`` per product and the mod-p Euclid on lists
of residues are the routes the packed kernels replaced, and the float
Aberth sweeps that evaluate every point in every sweep are the loop the
frozen sweeps replaced.
"""

import random
from fractions import Fraction
from math import isqrt

from mpmath import mp, mpc

from lattes_sft.errors import DomainError


def cf_float(value_fn, n: int, precision: int = 512) -> list[int]:
    """First n partial quotients of value_fn() by floor/reciprocal on floats."""
    with mp.workprec(precision):
        v = value_fn()
        out = []
        for _ in range(n):
            a = int(mp.floor(v))
            out.append(a)
            v = 1 / (v - a)
        return out


def expand_seen(P: int, Q: int, D: int):
    """Reference continued fraction of (P + sqrt(D))/Q, in the integer form
    with Q | D - P*P: step the state (P, Q) and cut at the first state seen
    before (Lagrange periodicity).  Returns (preperiod, period) tuples."""
    s = isqrt(D)
    seen = {}
    quotients = []
    while (P, Q) not in seen:
        seen[(P, Q)] = len(quotients)
        a = (P + s) // Q if Q > 0 else -((P + s) // -Q) - 1
        quotients.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    start = seen[(P, Q)]
    return tuple(quotients[:start]), tuple(quotients[start:])


def period_matrix_fold(period) -> tuple[int, int, int, int]:
    """Reference product of ((a, 1), (1, 0)) over period, folded left to
    right; entries (a, b, c, d) of ((a, b), (c, d))."""
    a, b, c, d = 1, 0, 0, 1
    for q in period:
        a, b, c, d = a * q + b, a, c * q + d, c
    return a, b, c, d


def surd_canonical(s) -> tuple[int, int, int, int]:
    """Reference key of the value of a surd (P + sqrt(D))/Q: D split as
    m*m * kernel with kernel square-free, then (P, m, Q) divided by their
    gcd, so (P + m*sqrt(kernel))/Q is in lowest terms.  Factors D, so only
    for small D."""
    from math import gcd

    from lattes_sft.intlinalg import square_part

    m, kernel = square_part(s.D)
    g = gcd(gcd(abs(s.P), m), abs(s.Q))
    return (s.P // g, m // g, kernel, s.Q // g)


def scale_lattice_fraction(L, eps):
    """Reference scale_lattice by arithmetic in Q(sqrt(d)): theta becomes
    the field element P/Q + (m/Q)*sqrt(kernel), and the coordinates of eps
    and eps*theta in the basis (1, theta) are solved for in Fractions."""
    from fractions import Fraction

    from lattes_sft import (
        DomainError, IntMatrix2, PseudoLattice, QuadElem, QuadSurd, SublatticeData, hnf2,
    )
    from lattes_sft.intlinalg import square_part

    m, kernel = square_part(L.theta.D)
    theta = QuadElem(Fraction(L.theta.P, L.theta.Q), Fraction(m, L.theta.Q), kernel)
    if eps.D != theta.D:
        raise DomainError(
            f"epsilon lies in Q(sqrt({eps.D})), the lattice in Q(sqrt({theta.D}))"
        )
    if not eps.is_integral:
        raise DomainError("epsilon must be integral: integer a and b")
    if eps.is_zero:
        raise DomainError("epsilon must be nonzero")

    def coords(xi):
        v = xi.b / theta.b
        u = xi.a - v * theta.a
        if u.denominator != 1 or v.denominator != 1:
            raise DomainError("not an endomorphism of this pseudo-lattice")
        return int(u), int(v)

    u1, v1 = coords(eps)
    u2, v2 = coords(eps * theta)
    M = IntMatrix2(u1, u2, v1, v2)
    H = hnf2(M)
    t = L.theta
    theta_p = QuadSurd(H.d * t.P + H.b * t.Q, t.Q * H.a, H.d * H.d * t.D)
    return SublatticeData(H, PseudoLattice(theta_p))


def hnf_oracle(u1: int, v1: int, u2: int, v2: int, window: int = 60):
    """Brute-force column Hermite data (a, b, c) of the lattice spanned by
    (u1, v1) and (u2, v2): a = least positive x with (x, 0) in the lattice,
    c = least positive y, b = representative x mod a at height c."""
    pts = set()
    for m in range(-window, window + 1):
        for n in range(-window, window + 1):
            pts.add((m * u1 + n * u2, m * v1 + n * v2))
    a = min(p[0] for p in pts if p[0] > 0 and p[1] == 0)
    c = min(p[1] for p in pts if p[1] > 0)
    b = min(p[0] % a for p in pts if p[1] == c)
    return a, b, c


def random_unimodular(rng: random.Random, size_cap: int = 40):
    """A GL2(Z) matrix from a short product of elementary generators."""
    from lattes_sft import IntMatrix2

    gens = [
        IntMatrix2(1, 1, 0, 1),
        IntMatrix2(1, -1, 0, 1),
        IntMatrix2(1, 0, 1, 1),
        IntMatrix2(1, 0, -1, 1),
        IntMatrix2(0, 1, 1, 0),
    ]
    while True:
        T = IntMatrix2.identity()
        for _ in range(rng.randint(1, 5)):
            T = T * rng.choice(gens)
        if max(abs(e) for e in T.entries()) <= size_cap:
            return T


def random_nonsingular_curve(rng: random.Random):
    from fractions import Fraction

    from lattes_sft import DomainError, EllipticCurve

    while True:
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        try:
            return EllipticCurve(a, b, c)
        except DomainError:
            continue


def poly_mul_schoolbook(a, b) -> list:
    """Reference product of coefficient lists, lowest degree first, by the
    double loop; ints and Fractions alike."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def compose_fraction(f, g):
    """Reference composition f o g in Fraction coefficients with the
    schoolbook product: sum a_i r^i s^(m-i) / sum b_i r^i s^(m-i) for
    f = sum a_i x^i / sum b_i x^i of degree m and g = r/s, reduced by the
    RationalMap constructor."""
    from fractions import Fraction

    from lattes_sft import Poly, RationalMap

    m = f.degree
    r, s = list(g.num.coeffs), list(g.den.coeffs)
    rp = [[Fraction(1)]]
    sp = [[Fraction(1)]]
    for _ in range(m):
        rp.append(poly_mul_schoolbook(rp[-1], r))
        sp.append(poly_mul_schoolbook(sp[-1], s))
    num, den = Poly(), Poly()
    for i in range(m + 1):
        cross = Poly(poly_mul_schoolbook(rp[i], sp[m - i]))
        num = num + f.num.coefficient(i) * cross
        den = den + f.den.coefficient(i) * cross
    return RationalMap(num, den)


def compose_poly_mul(f, g):
    """Reference composition f o g in integers with one ``poly_mul`` per
    product, each packing and unpacking its own operands: the powers
    r^i and s^i one product at a time, one product r^i s^(m-i) per i, and
    the two sums accumulated coefficient by coefficient."""
    from itertools import zip_longest

    from lattes_sft.intlinalg import poly_mul
    from lattes_sft.lattes import RationalMap

    m = f.degree
    r, s = g.num.ints, g.den.ints
    rp = [[1]]
    sp = [[1]]
    for _ in range(m):
        rp.append(poly_mul(rp[-1], r))
        sp.append(poly_mul(sp[-1], s))
    num = [0] * (m * (max(len(r), len(s)) - 1) + 1)
    den = list(num)
    for i, (a, b) in enumerate(zip_longest(f.num.ints, f.den.ints, fillvalue=0)):
        if a or b:
            for j, c in enumerate(poly_mul(rp[i], sp[m - i])):
                num[j] += a * c
                den[j] += b * c
    return RationalMap._coprime(num, den)


def gfp_gcd_degree_euclid(a, b, p: int) -> int:
    """Reference degree of gcd(a mod p, b mod p) over GF(p): Euclid on
    lists of residues, one coefficient at a time."""

    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    a = trim([c % p for c in a])
    b = trim([c % p for c in b])
    while b:
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        r = list(a)
        while r and len(r) - 1 >= db:
            f = (r[-1] * inv) % p
            d = len(r) - 1 - db
            for i, bc in enumerate(b):
                r[i + d] = (r[i + d] - f * bc) % p
            trim(r)
        a, b = b, r
    return len(a) - 1


def poly_divmod_fraction(a, b):
    """Reference division with remainder of Fraction coefficient lists,
    lowest degree first, b trimmed and nonzero, by long division in
    Fractions: (q, r) with a = q*b + r and deg r < deg b, both trimmed."""
    from fractions import Fraction

    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = [Fraction(c) for c in a]
    while r and r[-1] == 0:
        r.pop()
    while len(r) >= len(b):
        f = r[-1] / b[-1]
        d = len(r) - len(b)
        q[d] = f
        for i, bc in enumerate(b):
            r[i + d] -= f * bc
        while r and r[-1] == 0:
            r.pop()
    while q and q[-1] == 0:
        q.pop()
    return q, r


def _se_prefilters(A, B):
    """The verdict of ``sft.shift_equivalent`` before its search (A = B, then
    the charpoly and Bowen-Franks pre-filters), or None."""
    from lattes_sft.intlinalg import identity
    from lattes_sft.sft import (
        SECertificate, SEResult, _nonsingular_charpoly, _poly_text, k_invariants,
    )

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
    bfa, bfb = k_invariants(A).bowen_franks, k_invariants(B).bowen_franks
    if bfa != bfb:
        return SEResult(
            "not_equivalent", witness=f"Bowen-Franks groups differ: {bfa} vs {bfb}"
        )
    return None


def shift_equivalent_unfiltered(A, B, entry_bound: int = 10, lag_bound: int = 6,
                                budget: int = 5 * 10**6):
    """Reference shift-equivalence search without the determinant test: the
    (lag, R) loop of ``sft.shift_equivalent`` that gives every R of the box
    one lattice solve at every lag, charging 2 n^2 (dim{B S = S A} + 1)
    entries per (lag, R) against ``budget`` before the solve."""
    from lattes_sft.errors import BudgetExceededError
    from lattes_sft.intlinalg import (
        lattice_solutions, mat_mul, mat_pow, sylvester_basis, sylvester_solutions,
    )
    from lattes_sft.sft import SECertificate, SEResult

    pre = _se_prefilters(A, B)
    if pre is not None:
        return pre
    s_basis = sylvester_basis(B.rows, A.rows)
    size = 2 * A.n * A.n * (len(s_basis) + 1)
    work = 0
    try:
        r_cands = sylvester_solutions(A.rows, B.rows, 0, entry_bound)
        for k in range(1, lag_bound + 1):
            AkBk = mat_pow(A.rows, k) + mat_pow(B.rows, k)
            for R in r_cands:
                work += size
                if work > budget:
                    raise BudgetExceededError("budget")
                f = lambda S, R=R: mat_mul(R, S) + mat_mul(S, R)  # noqa: E731
                S = next(lattice_solutions(s_basis, A.n, f, AkBk, entry_bound), None)
                if S is not None:
                    return SEResult(
                        "equivalent", certificate=SECertificate.build(A, B, R, S, k)
                    )
    except BudgetExceededError:
        return SEResult(
            "unknown", witness="search budget exceeded before exhausting bounds"
        )
    return SEResult(
        "unknown",
        witness=f"no certificate with entries <= {entry_bound} and lag <= {lag_bound}",
    )


def shift_equivalent_scan(A, B, entry_bound: int = 10, lag_bound: int = 6,
                          budget: int = 2 * 10**6):
    """Reference shift-equivalence search with two paths: a nonsingular R
    gets its only candidate S = R^-1 A^k by Gauss-Jordan elimination in
    Fractions, a singular R scans every S of the Sylvester box in
    increasing order; ``budget`` counts the S scanned.  Shares the
    pre-filters and the list of R candidates with ``sft.shift_equivalent``."""
    from lattes_sft.intlinalg import mat_mul, mat_pow, solve_right, sylvester_solutions
    from lattes_sft.sft import SECertificate, SEResult

    pre = _se_prefilters(A, B)
    if pre is not None:
        return pre
    r_cands = sorted(sylvester_solutions(A.rows, B.rows, 0, entry_bound))
    s_cands = sorted(sylvester_solutions(B.rows, A.rows, 0, entry_bound))
    work = 0
    for k in range(1, lag_bound + 1):
        Ak = mat_pow(A.rows, k)
        Bk = mat_pow(B.rows, k)
        for R in r_cands:
            sol = solve_right(R, Ak)
            if sol is not None:
                if any(v.denominator != 1 for row in sol for v in row):
                    continue
                S = tuple(tuple(int(v) for v in row) for row in sol)
                if any(v < 0 or v > entry_bound for row in S for v in row):
                    continue
                if mat_mul(B.rows, S) == mat_mul(S, A.rows) and mat_mul(S, R) == Bk:
                    return SEResult(
                        "equivalent", certificate=SECertificate.build(A, B, R, S, k)
                    )
            else:
                for S in s_cands:
                    work += 1
                    if work > budget:
                        return SEResult(
                            "unknown",
                            witness="search budget exceeded before exhausting bounds",
                        )
                    if mat_mul(R, S) == Ak and mat_mul(S, R) == Bk:
                        return SEResult(
                            "equivalent",
                            certificate=SECertificate.build(A, B, R, S, k),
                        )
    return SEResult(
        "unknown",
        witness=f"no certificate with entries <= {entry_bound} and lag <= {lag_bound}",
    )


def signed_key(rows) -> tuple:
    """Order matrices by absolute entry size, non-negative before negative."""
    return tuple((abs(v), 0 if v >= 0 else 1) for r in rows for v in r)


def mat_sub(A, B):
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def scalar_matrix(n: int, c: int):
    return tuple(tuple(c if i == j else 0 for j in range(n)) for i in range(n))


def gl2z_similar_listing(A, B, bound: int = 10):
    """Reference GL2(Z) similarity: the pre-filters of ``sft.gl2z_similar``,
    then every T with A T = T B and |entries| <= bound listed, and the
    least unimodular one under ``signed_key`` kept."""
    from lattes_sft.intlinalg import IntMatrix2, is_square, smith_normal_form, sylvester_solutions
    from lattes_sft.sft import SimilarityResult

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
        s = isqrt(disc)
        for lam in ((tr + s) // 2, (tr - s) // 2):
            dA = smith_normal_form(mat_sub(A.rows(), scalar_matrix(2, lam)))
            dB = smith_normal_form(mat_sub(B.rows(), scalar_matrix(2, lam)))
            if dA != dB:
                return SimilarityResult(
                    "not_similar",
                    witness=(
                        f"Smith forms of (A - {lam} I) differ: "
                        f"{list(dA)} vs {list(dB)}"
                    ),
                )
    cands = sylvester_solutions(A.rows(), B.rows(), -bound, bound)
    valid = [T for T in cands if abs(T[0][0] * T[1][1] - T[0][1] * T[1][0]) == 1]
    if valid:
        return SimilarityResult("similar", T=IntMatrix2.from_rows(min(valid, key=signed_key)))
    return SimilarityResult(
        "unknown", witness=f"no unimodular conjugator with |entries| <= {bound}"
    )


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g, by the
    extended Euclidean algorithm."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def smith_normal_form_transforms(M):
    """Reference Smith normal form by elimination that tracks its
    transforms: (D, U, V) with D = U*M*V diagonal, U and V unimodular.

    Diagonal entries are non-negative and satisfy d1 | d2 | ... .
    """
    from lattes_sft.intlinalg import identity

    m, n = len(M), len(M[0])
    A = [list(r) for r in M]
    U = [list(r) for r in identity(m)]
    V = [list(r) for r in identity(n)]

    def row_op(i, j, a, b, c, d):
        # (row_i, row_j) <- (a*row_i + b*row_j, c*row_i + d*row_j), ad-bc = +-1
        for X in (A, U):
            ri, rj = X[i], X[j]
            for col in range(len(ri)):
                x, y = ri[col], rj[col]
                ri[col] = a * x + b * y
                rj[col] = c * x + d * y

    def col_op(i, j, a, b, c, d):
        for X in (A, V):
            for row in X:
                x, y = row[i], row[j]
                row[i] = a * x + b * y
                row[j] = c * x + d * y

    t = 0
    while t < min(m, n):
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i0, j0 = pivot
        if i0 != t:
            row_op(t, i0, 0, 1, 1, 0)
        if j0 != t:
            col_op(t, j0, 0, 1, 1, 0)
        while True:
            dirty = False
            for i in range(t + 1, m):
                if A[i][t] != 0:
                    a, b = A[t][t], A[i][t]
                    if b % a == 0:
                        row_op(t, i, 1, 0, -(b // a), 1)
                    else:
                        # Bezout rotation; strictly shrinks |pivot|
                        g, x, y = xgcd(a, b)
                        row_op(t, i, x, y, -(b // g), a // g)
                    dirty = True
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    a, b = A[t][t], A[t][j]
                    if b % a == 0:
                        col_op(t, j, 1, 0, -(b // a), 1)
                    else:
                        g, x, y = xgcd(a, b)
                        col_op(t, j, x, y, -(b // g), a // g)
                    dirty = True
            if not dirty:
                break
        # pivot must divide every remaining entry before moving on
        d = A[t][t]
        redo = False
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % d != 0:
                    row_op(t, i, 1, 1, 0, 1)
                    redo = True
                    break
            if redo:
                break
        if redo:
            continue
        t += 1
    for i in range(min(m, n)):
        if A[i][i] < 0:
            for col in range(n):
                A[i][col] = -A[i][col]
            for col in range(m):
                U[i][col] = -U[i][col]
    return (
        tuple(tuple(r) for r in A),
        tuple(tuple(r) for r in U),
        tuple(tuple(r) for r in V),
    )


def column_echelon_bezout(cols):
    """Reference column echelon form by Bezout merges of two columns at a
    time: the same reduced Hermite basis as ``intlinalg.column_echelon``
    (pivot rows strictly increase, pivots are positive, entries of earlier
    columns at a pivot row are reduced modulo the pivot), by a different
    elimination whose intermediate entries grow far faster."""
    if not cols:
        return []
    N = len(cols[0])
    work = [list(c) for c in cols]
    out: list[list[int]] = []
    for row in range(N):
        while True:
            idxs = [k for k, c in enumerate(work) if c[row] != 0]
            if len(idxs) <= 1:
                break
            c1, c2 = work[idxs[0]], work[idxs[1]]
            a, b = c1[row], c2[row]
            g, x, y = xgcd(a, b)
            u, v = -(b // g), a // g
            for r in range(N):
                s, t = c1[r], c2[r]
                c1[r] = x * s + y * t
                c2[r] = u * s + v * t
        idxs = [k for k, c in enumerate(work) if c[row] != 0]
        if idxs:
            col = work.pop(idxs[0])
            if col[row] < 0:
                col = [-v for v in col]
            for prev in out:
                q = prev[row] // col[row]
                if q:
                    for r in range(N):
                        prev[r] -= q * col[r]
            out.append(col)
        if not work:
            break
    return [tuple(c) for c in out]


def to_mpc(x):
    """x as an mpmath ``mpc`` in the caller's precision."""
    if isinstance(x, Fraction):
        return mpc(x.numerator) / x.denominator
    return mpc(x)


def poly_mp(p, z):
    """Horner evaluation of the ``Poly`` p at an mpmath number, in the
    caller's precision."""
    out = z * 0
    for c in reversed(p.ints):
        out = out * z + c
    return out / p.den


def map_mp(phi, z):
    """Value of the ``RationalMap`` phi at an mpmath complex number, in the
    caller's precision."""
    dv = poly_mp(phi.den, z)
    if dv == 0:
        raise DomainError("evaluation at a pole")
    return poly_mp(phi.num, z) / dv


def surd_value(s, precision: int = 128):
    """The ``QuadSurd`` s as an mpmath number at the given binary precision."""
    with mp.workprec(precision):
        return (s.P + mp.sqrt(s.D)) / s.Q


def lift_y(E, x, precision: int = 128):
    """Principal square root of x^3 + a*x^2 + b*x + c on the
    ``EllipticCurve`` E at the given precision."""
    with mp.workprec(precision):
        return mp.sqrt(poly_mp(E.rhs(), to_mpc(x)))


def double_point(E, x, y, precision: int = 128, rel_tol: float = 1e-9):
    """Tangent-line doubling of the affine point (x, y) on the
    ``EllipticCurve`` E.

    The point must satisfy the curve equation to within rel_tol and must not
    be 2-torsion (y = 0 doubles to the point at infinity).
    """
    with mp.workprec(precision):
        xz, yz = to_mpc(x), to_mpc(y)
        f = poly_mp(E.rhs(), xz)
        if yz == 0:
            raise DomainError("2-torsion point: doubling lands at infinity")
        resid = abs(yz * yz - f)
        if resid > rel_tol * max(1, abs(yz * yz), abs(f)):
            raise DomainError("point does not lie on the curve")
        a, b = E.a, E.b
        lam = (3 * xz * xz + 2 * to_mpc(a) * xz + to_mpc(b)) / (2 * yz)
        xp = lam * lam - to_mpc(a) - 2 * xz
        yp = lam * (xz - xp) - yz
        return xp, yp


def roots_mpc(roots, precision: int = 128):
    """The sorted (real, imaginary) ``Decimal`` pairs that
    ``dynsys.aberth_roots`` returns, as mpmath ``mpc`` numbers at
    precision + 32 bits, its working precision."""
    with mp.workprec(precision + 32):
        return [mpc(str(x), str(y)) for x, y in roots]


def float_sweeps_unfrozen(newton, z):
    """``dynsys._float_sweeps`` with no point frozen: every sweep evaluates
    and moves every point, and the sweeps stop once every step is below
    FLOAT_STEP or the largest has not reached a new low for FLOAT_PATIENCE
    sweeps.  Returns z, updated in place, or None when a value stopped
    being finite."""
    import cmath
    import math

    from lattes_sft import dynsys

    deg = len(z)
    best, stale = math.inf, 0
    try:
        for _ in range(dynsys.MAX_SWEEPS):
            worst = 0.0
            for i in range(deg):
                zi = z[i]
                w = newton(zi)
                s = 0j
                for j in range(deg):
                    if j != i:
                        s += 1 / (zi - z[j])
                delta = w / (1 - w * s)
                z[i] = zi = zi - delta
                worst = max(worst, abs(delta) / max(abs(zi), 1e-300))
            if worst < dynsys.FLOAT_STEP:
                break
            if worst < best:
                best, stale = worst, 0
            else:
                stale += 1
                if stale >= dynsys.FLOAT_PATIENCE:
                    break
    except (ZeroDivisionError, OverflowError):
        return None
    return z if all(cmath.isfinite(v) for v in z) else None


def aberth_roots_mp(p, precision: int = 128, max_sweeps: int = 200):
    """Reference root location: Gauss-Seidel Aberth sweeps in mpmath alone,
    at precision + 32 bits from ``dynsys._initial_points``, until every step
    is below 2^(10 - precision) max(|z|, 2^-precision) or max_sweeps have
    run (then a RuntimeWarning).  Zero roots are split off first; the roots
    come back sorted by (real, imag)."""
    import warnings

    from mpmath import mpf

    from lattes_sft import Poly
    from lattes_sft.dynsys import _initial_points

    if p.degree <= 0:
        return []
    zero_roots = 0
    while p.ints[zero_roots] == 0:
        zero_roots += 1
    q = Poly._from_ints(p.ints[zero_roots:], p.den)
    roots = []
    with mp.workprec(precision + 32):
        if q.degree > 0:
            coeffs = [mpf(c.numerator) / c.denominator for c in q.coeffs]
            dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]
            deg = q.degree
            z = [mpc(str(x), str(y)) for x, y in _initial_points(q.ints, deg)]
            tol = mpf(2) ** (10 - precision)
            floor_mag = mpf(2) ** (-precision)

            def horner(cs, v):
                out = mpc(0)
                for c in reversed(cs):
                    out = out * v + c
                return out

            converged = False
            for _ in range(max_sweeps):
                converged = True
                for i in range(deg):
                    pv = horner(coeffs, z[i])
                    if pv == 0:
                        continue
                    dv = horner(dcoeffs, z[i])
                    if dv == 0:
                        z[i] += mpf(2) ** (-precision // 2)
                        converged = False
                        continue
                    w = pv / dv
                    ssum = mpc(0)
                    for j in range(deg):
                        if j != i:
                            ssum += 1 / (z[i] - z[j])
                    denom = 1 - w * ssum
                    if denom == 0:
                        z[i] += mpf(2) ** (-precision // 2)
                        converged = False
                        continue
                    delta = w / denom
                    z[i] -= delta
                    if abs(delta) > tol * max(abs(z[i]), floor_mag):
                        converged = False
                if converged:
                    break
            if not converged:
                warnings.warn(
                    "root refinement did not converge at this precision; "
                    "counts remain exact",
                    RuntimeWarning,
                )
            roots.extend(z)
        roots.extend(mpc(0) for _ in range(zero_roots))
        roots.sort(key=lambda v: (v.real, v.imag))
    return roots
