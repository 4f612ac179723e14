"""Checks made apart from the program under test.

Nothing here imports ``lattes_sft``.  Every check works on plain data (ints,
Fractions, tuples, complex numbers) so that one checker serves both the
in-process results and the JSON the ``lattes`` CLI prints.  A check returns a
list of error strings; an empty list means the output is right.  Checks that
need sympy are not run inline: they append a ``(kind, data)`` record to a
``deferred`` list, which :func:`run_deferred` settles after the timed phase,
so that sympy is never imported while memory and time are measured.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from mpmath import mp, mpc, mpf

# ---------------------------------------------------------------------------
# integers and real quadratic numbers


def is_squarefree(n: int) -> bool:
    """Trial division by p up to n^(1/3); the cofactor then has at most two
    prime factors, so it is square-free unless it is a perfect square."""
    if n < 1:
        return False
    p = 2
    while p * p * p <= n:
        if n % (p * p) == 0:
            return False
        if n % p == 0:
            n //= p
        p += 1 if p == 2 else 2
    r = isqrt(n)
    return n == 1 or r * r != n


def sublattice_theta(a: int, b: int, D: int) -> tuple[int, int, int]:
    """Column Hermite data of eps*(Z + Z*sqrt(D)) for eps = a + b*sqrt(D).

    In the basis (1, sqrt(D)) the sublattice is spanned by (a, b) and
    (b*D, a).  Returns (alpha, beta, gamma) with the sublattice equal to
    Z*alpha + Z*(beta + gamma*sqrt(D)), so that eps*L = alpha*(Z + Z*theta')
    with theta' = (beta + gamma*sqrt(D))/alpha and index alpha*gamma.
    """
    det = abs(a * a - b * b * D)
    gamma, x, y = _xgcd(b, a)
    alpha = det // gamma
    beta = (x * a + y * b * D) % alpha
    return alpha, beta, gamma


def _xgcd(u: int, v: int) -> tuple[int, int, int]:
    x0, y0, x1, y1 = 1, 0, 0, 1
    while v:
        q, u, v = u // v, v, u - (u // v) * v
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if u < 0:
        u, x0, y0 = -u, -x0, -y0
    return u, x0, y0


def surd_period_length(P: int, Q: int, D: int, cap: int) -> int | None:
    """Period length of the continued fraction of (P + sqrt(D))/Q, or None
    once it exceeds cap.  Requires Q | D - P*P; D not a square."""
    s = isqrt(D)
    for _ in range(10_000):
        if Q > 0 and 0 < P <= s and s - P < Q <= s + P:
            break  # reduced: purely periodic from here
        a = (P + s) // Q if Q > 0 else -((P + s) // (-Q)) - 1
        P = a * Q - P
        Q = (D - P * P) // Q
    else:
        raise ArithmeticError("no reduced state within 10^4 steps")
    P0, Q0 = P, Q
    n = 0
    while True:
        a = (P + s) // Q
        P = a * Q - P
        Q = (D - P * P) // Q
        n += 1
        if P == P0 and Q == Q0:
            return n
        if n >= cap:
            return None


class QuadNum:
    """u + v*sqrt(D) with rational u, v; exact field arithmetic."""

    __slots__ = ("u", "v", "D")

    def __init__(self, u, v, D: int):
        self.u, self.v, self.D = Fraction(u), Fraction(v), D

    def __add__(self, o):
        o = self._lift(o)
        return QuadNum(self.u + o.u, self.v + o.v, self.D)

    def __sub__(self, o):
        o = self._lift(o)
        return QuadNum(self.u - o.u, self.v - o.v, self.D)

    def __mul__(self, o):
        o = self._lift(o)
        return QuadNum(
            self.u * o.u + self.v * o.v * self.D, self.u * o.v + self.v * o.u, self.D
        )

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = self._lift(o)
        n = o.u * o.u - o.v * o.v * self.D
        return QuadNum(
            (self.u * o.u - self.v * o.v * self.D) / n,
            (self.v * o.u - self.u * o.v) / n,
            self.D,
        )

    def _lift(self, o):
        return o if isinstance(o, QuadNum) else QuadNum(o, 0, self.D)

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def floor(self) -> int:
        """Exact floor; D is not a square, so sqrt(D) is irrational."""
        den = self.u.denominator * self.v.denominator
        P = int(self.u * den)
        M = int(self.v * den)  # value = (P + M*sqrt(D))/den
        if M == 0:
            return P // den
        s = isqrt(M * M * self.D)
        return (P + s) // den if M > 0 else (P - s - 1) // den

    def key(self):
        return self.u, self.v

    def mpf(self):
        return mpf(self.u.numerator) / self.u.denominator + (
            mpf(self.v.numerator) / self.v.denominator
        ) * mp.sqrt(self.D)


def mobius(M, x: QuadNum) -> QuadNum:
    (p, q), (r, s) = M
    return (p * x + q) / (r * x + s)


def float_cf(x: QuadNum, precision: int = 512, q_bits: int = 200, limit: int = 400):
    """Leading partial quotients of x from a float expansion at the given
    precision, stopped while the convergent denominators stay below
    2^q_bits, where the float error cannot yet change a quotient."""
    out = []
    with mp.workprec(precision):
        v = x.mpf()
        qm1, qm2 = 0, 1
        for _ in range(limit):
            a = int(mp.floor(v))
            out.append(a)
            q = a * qm1 + qm2
            if q.bit_length() > q_bits:
                break
            qm2, qm1 = qm1, q
            v = 1 / (v - a)
    return out


def surd_cf(P: int, Q: int, D: int):
    """Exact continued fraction (preperiod, period) of (P + sqrt(D))/Q by
    floor and reciprocal in Q(sqrt(D)), cut at the first complete quotient
    that repeats."""
    x = QuadNum(Fraction(P, Q), Fraction(1, Q), D)
    seen = {}
    quotients = []
    while x.key() not in seen:
        seen[x.key()] = len(quotients)
        a = x.floor()
        quotients.append(a)
        x = QuadNum(1, 0, D) / (x - a)
    start = seen[x.key()]
    return tuple(quotients[:start]), tuple(quotients[start:])


def cf_quotients(preperiod, period, n: int) -> list[int]:
    out = list(preperiod[:n])
    i = 0
    while len(out) < n:
        out.append(period[i % len(period)])
        i += 1
    return out


# ---------------------------------------------------------------------------
# integer matrices


def mat_mul(A, B):
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0])))
        for i in range(len(A))
    )


def mat_pow(A, k: int):
    n = len(A)
    out = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for _ in range(k):
        out = mat_mul(out, A)
    return out


def det2(M) -> int:
    return M[0][0] * M[1][1] - M[0][1] * M[1][0]


def trace_powers(tr: int, N: int, n_max: int) -> list[int]:
    """tr(A^n) for a 2x2 matrix with trace tr and determinant N, by the
    Lucas recurrence s_n = tr*s_{n-1} - N*s_{n-2}, s_0 = 2, s_1 = tr."""
    s = [2, tr]
    while len(s) <= n_max:
        s.append(tr * s[-1] - N * s[-2])
    return s


def doubling_period_count(n: int) -> int:
    """Distinct period-n points of the doubling map on P^1.

    2^n P = +-P exactly when P lies in E[2^n - 1] or E[2^n + 1].  These odd
    orders are coprime, so the groups meet only in O.  E[m] has m^2 points;
    for odd m its (m^2 - 1)/2 pairs +-P give distinct finite x-coordinates.
    The point O contributes x = infinity.
    """
    m1, m2 = 2**n - 1, 2**n + 1
    return (m1 * m1 - 1) // 2 + (m2 * m2 - 1) // 2 + 1


def doubling_map_coeffs(a, b, c):
    """(num, den) coefficients, lowest degree first, of the x-coordinate
    doubling map on y^2 = x^3 + a x^2 + b x + c, from the tangent slope
    lambda = (3x^2 + 2ax + b)/(2y): x' = lambda^2 - a - 2x."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    num = [b * b - 4 * a * c, -8 * c, -2 * b, Fraction(0), Fraction(1)]
    den = [4 * c, 4 * b, 4 * a, Fraction(4)]
    return num, den


# ---------------------------------------------------------------------------
# periodic points of rational maps, by the checker's own float code


def _horner(cs, z):
    out = mpc(0)
    for c in reversed(cs):
        out = out * z + c
    return out


def newton_step(num, den, n: int, z: complex, precision: int = 256):
    """One Newton step for g(z) = phi^n(z) - z at the given precision.

    Returns |delta|, the distance from z to the root Newton points at.
    """
    with mp.workprec(precision):
        nc = [mpf(Fraction(c).numerator) / Fraction(c).denominator for c in num]
        dc = [mpf(Fraction(c).numerator) / Fraction(c).denominator for c in den]
        dnc = [i * c for i, c in enumerate(nc)][1:]
        ddc = [i * c for i, c in enumerate(dc)][1:]
        w = mpc(z.real, z.imag)
        deriv = mpc(1)
        x = w
        for _ in range(n):
            p, q = _horner(nc, x), _horner(dc, x)
            if q == 0:
                return mpf("inf")
            dp, dq = _horner(dnc, x), _horner(ddc, x)
            deriv *= (dp * q - p * dq) / (q * q)
            x = p / q
        g = x - w
        dg = deriv - 1
        if dg == 0:
            return mpf("inf") if g != 0 else mpf(0)
        return abs(g / dg)


def _far_points(step_fn, points, what: str, rel_tol: float = 1e-9) -> list[str]:
    """Points whose Newton step (distance to the root Newton points at)
    exceeds rel_tol * max(1, |z|)."""
    errs = []
    for z in points:
        step = step_fn(z)
        if not step <= rel_tol * max(1.0, abs(z)):
            errs.append(f"point {z} is {float(step):.3g} from {what}")
    return errs


def poly_newton_step(coeffs, z: complex, precision: int = 256):
    """|p(z)/p'(z)| for p with rational coefficients, lowest degree first."""
    with mp.workprec(precision):
        cs = [mpf(Fraction(c).numerator) / Fraction(c).denominator for c in coeffs]
        w = mpc(z.real, z.imag)
        dp = _horner([i * c for i, c in enumerate(cs)][1:], w)
        p = _horner(cs, w)
        return abs(p / dp) if dp != 0 else (mpf(0) if p == 0 else mpf("inf"))


def check_distinct(points, rel_tol: float = 1e-9) -> list[str]:
    errs = []
    for i in range(len(points)):
        for j in range(i):
            if abs(points[i] - points[j]) <= rel_tol * max(1.0, abs(points[i])):
                errs.append(f"points {points[j]} and {points[i]} coincide")
    return errs


# ---------------------------------------------------------------------------
# checks per workload; each takes the generated input and the program's
# output in plain form


def check_functor(inp, out, deferred) -> list[str]:
    D, a, b = inp
    errs = []
    N = a * a - b * b * D
    if out["D"] != D:
        errs.append(f"D {out['D']} != {D}")
    if out["A"] != ((0, 1), (-N, 2 * a)):
        errs.append(f"A {out['A']} != companion of N={N}, Tr={2 * a}")
    if out["zeta_num"] != (Fraction(1),) or out["zeta_den"] != (
        Fraction(1),
        Fraction(-2 * a),
        Fraction(N),
    ):
        errs.append(f"zeta {out['zeta_num']}/{out['zeta_den']} != 1/(1-{2 * a}t+{N}t^2)")
    alpha, beta, gamma = sublattice_theta(a, b, D)
    if alpha * gamma != abs(N):
        errs.append(f"sublattice index {alpha * gamma} != |N(eps)| = {abs(N)}")
    theta = QuadNum(Fraction(beta, alpha), Fraction(gamma, alpha), D)
    tP, tQ, tD = out["theta_prime"]
    m = isqrt(tD // D) if tD % D == 0 else 0
    if m * m * D != tD or (Fraction(tP, tQ), Fraction(m, tQ)) != (theta.u, theta.v):
        errs.append(f"theta' {out['theta_prime']} != ({beta}+{gamma}*sqrt({D}))/{alpha}")
        return errs
    pre, per = out["preperiod"], out["period"]
    x0 = theta - theta.floor()
    lead = float_cf(x0)
    got = cf_quotients(pre, per, len(lead))
    if got != lead:
        k = next(i for i, (u, v) in enumerate(zip(got, lead)) if u != v)
        errs.append(f"partial quotient {k}: {got[k]} != float expansion {lead[k]}")
    T = out["T"]
    if det2(T) != (-1) ** len(per):
        errs.append(f"det T = {det2(T)} != (-1)^{len(per)}")
    M = ((1, 0), (0, 1))
    for q in pre:
        M = mat_mul(M, ((q, 1), (1, 0)))
    Minv = ((M[1][1], -M[0][1]), (-M[1][0], M[0][0]))
    tail = mobius(Minv, x0)
    (t00, t01), (t10, t11) = T
    if not (t10 * tail * tail + (t11 - t00) * tail - t01).is_zero():
        errs.append("T does not fix the purely periodic tail")
    deferred.append(("k0", (out["A"], out["K0"])))
    return errs


def check_comparison(inp, rows, n_max: int) -> list[str]:
    """Rows (n, trace, distinct, multiplicity) of a comparison report for
    the doubling map of a curve and eps = a + b*sqrt(D)."""
    D, a, b = inp
    N = a * a - b * b * D
    s = trace_powers(2 * a, N, n_max)
    errs = []
    if [r[0] for r in rows] != list(range(1, n_max + 1)):
        errs.append(f"rows cover n = {[r[0] for r in rows]}")
        return errs
    for n, tr, dist, mult in rows:
        if tr != s[n]:
            errs.append(f"n={n}: trace count {tr} != Lucas {s[n]}")
        if dist != doubling_period_count(n):
            errs.append(f"n={n}: distinct count {dist} != {doubling_period_count(n)}")
        if mult != 4**n + 1:
            errs.append(f"n={n}: multiplicity count {mult} != {4**n + 1}")
    return errs


def check_periodic(inp, out, deferred) -> list[str]:
    """inp = (kind, num, den, n); out = dict with count_distinct,
    count_with_multiplicity, infinity_fixed, points, warnings."""
    kind, num, den, n = inp
    errs = []
    pts = list(out["points"])
    if out["warnings"]:
        errs.append(f"{out['warnings']} non-convergence warnings")
    d = max(len(num), len(den)) - 1
    if out["count_with_multiplicity"] != d**n + 1:
        errs.append(f"multiplicity count {out['count_with_multiplicity']} != {d**n + 1}")
    if len(pts) + int(out["infinity_fixed"]) != out["count_distinct"]:
        errs.append(
            f"{len(pts)} finite points + infinity {out['infinity_fixed']} "
            f"!= distinct count {out['count_distinct']}"
        )
    errs += check_distinct(pts)
    if kind == "doubling":
        # Lattès periodic points are all repelling, hence simple roots of
        # phi^n(z) - z: Newton on it measures the distance to the root.
        if out["count_distinct"] != doubling_period_count(n):
            errs.append(f"distinct count {out['count_distinct']} != {doubling_period_count(n)}")
        if not out["infinity_fixed"]:
            errs.append("the doubling map fixes infinity")
        errs += _far_points(lambda z: newton_step(num, den, n, z), pts, f"a period-{n} point")
    else:
        # A generic map may have a cycle of multiplier 1, a multiple root of
        # phi^n(z) - z; the points are checked on its square-free part.
        deferred.append(("sqf", (num, den, n, out["count_distinct"], out["infinity_fixed"], pts)))
    return errs


def check_certificate(A, B, cert, bound: int) -> list[str]:
    R, S, k = cert
    errs = []
    if k < 1:
        errs.append(f"lag {k} < 1")
    if any(v < 0 or v > bound for M in (R, S) for row in M for v in row):
        errs.append(f"certificate entries outside [0, {bound}]")
    if mat_mul(A, R) != mat_mul(R, B):
        errs.append("A R != R B")
    if mat_mul(B, S) != mat_mul(S, A):
        errs.append("B S != S A")
    if k >= 1 and mat_pow(A, k) != mat_mul(R, S):
        errs.append("A^k != R S")
    if k >= 1 and mat_mul(S, R) != mat_pow(B, k):
        errs.append("S R != B^k")
    return errs


def check_se(A, B, conjugate: bool, se, bound: int, deferred) -> list[str]:
    """se = (status, certificate or None, witness or None)."""
    status, cert, witness = se
    errs = []
    if status not in ("equivalent", "not_equivalent", "unknown"):
        return [f"status {status!r}"]
    if status == "equivalent":
        if cert is None:
            return ["equivalent without a certificate"]
        errs += check_certificate(A, B, cert, bound)
    elif status == "not_equivalent":
        if conjugate:
            errs.append("a conjugate pair called not_equivalent")
        deferred.append(("se_witness", (A, B, witness)))
    return errs


def check_similarity(A, B, conjugate: bool, sim, deferred) -> list[str]:
    """sim = (status, T or None, witness or None) for 2x2 A, B."""
    status, T, witness = sim
    if status == "similar":
        if T is None:
            return ["similar without T"]
        errs = []
        if mat_mul(A, T) != mat_mul(T, B):
            errs.append("A T != T B")
        if abs(det2(T)) != 1:
            errs.append(f"|det T| = {abs(det2(T))} != 1")
        return errs
    if status == "not_similar":
        if conjugate:
            return ["a GL2(Z)-conjugate pair called not_similar"]
        deferred.append(("sim_witness", (A, B, witness)))
        return []
    if status == "unknown":
        return []
    return [f"similarity status {status!r}"]


# ---------------------------------------------------------------------------
# checks that need sympy


def run_deferred(deferred) -> list[str]:
    if not deferred:
        return []
    import sympy
    from sympy.matrices.normalforms import smith_normal_form

    x = sympy.Symbol("x")

    def snf_diag(M):
        n = len(M)
        S = smith_normal_form(sympy.Matrix(M), domain=sympy.ZZ)
        return sorted(abs(int(S[i, i])) for i in range(n))

    def group(M):
        diag = snf_diag(M)
        return sum(1 for d in diag if d == 0), tuple(d for d in diag if d > 1)

    def nonsingular_charpoly(M):
        cs = sympy.Matrix(M).charpoly(x).all_coeffs()[::-1]
        while cs and cs[0] == 0:
            cs.pop(0)
        return tuple(int(c) for c in cs)

    def eye_minus(M, transpose=False):
        n = len(M)
        return [
            [int(i == j) - (M[j][i] if transpose else M[i][j]) for j in range(n)]
            for i in range(n)
        ]

    errs = []
    for kind, data in deferred:
        if kind == "k0":
            A, K0 = data
            want = group(eye_minus(A, transpose=True))
            if tuple(K0) != want:
                errs.append(f"K0 {K0} != sympy Smith form {want}")
        elif kind == "se_witness":
            A, B, witness = data
            pa, pb = nonsingular_charpoly(A), nonsingular_charpoly(B)
            if pa != pb:
                if not witness or "characteristic" not in witness:
                    errs.append(f"charpolys differ but witness is {witness!r}")
            elif group(eye_minus(A)) != group(eye_minus(B)):
                if not witness or "Bowen-Franks" not in witness:
                    errs.append(f"Bowen-Franks groups differ but witness is {witness!r}")
            else:
                errs.append(f"not_equivalent with no invariant apart: {A} vs {B}")
        elif kind == "sim_witness":
            A, B, witness = data
            if sympy.Matrix(A).charpoly(x) != sympy.Matrix(B).charpoly(x):
                continue
            tr, dt = A[0][0] + A[1][1], det2(A)
            disc = tr * tr - 4 * dt
            r = isqrt(disc) if disc >= 0 else -1
            apart = False
            if r >= 0 and r * r == disc and (tr - r) % 2 == 0:
                for lam in ((tr + r) // 2, (tr - r) // 2):
                    apart = apart or snf_diag(_minus_scalar(A, lam)) != snf_diag(_minus_scalar(B, lam))
            if not apart:
                errs.append(f"not_similar with no invariant apart: {A} vs {B}")
        elif kind == "sqf":
            num, den, n, count, inf_fixed, pts = data
            nump = sympy.Poly([sympy.Rational(c) for c in reversed(num)], x)
            denp = sympy.Poly([sympy.Rational(c) for c in reversed(den)], x)
            P, Q = nump, denp
            for _ in range(n - 1):
                P, Q = _compose_sym(nump, denp, P, Q, x)
            g = sympy.gcd(P, Q)
            P, Q = sympy.div(P, g)[0], sympy.div(Q, g)[0]
            F = P - sympy.Poly(x, x) * Q
            sqf = sympy.quo(F, sympy.gcd(F, F.diff(x)))
            want_inf = P.degree() > Q.degree()
            want = sqf.degree() + int(want_inf)
            if (count, inf_fixed) != (want, want_inf):
                errs.append(f"distinct count {count}/{inf_fixed} != sympy {want}/{want_inf}")
            coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(sqf.all_coeffs())]
            errs += _far_points(
                lambda z: poly_newton_step(coeffs, z), pts, "a root of the square-free part"
            )
        else:
            errs.append(f"unknown deferred check {kind}")
    return errs


def _minus_scalar(M, lam: int):
    return [[M[i][j] - lam * (i == j) for j in range(len(M))] for i in range(len(M))]


def _compose_sym(nump, denp, P, Q, x):
    """Numerator and denominator of f(P/Q) for f = nump/denp."""
    import sympy

    d = max(nump.degree(), denp.degree())
    num = sympy.Poly(0, x)
    den = sympy.Poly(0, x)
    for i in range(d + 1):
        term = P**i * Q ** (d - i)
        num += nump.coeff_monomial(x**i) * term
        den += denp.coeff_monomial(x**i) * term
    return num, den
