"""Exact dynamics of rational self-maps of the projective line: composition,
Moebius conjugation, periodic-point counting, and truncated zeta series.

Maps compose in integers: ``compose`` evaluates the homogeneous pair of f
at that of g with ``intlinalg.compose_pair``, one Kronecker substitution
for the whole composition, and, as a composition of maps in lowest terms
is in lowest terms, takes no gcd.  The one chain of iterates is
``iterates``: it yields f, f o f, ..., f^n, each composed once from the
one before, and refuses an iterate of degree above
``ITERATE_DEGREE_BUDGET`` before composing anything; ``iterate`` and
``pipeline.comparison_report`` read it.

A Moebius map z -> (a z + b)/(c z + d) is its integer matrix
``IntMatrix2(a, b, c, d)``; composing maps is multiplying matrices, and a
nonzero scalar multiple of the matrix is the same map.

Counts are symbolic (degrees of exact polynomials) and come from
``periodic_count`` alone, which asserts the Bezout count d^n + 1 and that
the distinct count is no larger; the floating root finder runs only in
``periodic_points``, locates the finitely many distinct finite periodic
points and never feeds back into a count.

Root location (``aberth_roots``) runs Aberth's simultaneous iteration in
two phases from one deterministic start.  Up to MAX_SWEEPS sweeps run in
machine complex numbers, each over the points whose last relative step
was at least FLOAT_STEP: as in MPSolve, a point below it is frozen, and
only the Aberth sums of the others read it.  Up to MAX_SWEEPS more polish
the result in the standard library's ``decimal`` arithmetic (libmpdec) on
(real, imaginary) pairs, or start over from the same start when a float
stopped being finite.  Both phases take the Newton correction from one
of two evaluators.  Horner runs on the integer coefficients (in floats
scaled by a power of two, and reversed past |z| = 1 so that no power of z
overflows).  The jet, for F = P_n - x Q_n of an iterate phi^n = P_n/Q_n,
runs phi's homogeneous pair n times from (z, 1) and carries the
derivative by the chain rule (Schleicher and Stoll, Newton's method in
practice, 2017): each step is evaluated in the chart X/Z or Z/X that stays
in the unit disc, which rescales the jet and leaves F/F' unchanged, and
no digit is lost to the cancellation in F's expanded coefficients.
``periodic_points`` takes the jet when F is square-free and the jet costs
fewer Horner updates, 2 n (d + 1) < d^n + 1; Horner otherwise.  The
polish runs at fixed levels of precision: the top one, at precision + 32
bits, holds the digits of the tolerance 2^(10 - precision), and each one
below a third of the digits of the one above while that is more than 36.
One rule moves between them: the next sweep runs at the lowest level
that holds the cube of the last largest step, one level higher (at the
top, GUARD_STEP bits more) when a largest step below FLOAT_STEP shrank by
less than its square, and at the top after a zero step.  It converges
when a sweep at the top level has every step below 2^(10 - precision)
max(|z|, 2^-precision).  A decimal sweep takes each point's Aberth sum
sum 1 / (z_i - z_j) in machine complex numbers, with a bound on its
rounding error, whenever the error that bound puts into the step is
below the tolerance or the cube of the relative Newton step; otherwise,
and for points out of the float range or closer than a float resolves,
it sums in decimal.  After convergence a real or imaginary part within
that tolerance is reported as exactly 0, so the output does not depend
on the path the iteration took.
``periodic_points`` refuses a map of degree d at period n before any
exact work when d^n exceeds ROOT_DEGREE_BUDGET.
"""

from __future__ import annotations

import cmath
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from itertools import chain

from .errors import PRECISION_BUDGET, PRECISION_FLOOR, BudgetExceededError, DomainError
from .exactnum import Poly
from .intlinalg import IntMatrix2, compose_pair
from .lattes import RationalMap


# Largest degree of an iterate that ``iterates`` builds: on a 2-core
# container, with one packed integer per sum of a composition, the doubling
# map's degree-4^5 iterate takes 0.3-0.6 s, its degree-4^6 iterate 25-35 s,
# nearly all of it in the big-integer products of the last composition.
ITERATE_DEGREE_BUDGET = 4**5

# Largest degree phi.degree^n whose periodic points ``periodic_points``
# locates: on a 2-core container ``periodic --curve 4,2,0 -n 3`` (degree
# 64) takes 0.12-0.16 s as a process, as does the D = 11 model.  At n = 4
# (degree 256) the jet locates the points of the four CM doubling maps,
# converged, as a process in 0.27-0.33 s on (0,0,1), 0.64-0.73 s on
# (-3,-32,-64), 1.7-1.8 s on the D = 11 model and 1.9-2.2 s on (4,2,0);
# but a map whose F is not square-free keeps Horner, and (x^4 - 3x^2 +
# 1)/x^3 at n = 4 runs all MAX_SWEEPS in 95 s in-process and warns.
ROOT_DEGREE_BUDGET = 4**3

# Root location.  Each of its two phases runs at most MAX_SWEEPS sweeps.
# A machine-float sweep moves only the points whose last relative step was
# at least FLOAT_STEP; the sweeps stop once every relative step is below
# it, or when their largest step has not reached a new low for
# FLOAT_PATIENCE sweeps.  A decimal sweep with every step below FLOAT_STEP
# whose largest step shrank by less than its square is limited by its
# working precision; at the top level that adds GUARD_STEP bits (as decimal
# digits).
MAX_SWEEPS = 200
FLOAT_STEP = 1e-12
FLOAT_PATIENCE = 10
GUARD_STEP = 64

_ZERO, _ONE = Decimal(0), Decimal(1)

# The float Aberth sum (``_float_sum``): the range of moduli of a point
# whose float copy takes it, its error bound's 2u, and the limit on
# |z_i|^2 sum 1 / |z_i - z_j|^2 that keeps that bound first order.
_FLOAT_LO, _FLOAT_HI = 2.0**-500, 2.0**500
_ULP2 = 2.0**-52
_FIRST_ORDER = 2.0**84


def compose(f: RationalMap, g: RationalMap) -> RationalMap:
    """Exact composition f o g, reduced to lowest terms.

    For f = sum a_i x^i / sum b_i x^i of degree m and g = r/s, f o g is
    sum a_i r^i s^(m-i) / sum b_i r^i s^(m-i).  A ``RationalMap`` holds
    integer coefficients over the denominator 1, so both sums come from
    one ``intlinalg.compose_pair`` on the ``ints``: r and s are packed
    once, and each sum is one integer unpacked once.  The map is built
    from the two sums, which need no gcd: for the homogeneous pairs of f
    and g, Res(f o g) = Res(f)^(deg g) Res(g)^((deg f)^2) (Silverman, The
    Arithmetic of Dynamical Systems, 2007, section 2.4), which is nonzero
    as f and g are in lowest terms, so only the integer content is divided
    out (``RationalMap._coprime``)."""
    return RationalMap._coprime(
        *compose_pair(f.num.ints, f.den.ints, g.num.ints, g.den.ints)
    )


def _check_degree(what: str, d: int, n: int, name: str, budget: int) -> None:
    # d^min(n, b) > budget exactly when d^n > budget (2^b > budget), and
    # never forms a huge power
    if d ** min(n, budget.bit_length()) > budget:
        raise BudgetExceededError(f"{what} of degree {d}^{n} exceeds {name} = {budget}")


def iterates(f: RationalMap, n: int) -> Iterator[RationalMap]:
    """The iterates f, f o f, ..., f^n, each composed once as f o f^(k-1).
    Its first step raises BudgetExceededError, before any composition, when
    the degree f.degree^n of the last exceeds ITERATE_DEGREE_BUDGET."""
    if n < 1:
        raise DomainError("iteration count must be >= 1")
    _check_degree("iterate", f.degree, n, "ITERATE_DEGREE_BUDGET", ITERATE_DEGREE_BUDGET)
    out = f
    yield out
    for _ in range(n - 1):
        out = compose(f, out)
        yield out


def iterate(f: RationalMap, n: int) -> RationalMap:
    """The n-th iterate f o ... o f, the last of ``iterates(f, n)``."""
    for out in iterates(f, n):
        pass
    return out


def conjugate(f: RationalMap, M: IntMatrix2) -> RationalMap:
    """The conjugate m^{-1} o f o m by the Moebius map m with matrix M;
    m^{-1} has the adjugate matrix ((d, -b), (-c, a))."""
    if M.det() == 0:
        raise DomainError("Moebius transformation must have ad - bc != 0")
    m = RationalMap(Poly((M.b, M.a)), Poly((M.d, M.c)))
    m_inv = RationalMap(Poly((-M.b, M.d)), Poly((M.a, -M.c)))
    return compose(m_inv, compose(f, m))


@dataclass(frozen=True)
class PeriodicReport:
    n: int
    degree: int
    count_with_multiplicity: int
    count_distinct: int
    finite_points: tuple[complex, ...]
    infinity_fixed: bool


def _context(digits: int) -> Context:
    """A decimal context of the given significant digits, its exponent range
    at the limits so that any root of an integer polynomial fits."""
    return Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _digits(bits: int) -> int:
    """Decimal digits that hold the given number of bits."""
    return math.ceil(bits * math.log10(2))


def _initial_points(ints, deg):
    """Starting points, as (real, imaginary) Decimal pairs, on circles whose
    radii come from the upper convex hull of (i, log|c_i|) over the integer
    coefficients ints; clusters of very different magnitude each get a
    circle of roughly the right size.  Logs and angles are machine floats;
    only the radius is a decimal, as it can be 10^400 (x^2 - 10^800)."""
    pts = [(i, math.log(abs(c))) for i, c in enumerate(ints) if c]
    hull = []
    for px, py in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (px - x1) <= (py - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((px, py))
    z = []
    with localcontext(_context(17)):
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            r = Decimal((y1 - y2) / (x2 - x1)).exp()
            count = x2 - x1
            for k in range(count):
                angle = 2 * math.pi * (k / count + 0.073 + x1 / (3 * deg))
                z.append((r * Decimal(math.cos(angle)), r * Decimal(math.sin(angle))))
    return z


def _check_precision(precision: int) -> None:
    if precision < PRECISION_FLOOR:
        raise DomainError(
            f"precision of {precision} bits is below PRECISION_FLOOR = {PRECISION_FLOOR}"
        )
    if precision > PRECISION_BUDGET:
        raise BudgetExceededError(
            f"precision of {precision} bits exceeds PRECISION_BUDGET = {PRECISION_BUDGET}"
        )


def _horner_float(ints):
    """Newton correction p(z)/p'(z) in machine complex numbers for the
    integer coefficients ints (lowest degree first, no zero root).  They
    are scaled by one power of two to below 1 in size; at |z| > 1 the
    correction comes from the reversed polynomial r(v) = v^d p(1/v) at
    v = 1/z, as z r / (d r - v r'), so no power of z overflows."""
    deg = len(ints) - 1
    scale = 1 << max(abs(c).bit_length() for c in ints)
    lo = [c / scale for c in ints]
    hi = lo[::-1]

    def newton(z):
        p = dp = 0j
        if abs(z) <= 1:
            for c in hi:
                dp = dp * z + p
                p = p * z + c
            return p / dp
        v = 1 / z
        for c in lo:
            dp = dp * v + p
            p = p * v + c
        return z * p / (deg * p - v * dp)

    return newton


def _horner_pairs(ints):
    """Numerator and denominator (p, p') of the Newton correction in the
    current decimal context for the integer coefficients ints (lowest
    degree first, no zero root), at a (real, imaginary) pair; Horner."""
    cs = [Decimal(c) for c in reversed(ints)]
    head, tail = cs[0], cs[1:]

    def newton(zr, zi):
        pr, pi, dr, di = head, _ZERO, _ZERO, _ZERO
        for c in tail:
            dr, di = dr * zr - di * zi + pr, dr * zi + di * zr + pi
            pr, pi = pr * zr - pi * zi + c, pr * zi + pi * zr
        return pr, pi, dr, di

    return newton


def _jet_float(num, den, n, k):
    """Newton correction F(z) / (F'(z) - k F(z) / z) for F(z) = X - z Z,
    (X, Z) = H^n(z, 1), where H(X, Z) = (p^h(X, Z), q^h(X, Z)) is the
    homogeneous pair of a map of degree d = len(num) - 1 with coefficients
    num and den (lowest degree first, padded to d + 1 terms).  Each step
    divides the jet (X, Z, X', Z') by whichever of X and Z is the larger,
    so the Horner variable t = X/Z or u = Z/X stays in the unit disc and
    nothing overflows; the jet map is homogeneous, so F/F' is unchanged.
    With x1, z1 the scaled derivatives, the chain rule gives, in the chart
    Z = 1, X' = p'(t) (x1 - t z1) + d p(t) z1 and the same for q; the
    chart X = 1 is the same with X and Z, and the coefficient order,
    swapped.  The arithmetic is machine complex numbers."""
    d = len(num) - 1
    by_t = (num[::-1], den[::-1])
    by_u = (num, den)

    def newton(z):
        X, Z, dX, dZ = z, 1, 1, 0
        for _ in range(n):
            if abs(X) <= abs(Z):
                cp, cq = by_t
            else:
                cp, cq = by_u
                X, Z, dX, dZ = Z, X, dZ, dX
            r = 1 / Z
            t, x1, z1 = X * r, dX * r, dZ * r
            w = x1 - t * z1
            p = dp = q = dq = 0
            for a, b in zip(cp, cq):
                dp = dp * t + p
                p = p * t + a
                dq = dq * t + q
                q = q * t + b
            X, Z, dX, dZ = p, q, dp * w + d * p * z1, dq * w + d * q * z1
        F = X - z * Z
        dF = dX - Z - z * dZ
        if k:
            dF -= k * F / z
        return F / dF

    return newton


def _jet_pairs(num, den, n, k, one):
    """Numerator and denominator of the Newton correction of _jet_float on
    (real, imaginary) pairs of any real field whose unit is one, such as
    Decimal in the current context or Fraction: (F, F'), or (z F, z F' -
    k F) for a zero root of multiplicity k.  The coefficients num and den
    are of that field."""
    d = (len(num) - 1) * one
    zero = one - one
    by_t = (num[::-1], den[::-1])
    by_u = (num, den)

    def newton(zr, zi):
        xr, xi, yr, yi = zr, zi, one, zero  # X and Z
        ar, ai, br, bi = one, zero, zero, zero  # X' and Z'
        for _ in range(n):
            if xr * xr + xi * xi <= yr * yr + yi * yi:
                cp, cq = by_t
            else:
                cp, cq = by_u
                xr, xi, yr, yi, ar, ai, br, bi = yr, yi, xr, xi, br, bi, ar, ai
            m = one / (yr * yr + yi * yi)
            rr, ri = yr * m, -yi * m
            tr, ti = xr * rr - xi * ri, xr * ri + xi * rr
            ar, ai = ar * rr - ai * ri, ar * ri + ai * rr
            br, bi = br * rr - bi * ri, br * ri + bi * rr
            wr, wi = ar - tr * br + ti * bi, ai - tr * bi - ti * br
            pr, pi, qr, qi = cp[0], zero, cq[0], zero
            dpr = dpi = dqr = dqi = zero
            for a, b in zip(cp[1:], cq[1:]):
                dpr, dpi = dpr * tr - dpi * ti + pr, dpr * ti + dpi * tr + pi
                pr, pi = pr * tr - pi * ti + a, pr * ti + pi * tr
                dqr, dqi = dqr * tr - dqi * ti + qr, dqr * ti + dqi * tr + qi
                qr, qi = qr * tr - qi * ti + b, qr * ti + qi * tr
            xr, xi, yr, yi, ar, ai, br, bi = (
                pr, pi, qr, qi,
                dpr * wr - dpi * wi + d * (pr * br - pi * bi),
                dpr * wi + dpi * wr + d * (pr * bi + pi * br),
                dqr * wr - dqi * wi + d * (qr * br - qi * bi),
                dqr * wi + dqi * wr + d * (qr * bi + qi * br),
            )
        fr, fi = xr - zr * yr + zi * yi, xi - zr * yi - zi * yr
        gr, gi = ar - yr - zr * br + zi * bi, ai - yi - zr * bi - zi * br
        if k:
            return (zr * fr - zi * fi, zr * fi + zi * fr,
                    zr * gr - zi * gi - k * fr, zr * gi + zi * gr - k * fi)
        return fr, fi, gr, gi

    return newton


def _float_sweeps(newton, z):
    """Up to MAX_SWEEPS Aberth sweeps in machine complex numbers from the
    points z, which are updated in place, with the Newton correction
    newton(z) of ``_horner_float`` or ``_jet_float``; returns z, or None
    when a value stopped being finite.

    A point whose relative step falls below FLOAT_STEP is frozen, as in
    MPSolve (Bini and Fiorentino, Numer. Algorithms 23, 2000): it gets no
    further Newton evaluation or Aberth sum and does not move again, while
    the Aberth sums of the points still active read its position.  The
    sweeps stop when no point is active, that is when every last step is
    below FLOAT_STEP, or when the largest step over the active points has
    not reached a new low for FLOAT_PATIENCE sweeps.  The polish certifies
    every point, so a point frozen early costs decimal sweeps, not digits."""
    deg = len(z)
    active = range(deg)
    best, stale = math.inf, 0
    try:
        for _ in range(MAX_SWEEPS):
            worst, moving = 0.0, []
            for i in active:
                zi = z[i]
                w = newton(zi)
                s = 0j
                for j in range(deg):
                    if j != i:
                        s += 1 / (zi - z[j])
                delta = w / (1 - w * s)
                z[i] = zi = zi - delta
                step = abs(delta) / max(abs(zi), 1e-300)
                if step >= FLOAT_STEP:
                    moving.append(i)
                worst = max(worst, step)
            active = moving
            if worst < FLOAT_STEP:
                break
            if worst < best:
                best, stale = worst, 0
            else:
                stale += 1
                if stale >= FLOAT_PATIENCE:
                    break
    except (ZeroDivisionError, OverflowError):
        return None
    return z if all(cmath.isfinite(v) for v in z) else None


def _float_sum(fz, i):
    """The Aberth sum s = sum 1 / (z_i - z_j) over j != i in machine complex
    numbers from the float copies fz of the n points, all of modulus in
    [2^-500, 2^500], and a bound ds on its error against the same sum over
    the points themselves; or None when z_i coincides with another copy or
    is so close to one that the first-order bound does not hold.

    A copy is off by at most u |z_j| (u = 2^-53; at those moduli a
    subnormal part adds nothing that counts), which moves the term 1 / (z_i
    - z_j) by u (|z_i| + |z_j|) / |z_i - z_j|^2 to first order; as |z_j| <=
    |z_i| + |z_i - z_j|, the copies move s by at most u (2 |z_i| q + h) for
    q = sum 1 / |z_i - z_j|^2 and h = sum 1 / |z_i - z_j|.  The
    subtraction, the division and the running sum add at most (n + 5) u h.
    ds = 2^-52 (|z_i| q + (n + 3) h) is no smaller than both together.
    The first order holds while u (|z_i| + |z_j|) / |z_i - z_j| stays below
    about 2^-10, which |z_i|^2 q < 2^84 ensures; no term overflows."""
    zi = fz[i]
    s, h, q = 0j, 0.0, 0.0
    try:
        for v in chain(fz[:i], fz[i + 1 :]):
            r = 1 / (zi - v)
            s += r
            t = abs(r)
            h += t
            q += t * t
    except (ZeroDivisionError, OverflowError):  # abs of a term past the float range
        return None
    a = abs(zi)
    if not a * a * q < _FIRST_ORDER:  # also when q is not finite
        return None
    return s, _ULP2 * (a * q + (len(fz) + 3) * h)


def _decimal_sum(re, im, i):
    """The Aberth sum sum 1 / (z_i - z_j) over j != i in the current
    decimal context, as a (real, imaginary) pair."""
    zr, zi = re[i], im[i]
    sr = si = _ZERO
    for xr, xi in chain(zip(re[:i], im[:i]), zip(re[i + 1 :], im[i + 1 :])):
        ar, ai = zr - xr, zi - xi
        m = _ONE / (ar * ar + ai * ai)
        sr += ar * m
        si -= ai * m
    return sr, si


def _in_range(v) -> bool:
    """Whether a float copy may enter ``_float_sum``."""
    return _FLOAT_LO <= abs(v) <= _FLOAT_HI


def _aberth_sweep(newton, re, im, floor2, nudge):
    """One Gauss-Seidel Aberth sweep in the current decimal context over
    the points re[i] + i im[i], which are updated in place; newton(zr, zi)
    gives the numerator p and denominator p' of the Newton correction
    (``_horner_pairs`` or ``_jet_pairs``).  Complex numbers are (real,
    imaginary) pairs, and each reciprocal is one real division.  Returns
    the largest squared relative step |delta|^2 / max(|z|^2, floor2), and
    whether a point with a zero derivative or a zero Aberth denominator
    was moved by nudge instead of a step.

    The step is delta = w / (1 - w s) with the Newton step w = p / p' and
    the Aberth sum s = sum 1 / (z_i - z_j), so an error ds in s moves it
    by about |w|^2 ds.  s is taken in machine complex numbers, from float
    copies of the points kept in Gauss-Seidel order (``_float_sum``), when
    the error that puts into the step is below the larger of the
    tolerance and the cube of the relative Newton step, which the cubic
    rate leaves anyway: (|w|^2 ds)^2 / z2 < max(tol2, (|w|^2 / z2)^3) with
    z2 = max(|z|^2, floor2) and tol2 = 4^10 floor2 = 4^(10 - precision).
    The test runs in Decimal, as its sides underflow a float at high
    precision.  Otherwise s is summed in the current context
    (``_decimal_sum``), as it is for every point once a float copy is out
    of range, and for a point whose copy coincides with another."""
    fz = [complex(float(x), float(y)) for x, y in zip(re, im)]
    floats = all(map(_in_range, fz))
    tol2 = floor2 * 4**10
    worst, nudged = _ZERO, False
    for i, (zr, zi) in enumerate(zip(re, im)):
        pr, pi, dr, di = newton(zr, zi)
        if not (pr or pi):
            continue
        fs = _float_sum(fz, i) if floats and (dr or di) else None
        if fs is not None:
            z2 = max(zr * zr + zi * zi, floor2)
            w2 = (pr * pr + pi * pi) / (dr * dr + di * di)
            e = w2 * Decimal(fs[1])
            if e * e >= max(tol2 * z2, w2 * w2 * w2 / (z2 * z2)):
                fs = None
        if fs is None:
            sr, si = _decimal_sum(re, im, i)
        else:
            sr, si = Decimal(fs[0].real), Decimal(fs[0].imag)
        # delta = p / (p' - p s), the Newton step w = p / p' over 1 - w s
        er, ei = dr - pr * sr + pi * si, di - pr * si - pi * sr
        if not (dr or di) or not (er or ei):
            re[i] = zr = zr + nudge
            nudged = True
        else:
            m = _ONE / (er * er + ei * ei)
            xr, xi = (pr * er + pi * ei) * m, (pi * er - pr * ei) * m
            re[i], im[i] = zr, zi = zr - xr, zi - xi
            step = (xr * xr + xi * xi) / max(zr * zr + zi * zi, floor2)
            if step > worst:
                worst = step
        fz[i] = v = complex(float(zr), float(zi))
        floats = floats and _in_range(v)
    return worst, nudged


def _polish(newton, z, precision: int):
    """Aberth sweeps in decimal arithmetic with the Newton correction
    newton (see ``_aberth_sweep``) from the (real, imaginary) Decimal
    pairs z, until a sweep at the top level has every step below
    2^(10 - precision) max(|z|, 2^-precision); returns the pairs with the
    zero rule applied, or warns after MAX_SWEEPS and returns them as they
    are.

    The sweeps run at fixed levels.  The top level holds the digits of the
    tolerance; each level below holds a third of those of the one above,
    rounded up, while that is more than 36, the cube of the FLOAT_STEP at
    which the float sweeps hand over.  Every level works with the slack
    that precision + 32 bits keeps over the top level, so the cube of the
    error its own rounding leaves still reaches the level above.  The
    first sweep runs at the lowest level.  As the iteration converges
    cubically, a step of 10^-d sends the next sweep to the lowest level
    that holds 3 d digits; the level never falls.  A sweep with every step
    below FLOAT_STEP whose largest step shrank by less than its square
    (the decimal exponent of the squared step stayed above twice the last
    one's, which a wander of one in the exponent at the noise floor does
    not cross) is limited by its precision, as in MPSolve: it moves up one
    level, or at the top adds GUARD_STEP bits, and the next sweep, which
    re-measures the same error, is compared with nothing.  A zero largest
    step moves to the top level.  Each sweep takes its Aberth sums in
    floats wherever their rounding stays below the tolerance or the cube
    of the step (see ``_aberth_sweep``), so a sweep whose steps are near
    the tolerance, the certifying one above all, costs mainly its Newton
    evaluations.
    Magnitudes are compared squared, so no square root is taken."""
    full = _digits(precision + 32) + 1
    held = [_digits(precision - 10)]
    while held[0] > -9 * math.log10(FLOAT_STEP):  # a third of it tops 36
        held.insert(0, -(-held[0] // 3))
    slack = full - held[-1]
    re = [x for x, _ in z]
    im = [y for _, y in z]
    with localcontext(_context(full)) as ctx:
        tol2 = Decimal(4) ** (10 - precision)
        floor2 = Decimal(4) ** -precision
        nudge = Decimal(2) ** (-precision // 2)
        stall2 = Decimal(FLOAT_STEP) ** 2
        level, top, last = 0, len(held) - 1, _ONE
        for _ in range(MAX_SWEEPS):
            ctx.prec = held[level] + slack
            worst, nudged = _aberth_sweep(newton, re, im, floor2, nudge)
            if level == top and not nudged and worst <= tol2:
                break
            if not worst:
                level = top
            elif worst < stall2 and worst.adjusted() > 2 * last.adjusted():
                if level == top:
                    held[top] += _digits(GUARD_STEP)
                else:
                    level += 1
                worst = _ONE
            else:
                need = 3 * (-worst.adjusted() // 2)
                while level < top and held[level] < need:
                    level += 1
            last = worst
        else:
            warnings.warn(
                "root refinement did not converge at this precision; "
                "counts remain exact",
                RuntimeWarning,
            )
            return list(zip(re, im))
        out = []
        for x, y in zip(re, im):
            bound = tol2 * max(x * x + y * y, floor2)
            out.append((x if x * x > bound else _ZERO, y if y * y > bound else _ZERO))
    return out


def aberth_roots(p: Poly, precision: int = 128, jet=None):
    """All complex roots of a square-free polynomial by simultaneous
    (Aberth-Ehrlich) iteration; deterministic start, deterministic order.

    Zero roots are split off first.  From ``_initial_points``, up to
    MAX_SWEEPS Gauss-Seidel sweeps run in machine complex numbers
    (``_float_sweeps``), then up to MAX_SWEEPS sweeps in decimal arithmetic
    (``_polish``) from their result, or from the start itself when the
    float sweeps failed.  The second phase works at fixed levels of
    precision up to precision + 32 bits, GUARD_STEP bits more when that
    limits its steps, and converges once every step of a sweep at the top
    is below 2^(10 - precision) max(|z|, 2^-precision).  Once converged, a
    real or imaginary part no larger than that tolerance is reported as
    exactly 0 (the zero rule).  A run that does not converge warns and
    returns its last points.  The roots come back as (real, imaginary)
    ``Decimal`` pairs, sorted.  The sweeps take an Aberth sum in machine
    floats where its rounding stays below the tolerance (see
    ``_aberth_sweep``), so those pairs carry that rounding in digits below
    the tolerance and differ there from sweeps that sum in decimal alone;
    rounded to machine floats, as ``periodic_points`` reports them, they
    agree.
    Raises DomainError before any work when precision is below
    PRECISION_FLOOR, and BudgetExceededError when it exceeds
    PRECISION_BUDGET.

    Both phases take the Newton correction from one of two evaluators.
    By default it is Horner on the coefficients of p.  With jet = (phi, n),
    where p is P_n - x Q_n for phi^n = P_n/Q_n up to a constant factor, it
    is the jet: phi's homogeneous pair run n times with the chain rule
    (``_jet_float``, ``_jet_pairs``), which costs 2 n (deg phi + 1) Horner
    updates in place of deg p + 1 and loses no digits to the cancellation
    in p's expanded coefficients."""
    _check_precision(precision)
    if p.degree <= 0:
        return []
    zero_roots = 0
    while p.ints[zero_roots] == 0:
        zero_roots += 1
    ints = p.ints[zero_roots:]
    roots = []
    if len(ints) > 1:
        if jet is None:
            float_newton, newton = _horner_float(ints), _horner_pairs(ints)
        else:
            phi, n = jet
            num, den = (f.ints + (0,) * (phi.degree + 1 - len(f.ints)) for f in (phi.num, phi.den))
            scale = 1 << max(abs(c).bit_length() for c in num + den)
            float_newton = _jet_float(
                [c / scale for c in num], [c / scale for c in den], n, zero_roots
            )
            newton = _jet_pairs(
                [Decimal(c) for c in num], [Decimal(c) for c in den], n, zero_roots, _ONE
            )
        z = _initial_points(ints, len(ints) - 1)
        fz = _float_sweeps(float_newton, [complex(float(x), float(y)) for x, y in z])
        if fz is not None:
            z = [(Decimal(v.real), Decimal(v.imag)) for v in fz]
        roots = _polish(newton, z, precision)
    roots.extend([(_ZERO, _ZERO)] * zero_roots)
    roots.sort()
    return roots


@dataclass(frozen=True)
class PeriodicCount:
    """Exact count of the solutions of phi^n(x) = x on the projective line.

    ``squarefree`` is the square-free part of P_n - x Q_n, where
    phi^n = P_n / Q_n; its roots are the finite periodic points.
    ``finite_simple`` says that P_n - x Q_n is itself square-free, so that
    every finite periodic point is a simple root of it."""

    degree: int
    count_with_multiplicity: int
    count_distinct: int
    infinity_fixed: bool
    squarefree: Poly
    finite_simple: bool


def periodic_count(phi: RationalMap, n: int) -> PeriodicCount:
    """Exact period-n counts of phi with no root finding.  Raises
    ArithmeticError when the count with multiplicity is not the Bezout
    count d^n + 1, or the distinct count exceeds it."""
    if n < 1:
        raise DomainError("period must be >= 1")
    d = phi.degree
    if d < 2:
        raise DomainError("map degree must be >= 2")
    phin = iterate(phi, n)
    P, Q = phin.num, phin.den
    F = P - Poly._from_ints((0, *Q.ints), Q.den)
    infinity_fixed = P.degree > Q.degree
    # The multiplicity of infinity is the order at w = 0 of
    # Q~(w) - w P~(w), with P~, Q~ the reversals of P, Q to degree deg phi^n;
    # its coefficient of w^i is Q_(N-i) - P_(N+1-i).
    N = phin.degree
    mult_infinity = next(
        i for i in range(N + 2) if Q.coefficient(N - i) != P.coefficient(N + 1 - i)
    )
    sqf = F.squarefree_part()
    total = F.degree + mult_infinity
    distinct = sqf.degree + (1 if infinity_fixed else 0)
    if total != d**n + 1:
        raise ArithmeticError("Bezout count identity violated")
    if distinct > total:
        raise ArithmeticError("distinct count exceeds the count with multiplicity")
    return PeriodicCount(
        degree=d,
        count_with_multiplicity=total,
        count_distinct=distinct,
        infinity_fixed=infinity_fixed,
        squarefree=sqf,
        finite_simple=sqf.degree == F.degree,
    )


def periodic_points(phi: RationalMap, n: int, precision: int = 128) -> PeriodicReport:
    """Solutions of phi^n(x) = x with exact counts and float locations.
    Before the exact work it checks PRECISION_FLOOR and PRECISION_BUDGET,
    then the ITERATE_DEGREE_BUDGET that ``iterate`` applies, then
    ROOT_DEGREE_BUDGET.

    The roots of the square-free part of F = P_n - x Q_n are located with
    the jet of phi's homogeneous pair (``aberth_roots`` with jet = (phi,
    n)) when F is itself square-free and the jet takes fewer Horner updates
    per evaluation than F, 2 n (d + 1) < d^n + 1; otherwise by Horner on
    the square-free part.  For the degree-4 doubling maps that is the jet
    from n = 3 on."""
    _check_precision(precision)
    d = phi.degree
    _check_degree("iterate", d, n, "ITERATE_DEGREE_BUDGET", ITERATE_DEGREE_BUDGET)
    _check_degree("root location", d, n, "ROOT_DEGREE_BUDGET", ROOT_DEGREE_BUDGET)
    count = periodic_count(phi, n)
    jet = (phi, n) if count.finite_simple and 2 * n * (d + 1) < d**n + 1 else None
    pts = tuple(
        sorted(
            (
                complex(float(x), float(y))
                for x, y in aberth_roots(count.squarefree, precision, jet=jet)
            ),
            key=lambda v: (v.real, v.imag),
        )
    )
    return PeriodicReport(
        n=n,
        degree=count.degree,
        count_with_multiplicity=count.count_with_multiplicity,
        count_distinct=count.count_distinct,
        finite_points=pts,
        infinity_fixed=count.infinity_fixed,
    )


def zeta_from_counts(counts, N: int) -> list[Fraction]:
    """Coefficients through degree N of exp(sum counts[n-1] t^n / n)."""
    counts = list(counts)
    if len(counts) < N:
        raise DomainError(f"need at least {N} counts")
    e = [Fraction(1)] + [Fraction(0)] * N
    for k in range(1, N + 1):
        total = sum((counts[j - 1] * e[k - j] for j in range(1, k + 1)), Fraction(0))
        e[k] = total / k
    return e
