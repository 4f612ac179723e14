"""The five workloads: seeded input generators, the calls into the program,
and adapters from the program's results to the plain form the checks in
``oracles`` read.

Generators use only the benchmark's own code; ``prepare`` turns generated
inputs into program objects and zero-argument calls, so the program receives
only the generated inputs.  Every call in a round is run once per round, and
every round repeats the same calls.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from math import gcd, isqrt

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CLI_ENTRY = os.path.join(HERE, "lattes_entry.py")

# Small CM models y^2 = x^3 + a x^2 + b x + c with their CM field Q(sqrt(D)):
# j = 0 (disc -3), j = 8000 (disc -8, the paper's worked example) and
# j = -3375 (disc -7).  On these, and their quadratic twists by -1 and 2,
# root location converges at n = 3.  Larger models of the same j (and the
# D = 11 model x^3 - 4x^2 - 112x + 656) take 200 sweeps without converging.
CM_CURVES = ((3, (0, 0, 1)), (2, (4, 2, 0)), (7, (-3, -32, -64)))
TWISTS = (1, -1, 2)


def twist(curve, d):
    a, b, c = curve
    return a * d, b * d * d, c * d**3


def _log_uniform(rng, lo: int, hi: int) -> int:
    return int(10 ** rng.uniform(lo, hi))


def _squarefree_in(rng, lo: int, hi: int) -> int:
    while True:
        D = _log_uniform(rng, lo, hi)
        if D > 1 and oracles.is_squarefree(D):
            return D


def _eps(rng, D: int, b_max: int = 3, a_max: int | None = None):
    """Integral eps = a + b*sqrt(D) with a >= 0 and N(eps) <= 0, so that the
    companion matrix ((0, 1), (-N, 2a)) is non-negative."""
    b = rng.randint(1, b_max)
    top = isqrt(b * b * D)
    return rng.randint(0, top if a_max is None else min(a_max, top)), b


def _elem_text(a: int, b: int, D: int) -> str:
    return f"{a}+{b}*sqrt({D})"


def _mat_text(M) -> str:
    return ";".join(",".join(str(v) for v in r) for r in M)


def _poly_text(cs) -> str:
    return ",".join(str(c) for c in cs)


# ---------------------------------------------------------------------------
# adapters from program objects to plain data


def functor_plain(out) -> dict:
    t = out.theta_prime
    return {
        "D": out.D,
        "A": out.A.rows(),
        "theta_prime": (t.P, t.Q, t.D),
        "preperiod": tuple(out.cf.preperiod),
        "period": tuple(out.cf.period),
        "T": out.T.rows(),
        "zeta_num": tuple(out.zeta.num.coeffs),
        "zeta_den": tuple(out.zeta.den.coeffs),
        "K0": (out.K0.rank, tuple(out.K0.torsion)),
    }


_SURD_RE = re.compile(r"^\((-?\d+)\+sqrt\((\d+)\)\)/(-?\d+)$")


def functor_plain_json(doc: dict) -> dict:
    m = _SURD_RE.match(doc["theta_prime"])
    return {
        "D": doc["D"],
        "A": tuple(tuple(r) for r in doc["A"]),
        "theta_prime": (int(m.group(1)), int(m.group(3)), int(m.group(2))),
        "preperiod": tuple(doc["cf"]["preperiod"]),
        "period": tuple(doc["cf"]["period"]),
        "T": tuple(tuple(r) for r in doc["T"]),
        "zeta_num": tuple(Fraction(c) for c in doc["zeta"]["num"]),
        "zeta_den": tuple(Fraction(c) for c in doc["zeta"]["den"]),
        "K0": (doc["K0"]["rank"], tuple(doc["K0"]["torsion"])),
    }


def periodic_plain(rep, n_warnings: int) -> dict:
    return {
        "count_distinct": rep.count_distinct,
        "count_with_multiplicity": rep.count_with_multiplicity,
        "infinity_fixed": rep.infinity_fixed,
        "points": tuple(rep.finite_points),
        "warnings": n_warnings,
    }


def periodic_plain_json(doc: dict, n_warnings: int) -> dict:
    return {
        "count_distinct": doc["count_distinct"],
        "count_with_multiplicity": doc["count_with_multiplicity"],
        "infinity_fixed": doc["infinity_fixed"],
        "points": tuple(complex(re_, im) for re_, im in doc["finite_points"]),
        "warnings": n_warnings,
    }


def se_plain(res):
    c = res.certificate
    return (res.status, None if c is None else (c.R, c.S, c.k), res.witness)


def se_plain_json(doc: dict):
    c = doc.get("certificate")
    cert = None
    if c is not None:
        cert = (tuple(map(tuple, c["R"])), tuple(map(tuple, c["S"])), c["k"])
    return (doc["status"], cert, doc.get("witness"))


def sim_plain(res):
    return (res.status, None if res.T is None else res.T.rows(), res.witness)


# ---------------------------------------------------------------------------
# workloads


class FunctorSweep:
    """pipeline.functor_invariants over square-free D from 10^2 to 10^9.

    Seven tenths of the calls are small D (10^2..10^5), where the fixed cost
    of the chain dominates.  The rest come in narrow bands of the period
    length L of the continued fraction of theta': the period-matrix product
    grows as L^2, so a band fixes each call's cost whatever the seed, and a
    run does not hang on one draw (L = 1.2*10^5 alone takes 6 s).  Band
    inputs are drawn from functor_pool.json (see make_pool.py), because
    finding them takes seconds.
    """

    name = "functor_sweep"
    reports_tail = True
    SMALL = ((2, 24), (3, 24), (4, 8))  # (decade, draws)
    # (L0, lowest and highest decade of D); L lies in [L0, 1.1*L0)
    BANDS = ((400, 5, 7), (1600, 6, 8), (6400, 8, 9), (12800, 8, 9))
    # The top band holds over a tenth of all calls, so op_p90_ms falls
    # inside it; op_p50_ms falls among the small D.
    BAND_DRAWS = (4, 4, 4, 12)
    TINY_SMALL = ((2, 1), (3, 1))
    TINY_BAND_DRAWS = (1, 0, 0, 0)

    def generate(self, rng, tiny=False):
        out = []
        for dec, k in self.TINY_SMALL if tiny else self.SMALL:
            for _ in range(k):
                D = _squarefree_in(rng, dec, dec + 1)
                out.append((D, *_eps(rng, D)))
        with open(os.path.join(HERE, "functor_pool.json")) as fh:
            pool = json.load(fh)
        for (L0, _, _), k in zip(self.BANDS, self.TINY_BAND_DRAWS if tiny else self.BAND_DRAWS):
            out += [(D, a, b) for D, a, b, _ in rng.sample(pool[str(L0)], k)]
        rng.shuffle(out)
        return out

    def prepare(self, raws):
        from lattes_sft import QuadElem, pipeline

        return [
            (lambda D=D, e=QuadElem(a, b, D): pipeline.functor_invariants(D, e))
            for D, a, b in raws
        ]

    def plain(self, raw, out, n_warnings):
        return functor_plain(out)

    def check(self, raw, plain, deferred):
        return oracles.check_functor(raw, plain, deferred)


def theta_period_length(D: int, a: int, b: int, cap: int):
    """Period length of the normalized generator of eps*(Z + Z*sqrt(D))."""
    alpha, beta, gamma = oracles.sublattice_theta(a, b, D)
    P, Q, Dp = beta, alpha, gamma * gamma * D
    if (Dp - P * P) % Q:
        P, Dp, Q = P * Q, Dp * Q * Q, Q * Q
    return oracles.surd_period_length(P, Q, Dp, cap)


class PeriodicCounts:
    """pipeline.comparison_report with n_max = 3 over the CM curves above,
    each in two seeded twists and with a seeded eps.  Every round covers the
    three curve classes, and twists of one class cost the same to within a
    few per cent, so a round's cost does not depend on the seed."""

    name = "periodic_counts"
    # A run holds 6 to 12 calls, too few for a 90th percentile to be a
    # tail: op_p90_ms repeats the median.
    reports_tail = False
    n_max = 3

    def generate(self, rng, tiny=False):
        out = []
        for D, curve in CM_CURVES[:1] if tiny else CM_CURVES:
            for d in TWISTS[:1] if tiny else rng.sample(TWISTS, 2):
                a, b = _eps(rng, D, b_max=2, a_max=3)
                out.append((D, twist(curve, d), a, b, 1 if tiny else self.n_max))
        rng.shuffle(out)
        return out

    def prepare(self, raws):
        from lattes_sft import EllipticCurve, QuadElem, pipeline

        return [
            (
                lambda E=EllipticCurve(*curve, cm_D=D), e=QuadElem(a, b, D), n=n: (
                    pipeline.comparison_report(E, e, n)
                )
            )
            for D, curve, a, b, n in raws
        ]

    def plain(self, raw, rows, n_warnings):
        return tuple(
            (r.n, r.trace_count, r.distinct_count, r.multiplicity_count) for r in rows
        )

    def check(self, raw, plain, deferred):
        D, _, a, b, n = raw
        return oracles.check_comparison((D, a, b), plain, n)


def generic_map(rng, d: int):
    """A rational map of degree d with small integer coefficients, num and
    den coprime, as (num, den) coefficient lists, lowest degree first."""
    while True:
        num = [rng.randint(-3, 3) for _ in range(d)] + [rng.choice((-2, -1, 1, 2))]
        den = [rng.randint(-3, 3) for _ in range(rng.randint(1, d + 1))]
        while den and den[-1] == 0:
            den.pop()
        if den and len(den) - 1 <= d and _coprime(num, den):
            return num, den


def _coprime(f, g) -> bool:
    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]
    while g:
        while f and len(f) >= len(g):
            q = f[-1] / g[-1]
            shift = len(f) - len(g)
            for i, c in enumerate(g):
                f[i + shift] -= q * c
            while f and f[-1] == 0:
                f.pop()
        f, g = g, f
    return len(f) == 1


class PeriodicLocations:
    """dynsys.periodic_points with locations: the doubling maps of the CM
    curves at n = 1..3 and seeded generic maps of degree 2 and 3 at n = 1, 2,
    whose roots keep the general root-finding path measured.

    Each CM class comes in two seeded twists, both located at n = 2 and the
    first also at n = 1 and 3.  That puts the median among the n = 2
    doubling calls and the 90th percentile among the n = 3 ones, whose
    costs depend on the curve class alone.
    """

    name = "periodic_locations"
    reports_tail = False  # 16 to 48 calls a run; op_p90_ms repeats the median
    GENERIC_DEGREES = (2, 3)

    def generate(self, rng, tiny=False):
        out = []
        for _, curve in CM_CURVES[:1] if tiny else CM_CURVES:
            twists = TWISTS[:1] if tiny else rng.sample(TWISTS, 2)
            for k, d in enumerate(twists):
                num, den = (list(map(int, cs)) for cs in oracles.doubling_map_coeffs(*twist(curve, d)))
                for n in ((1,) if tiny else (1, 2, 3) if k == 0 else (2,)):
                    out.append(("doubling", num, den, n))
        for d in self.GENERIC_DEGREES[:1] if tiny else self.GENERIC_DEGREES:
            num, den = generic_map(rng, d)
            for n in (1,) if tiny else (1, 2):
                out.append(("generic", num, den, n))
        rng.shuffle(out)
        return out

    def prepare(self, raws):
        from lattes_sft import Poly, RationalMap, dynsys

        return [
            (lambda f=RationalMap(Poly(num), Poly(den)), n=n: dynsys.periodic_points(f, n))
            for _, num, den, n in raws
        ]

    def plain(self, raw, rep, n_warnings):
        return periodic_plain(rep, n_warnings)

    def check(self, raw, plain, deferred):
        return oracles.check_periodic(raw, plain, deferred)


ELEMENTARY = (((1, 1), (0, 1)), ((1, -1), (0, 1)), ((1, 0), (1, 1)), ((1, 0), (-1, 1)), ((0, 1), (1, 0)))


def _conjugate2(rng, A):
    """B = T^-1 A T for a short product T of elementary matrices, or None
    when B has a negative entry."""
    T = ((1, 0), (0, 1))
    for _ in range(rng.randint(1, 4)):
        T = oracles.mat_mul(T, rng.choice(ELEMENTARY))
    dt = oracles.det2(T)
    Tinv = ((T[1][1] * dt, -T[0][1] * dt), (-T[1][0] * dt, T[0][0] * dt))
    B = oracles.mat_mul(oracles.mat_mul(Tinv, A), T)
    return B if all(v >= 0 for r in B for v in r) else None


def _rand_mat(rng, n: int, hi: int):
    return tuple(tuple(rng.randint(0, hi) for _ in range(n)) for _ in range(n))


def _charpoly(M):
    """(trace, sum of principal 2x2 minors, det) of a 2x2 or 3x3 matrix."""
    n = len(M)
    tr = sum(M[i][i] for i in range(n))
    if n == 2:
        return tr, oracles.det2(M)
    m2 = sum(
        M[i][i] * M[j][j] - M[i][j] * M[j][i] for i in range(n) for j in range(i + 1, n)
    )
    det = (
        M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
        - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
        + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0])
    )
    return tr, m2, det


def _bf2(M) -> tuple[int, int]:
    """Smith diagonal of I - M for a 2x2 M, from the gcd of the entries and
    the determinant."""
    E = ((1 - M[0][0], -M[0][1]), (-M[1][0], 1 - M[1][1]))
    g = 0
    for r in E:
        for v in r:
            g = gcd(g, abs(v))
    return (g, abs(oracles.det2(E)) // g) if g else (0, 0)


def _bf_pairs():
    """2x2 non-negative pairs (entries <= 4) with equal trace and
    determinant but different Bowen-Franks groups."""
    groups = {}
    for e in range(5**4):
        M = ((e % 5, e // 5 % 5), (e // 25 % 5, e // 125))
        groups.setdefault(_charpoly(M), []).append(M)
    pairs = []
    for ms in groups.values():
        for i, A in enumerate(ms):
            for B in ms[i + 1 :]:
                if oracles.det2(A) != 0 and _bf2(A) != _bf2(B):
                    pairs.append((A, B))
    return pairs


DIAGONALS = ((1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1))


class ShiftEquiv:
    """Shift equivalence and GL2(Z) similarity over three kinds of pair:
    2x2 pairs conjugate by GL2(Z) (pipeline.conjugacy_test, default bounds);
    pairs an invariant separates (characteristic polynomial or Bowen-Franks
    group), which run only the pre-filters; and 3x3 pairs conjugate by a
    permutation, diagonal ones included, at entry bound 2
    (sft.shift_equivalent)."""

    name = "shift_equiv"
    reports_tail = True
    PERM_BOUND = 2
    PERM_LAG = 2
    # (gl2 pairs, charpoly-separated 2x2, Bowen-Franks-separated 2x2,
    #  charpoly-separated 3x3, generic permutation pairs, diagonal pairs)
    MIX = (12, 6, 3, 3, 12, 6)
    TINY_MIX = (1, 1, 1, 1, 1, 1)

    def generate(self, rng, tiny=False):
        n_gl2, n_cp2, n_bf2, n_cp3, n_perm, n_diag = self.TINY_MIX if tiny else self.MIX
        out = []
        while n_gl2:
            A = _rand_mat(rng, 2, 4)
            B = _conjugate2(rng, A)
            if B is not None and B != A:
                out.append(("gl2", A, B, True))
                n_gl2 -= 1
        while n_cp2:
            A, B = _rand_mat(rng, 2, 4), _rand_mat(rng, 2, 4)
            if _charpoly(A) != _charpoly(B):
                out.append(("gl2", A, B, False))
                n_cp2 -= 1
        bf = _bf_pairs()
        for _ in range(n_bf2):
            A, B = rng.choice(bf)
            out.append(("gl2", A, B, False))
        while n_cp3:
            A, B = _rand_mat(rng, 3, 2), _rand_mat(rng, 3, 2)
            if _charpoly(A) != _charpoly(B):
                out.append(("se", A, B, False))
                n_cp3 -= 1
        while n_perm:
            A = _rand_mat(rng, 3, self.PERM_BOUND)
            p = rng.sample(range(3), 3)
            B = tuple(tuple(A[p[i]][p[j]] for j in range(3)) for i in range(3))
            if B != A:
                out.append(("se", A, B, True))
                n_perm -= 1
        # A diagonal pair costs 0.1 to 0.3 s, set mostly by the order of
        # A's diagonal, so every round holds each order of {1,1,2} and
        # {1,2,2} once as A; the seed picks B.
        for d in DIAGONALS[:n_diag]:
            others = [e for e in sorted(set(itertools.permutations(d))) if e != d]
            e = rng.choice(others)
            A, B = (tuple(tuple(v[i] * (i == j) for j in range(3)) for i in range(3)) for v in (d, e))
            out.append(("se", A, B, True))
        rng.shuffle(out)
        return out

    def prepare(self, raws):
        from lattes_sft import IntMatrix2, QuadElem, SFTMatrix, pipeline, sft

        # conjugacy_test reads the shift matrix A of two functor outputs;
        # the other fields are those of the worked example.
        base = pipeline.functor_invariants(2, QuadElem(0, 1, 2))
        calls = []
        for kind, A, B, _ in raws:
            if kind == "gl2":
                x = replace(base, A=IntMatrix2.from_rows(A))
                y = replace(base, A=IntMatrix2.from_rows(B))
                calls.append(lambda x=x, y=y: pipeline.conjugacy_test(x, y))
            else:
                x, y = SFTMatrix(A), SFTMatrix(B)
                calls.append(
                    lambda x=x, y=y: sft.shift_equivalent(x, y, self.PERM_BOUND, self.PERM_LAG)
                )
        return calls

    def plain(self, raw, res, n_warnings):
        if raw[0] == "gl2":
            return (se_plain(res.shift_equivalence), sim_plain(res.gl2_similarity))
        return (se_plain(res), None)

    def check(self, raw, plain, deferred):
        kind, A, B, conjugate = raw
        se, sim = plain
        bound = 10 if kind == "gl2" else self.PERM_BOUND
        errs = oracles.check_se(A, B, conjugate, se, bound, deferred)
        if sim is not None:
            errs += oracles.check_similarity(A, B, conjugate, sim, deferred)
        return errs


class CliCorpus:
    """The lattes subcommands as subprocesses with --output json, one after
    another.  Periods stay at n <= 2, so interpreter start-up and import,
    not root location, dominate each call."""

    name = "cli_corpus"
    reports_tail = True
    min_rounds = 2  # a second round checks byte-identical stdout

    def __init__(self):
        self.max_child_rss_kb = 0

    def generate(self, rng, tiny=False):
        out = [("verify", None, ["verify"])]
        for _ in range(1 if tiny else 2):
            D = _squarefree_in(rng, 2, 5)
            a, b = _eps(rng, D)
            out.append(("functor", (D, a, b), ["functor", "--D", str(D), "--eps", _elem_text(a, b, D)]))
        if tiny:
            return out
        M = _rand_mat(rng, rng.choice((2, 3)), 3)
        out.append(("zeta", M, ["zeta", "--matrix", _mat_text(M)]))
        for _ in range(2):
            D = rng.randint(2, 10**4)
            while isqrt(D) ** 2 == D:
                D += 1
            P, Q = rng.randint(-20, 20), rng.choice((-1, 1)) * rng.randint(1, 20)
            out.append(("cfrac", (P, Q, D), ["cfrac", "--surd", f"({P}+sqrt({D}))/{Q}"]))
        A = _rand_mat(rng, 3, 2)
        p = rng.sample(range(3), 3)
        B = tuple(tuple(A[p[i]][p[j]] for j in range(3)) for i in range(3))
        bounds = ["--entry-bound", "2", "--lag-bound", "2"]
        out.append(("shift-equiv", (A, B, True, 2), [*bounds, "shift-equiv", "--A", _mat_text(A), "--B", _mat_text(B)]))
        while True:
            A, B = _rand_mat(rng, 2, 4), _rand_mat(rng, 2, 4)
            if _charpoly(A) != _charpoly(B):
                break
        out.append(("shift-equiv", (A, B, False, 10), ["shift-equiv", "--A", _mat_text(A), "--B", _mat_text(B)]))
        # Every CM class at n = 2 for both periodic and compare: these are the
        # slowest calls, and a fixed share of them keeps op_p90_ms among them.
        for k, (D, curve) in enumerate(CM_CURVES):
            curve = twist(curve, rng.choice(TWISTS))
            curve_text = ",".join(map(str, curve))
            num, den = (list(map(int, cs)) for cs in oracles.doubling_map_coeffs(*curve))
            for n in (1, 2) if k == 0 else (2,):
                out.append(("periodic", ("doubling", num, den, n), ["periodic", f"--curve={curve_text}", "-n", str(n)]))
                a, b = _eps(rng, D, b_max=2, a_max=3)
                argv = ["compare", f"--curve={curve_text}", "--D", str(D), "--eps", _elem_text(a, b, D), "-n", str(n)]
                out.append(("compare", (D, a, b, n), argv))
        gnum, gden = generic_map(rng, rng.choice((2, 3)))
        map_text = f"{_poly_text(gnum)} / {_poly_text(gden)}"
        out.append(("periodic", ("generic", gnum, gden, 1), ["periodic", f"--map={map_text}", "-n", "1"]))
        rng.shuffle(out)
        return out

    def prepare(self, raws):
        env = {k: v for k, v in os.environ.items() if k != "LATTES_PRECISION"}
        return [
            (lambda argv=argv: self._spawn(argv, env))
            for _, _, argv in raws
        ]

    def prepare_in_process(self, raws):
        """The same corpus through cli.main in this process."""
        import contextlib
        import io

        import lattes_sft.cli as cli

        def call(argv):
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = cli.main(["--output", "json", *argv])
            if code != 0:
                raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
            return buf.getvalue().encode(), err.getvalue().encode()

        return [(lambda argv=argv: call(argv)) for _, _, argv in raws]

    def _spawn(self, argv, env):
        p = subprocess.Popen(
            [sys.executable, CLI_ENTRY, "--output", "json", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=ROOT,
            env=env,
        )
        out = p.stdout.read()
        err = p.stderr.read()
        p.stdout.close()
        p.stderr.close()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        if p.returncode != 0:
            raise RuntimeError(f"exit code {p.returncode}: {err.decode().strip()}")
        return out, err

    def plain(self, raw, streams, n_warnings):
        return streams

    def check(self, raw, streams, deferred):
        kind, inp, argv = raw
        stdout, stderr = streams
        if stderr:
            return [f"{' '.join(argv)}: stderr {stderr.decode(errors='replace')[:200]!r}"]
        try:
            doc = json.loads(stdout)
        except ValueError as exc:
            return [f"{argv}: stdout is not one JSON document ({exc})"]
        errs = _check_cli_doc(kind, inp, doc, deferred)
        return [f"{' '.join(argv)}: {e}" for e in errs]


def _check_cli_doc(kind, inp, doc, deferred):
    if kind == "verify":
        if doc["status"] != "ok" or not all(c["ok"] and c["expected"] == c["got"] for c in doc["checks"]):
            return ["verify reports a mismatch"]
        return []
    if kind == "functor":
        return oracles.check_functor(inp, functor_plain_json(doc), deferred)
    if kind == "zeta":
        cp = _charpoly(inp)
        den = [1, -cp[0], cp[1]] if len(inp) == 2 else [1, -cp[0], cp[1], -cp[2]]
        while den[-1] == 0:
            den.pop()
        got = (tuple(Fraction(c) for c in doc["zeta"]["num"]), tuple(Fraction(c) for c in doc["zeta"]["den"]))
        want = ((Fraction(1),), tuple(Fraction(c) for c in den))
        return [] if got == want else [f"zeta {got} != 1/det(I - tA) = {want}"]
    if kind == "cfrac":
        P, Q, D = inp
        want = oracles.surd_cf(P, Q, D)
        got = (tuple(doc["cf"]["preperiod"]), tuple(doc["cf"]["period"]))
        return [] if got == want else [f"cf {got} != {want}"]
    if kind == "shift-equiv":
        A, B, conjugate, bound = inp
        return oracles.check_se(A, B, conjugate, se_plain_json(doc), bound, deferred)
    if kind == "periodic":
        return oracles.check_periodic(inp, periodic_plain_json(doc, 0), deferred)
    if kind == "compare":
        D, a, b, n = inp
        rows = tuple(
            (r["n"], r["trace_count"], r["distinct_count"], r["multiplicity_count"])
            for r in doc["rows"]
        )
        return oracles.check_comparison((D, a, b), rows, n)
    return [f"no check for {kind}"]


WORKLOADS = {
    w.name: w
    for w in (FunctorSweep, PeriodicCounts, PeriodicLocations, ShiftEquiv, CliCorpus)
}
