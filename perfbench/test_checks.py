"""Tests of the benchmark's checks: each checker accepts the program's real
output and rejects a deliberately wrong one; every workload completes a
tiny run with and without tracing.

    python3 -m pytest perfbench/test_checks.py
"""

import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from lattes_sft import (  # noqa: E402
    EllipticCurve,
    Poly,
    QuadElem,
    RationalMap,
    SFTMatrix,
    comparison_report,
    functor_invariants,
    periodic_points,
    shift_equivalent,
)


def _replace(d: dict, **kw) -> dict:
    return {**d, **kw}


@pytest.fixture(scope="module")
def functor_case():
    D, a, b = 7386, 155, 2
    return (D, a, b), workloads.functor_plain(functor_invariants(D, QuadElem(a, b, D)))


def test_functor_accepts_real_output(functor_case):
    inp, out = functor_case
    deferred = []
    assert oracles.check_functor(inp, out, deferred) == []
    assert oracles.run_deferred(deferred) == []


@pytest.mark.parametrize("where", ["preperiod", "period"])
def test_functor_rejects_perturbed_partial_quotient(functor_case, where):
    inp, out = functor_case
    seq = list(out[where])
    seq[-1] += 1
    assert oracles.check_functor(inp, _replace(out, **{where: tuple(seq)}), []) != []


def test_functor_rejects_wrong_T_A_zeta_theta(functor_case):
    inp, out = functor_case
    (t00, t01), row = out["T"]
    (_, one), (nN, tr) = out["A"]
    P, Q, D = out["theta_prime"]
    for bad in (
        {"T": ((t00 + 1, t01), row)},
        {"A": ((0, one), (nN + 1, tr))},
        {"zeta_den": out["zeta_den"][:2]},
        {"theta_prime": (P + Q, Q, D)},
    ):
        assert oracles.check_functor(inp, _replace(out, **bad), []) != []


def test_functor_deferred_rejects_wrong_k0(functor_case):
    inp, out = functor_case
    deferred = []
    rank, torsion = out["K0"]
    oracles.check_functor(inp, _replace(out, K0=(rank + 1, torsion)), deferred)
    assert oracles.run_deferred(deferred) != []


def test_comparison_rejects_off_by_one_counts():
    D, a, b = 2, 1, 1
    E = EllipticCurve(4, 2, 0, cm_D=D)
    rows = tuple(
        (r.n, r.trace_count, r.distinct_count, r.multiplicity_count)
        for r in comparison_report(E, QuadElem(a, b, D), 2)
    )
    assert oracles.check_comparison((D, a, b), rows, 2) == []
    for col in (1, 2, 3):
        bad = list(rows)
        bad[1] = tuple(v + (i == col) for i, v in enumerate(bad[1]))
        assert oracles.check_comparison((D, a, b), tuple(bad), 2) != []


@pytest.fixture(scope="module")
def periodic_case():
    num, den = (list(map(int, cs)) for cs in oracles.doubling_map_coeffs(4, 2, 0))
    rep = periodic_points(RationalMap(Poly(num), Poly(den)), 2)
    return ("doubling", num, den, 2), workloads.periodic_plain(rep, 0)


def test_periodic_accepts_real_output(periodic_case):
    inp, out = periodic_case
    assert oracles.check_periodic(inp, out, []) == []


def test_periodic_rejects_root_moved_by_1e6(periodic_case):
    inp, out = periodic_case
    pts = list(out["points"])
    pts[3] += 1e-6
    assert oracles.check_periodic(inp, _replace(out, points=tuple(pts)), []) != []


def test_periodic_rejects_off_by_one_count_and_warnings(periodic_case):
    inp, out = periodic_case
    for bad in (
        {"count_distinct": out["count_distinct"] + 1},
        {"points": out["points"][1:]},
        {"points": out["points"] + out["points"][:1]},
        {"warnings": 1},
    ):
        assert oracles.check_periodic(inp, _replace(out, **bad), []) != []


def test_generic_map_count_is_checked_with_sympy():
    num, den = workloads.generic_map(random.Random(3), 3)
    out = workloads.periodic_plain(periodic_points(RationalMap(Poly(num), Poly(den)), 2), 0)
    inp = ("generic", num, den, 2)
    deferred = []
    assert oracles.check_periodic(inp, out, deferred) == []
    assert oracles.run_deferred(deferred) == []
    for bad in ({"count_distinct": out["count_distinct"] + 1}, {"points": (out["points"][0] + 1e-6, *out["points"][1:])}):
        deferred = []
        oracles.check_periodic(inp, _replace(out, **bad), deferred)
        assert oracles.run_deferred(deferred) != []


def test_parabolic_cycle_is_accepted():
    # (2 - x - x^3)/(x^3 + 3x) swaps i and -i with multiplier 1: a double
    # root of phi^2(z) - z that the program locates correctly.
    num, den = [2, -1, 0, -1], [0, 3, 0, 1]
    out = workloads.periodic_plain(periodic_points(RationalMap(Poly(num), Poly(den)), 2), 0)
    deferred = []
    assert oracles.check_periodic(("generic", num, den, 2), out, deferred) == []
    assert oracles.run_deferred(deferred) == []


def test_certificate_rejects_corrupted_entry():
    A = ((1, 1, 0), (0, 1, 1), (1, 0, 1))
    B = ((1, 1, 0), (0, 1, 1), (1, 0, 1))[::-1]
    B = tuple(tuple(r[::-1]) for r in B)  # A with rows and columns reversed
    res = shift_equivalent(SFTMatrix(A), SFTMatrix(B), 2, 2)
    se = workloads.se_plain(res)
    assert se[0] == "equivalent"
    assert oracles.check_se(A, B, True, se, 2, []) == []
    R, S, k = se[1]
    for i in range(3):
        for j in range(3):
            badR = tuple(tuple(v + (r == i and c == j) for c, v in enumerate(row)) for r, row in enumerate(R))
            assert oracles.check_se(A, B, True, (se[0], (badR, S, k), None), 2, []) != []
    assert oracles.check_se(A, B, True, ("not_equivalent", None, "x"), 2, []) != []


def test_witness_and_similarity_checks():
    A, B = ((1, 2), (3, 4)), ((2, 1), (1, 1))
    deferred = []
    assert oracles.check_se(A, B, False, ("not_equivalent", None, "characteristic polynomials differ"), 10, deferred) == []
    assert oracles.run_deferred(deferred) == []
    deferred = []
    oracles.check_se(A, B, False, ("not_equivalent", None, "Bowen-Franks groups differ"), 10, deferred)
    assert oracles.run_deferred(deferred) != []
    C = ((0, 2), (1, 0))
    D = ((0, 1), (2, 0))
    assert oracles.check_similarity(C, D, True, ("similar", ((0, 1), (1, 0)), None), []) == []
    assert oracles.check_similarity(C, D, True, ("similar", ((1, 0), (0, 1)), None), []) != []
    assert oracles.check_similarity(C, D, True, ("not_similar", None, "x"), []) != []


def _run(*args):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=os.path.dirname(HERE),
        timeout=300,
    )
    assert out.returncode == 0, out.stderr.decode()
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["functor_sweep", "periodic_counts", "periodic_locations", "shift_equiv", "cli_corpus"])
def test_smoke_tiny(workload, trace):
    res = _run("--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", trace, "--tiny")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert all(isinstance(m["value"], float) for m in res["metrics"].values())
