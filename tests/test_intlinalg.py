import itertools
import math
import random
import time

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from lattes_sft import BudgetExceededError, intlinalg
from lattes_sft.intlinalg import (
    add_scalar,
    charpoly,
    column_echelon,
    identity,
    kernel_basis,
    lattice_points_in_box,
    lattice_solutions,
    mat_mul,
    mat_pow,
    poly_mul,
    scaled_inverse,
    smith_normal_form,
    solve_right,
    sylvester_basis,
    sylvester_solutions,
    xgcd,
)
from oracles import (
    column_echelon_bezout, poly_mul_schoolbook, signed_key, smith_normal_form_transforms,
)


def rand_matrix(rng, n, lo=-5, hi=5):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(n))


def test_xgcd():
    rng = random.Random(3)
    for _ in range(200):
        a, b = rng.randint(-40, 40), rng.randint(-40, 40)
        g, x, y = xgcd(a, b)
        assert g >= 0 and a * x + b * y == g
        if a or b:
            assert a % g == 0 and b % g == 0


def test_charpoly_matches_det_and_trace():
    rng = random.Random(5)
    for n in (1, 2, 3, 4):
        for _ in range(20):
            A = rand_matrix(rng, n)
            cs = charpoly(A)
            assert len(cs) == n + 1 and cs[-1] == 1
            assert cs[0] == (-1) ** n * sympy.Matrix(A).det()
            assert cs[-2] == -sum(A[i][i] for i in range(n))
            # Cayley-Hamilton: p(A) = 0
            acc = tuple(tuple(0 for _ in range(n)) for _ in range(n))
            P = identity(n)
            for c in cs:
                acc = tuple(
                    tuple(acc[i][j] + c * P[i][j] for j in range(n)) for i in range(n)
                )
                P = mat_mul(P, A)
            assert all(v == 0 for row in acc for v in row)


def test_charpoly_matches_sympy():
    t = sympy.symbols("t")
    rng = random.Random(59)
    for n in range(1, 9):
        for bound in (5, 10**6):
            A = rand_matrix(rng, n, -bound, bound)
            expected = sympy.Matrix(A).charpoly(t).all_coeffs()[::-1]
            assert charpoly(A) == tuple(int(c) for c in expected)



def test_charpoly_budget(monkeypatch):
    # a zero matrix has size exactly n^4; one nonzero entry puts it over
    assert intlinalg.CHARPOLY_BUDGET == 4 * 10**7
    zero = ((0, 0, 0),) * 3
    one = ((0, 0, 0), (0, 0, 0), (0, 0, 1))
    monkeypatch.setattr(intlinalg, "CHARPOLY_BUDGET", 3**4)
    assert charpoly(zero) == (0, 0, 0, 1)
    with pytest.raises(BudgetExceededError, match="CHARPOLY_BUDGET = 81"):
        charpoly(one)
    monkeypatch.setattr(intlinalg, "CHARPOLY_BUDGET", 3**4 - 1)
    with pytest.raises(BudgetExceededError, match="3 x 3, 0-bit entries"):
        charpoly(zero)


def test_charpoly_refuses_large_inputs_at_once():
    # each would run for more than 15 s: 80 x 80 of 0/1 (n^4 alone is over),
    # 40 x 40 of 1000 bits (81 s), 2 x 2 of 10^7 bits (34 s)
    big = 2**10**7 - 1
    for A in (((1,) * 80,) * 80, ((2**1000 - 1,) * 40,) * 40, ((big, big), (big, big))):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="CHARPOLY_BUDGET = 40000000"):
            charpoly(A)
        assert time.perf_counter() - start < 1

def rand_rect(rng, m, n, bound):
    """An m x n matrix with entries in [-bound, bound]; with two or more
    rows, three in ten are rank-deficient, the last row a combination of
    earlier ones."""
    M = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
    if m > 1 and rng.random() < 0.3:
        x, y = rng.randint(-3, 3), rng.randint(-3, 3)
        M[-1] = [x * a + y * b for a, b in zip(M[0], M[m // 2 - 1])]
    return tuple(map(tuple, M))


def column_operations(rng, cols, steps: int):
    """cols after random unimodular column operations: swaps, negations and
    adding a multiple of one column to another."""
    out = [list(c) for c in cols]
    for _ in range(steps):
        i, j = rng.sample(range(len(out)), 2) if len(out) > 1 else (0, 0)
        op = rng.random()
        if op < 0.2:
            out[i], out[j] = out[j], out[i]
        elif op < 0.3 or i == j:
            out[i] = [-v for v in out[i]]
        else:
            k = rng.randint(-3, 3)
            out[i] = [a + k * b for a, b in zip(out[i], out[j])]
    return tuple(map(tuple, out))


def is_smith_chain(diag) -> bool:
    """Non-negative, each entry dividing the next, zeros last."""
    return all(d >= 0 for d in diag) and all(
        b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:])
    )


def test_smith_normal_form_properties():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            M = rand_matrix(rng, n)
            D, U, V = smith_normal_form_transforms(M)
            assert mat_mul(U, mat_mul(M, V)) == D
            assert abs(sympy.Matrix(U).det()) == 1 and abs(sympy.Matrix(V).det()) == 1
            diag = tuple(D[i][i] for i in range(n))
            assert all(D[i][j] == 0 for i in range(n) for j in range(n) if i != j)
            assert smith_normal_form(M) == diag
            assert is_smith_chain(diag)
            assert abs(sympy.Matrix(M).det()) == math.prod(diag)


def test_smith_normal_form_matches_transform_oracle_on_rectangular():
    rng = random.Random(41)
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = rand_rect(rng, m, n, rng.choice((3, 100)))
        D, _, _ = smith_normal_form_transforms(M)
        assert smith_normal_form(M) == tuple(D[i][i] for i in range(min(m, n)))


def test_smith_normal_form_is_transpose_invariant():
    # coker(M) = coker(M^t): k_invariants reads K0 and Bowen-Franks off one form
    rng = random.Random(43)
    for _ in range(300):
        M = rand_rect(rng, rng.randint(1, 6), rng.randint(1, 6), rng.choice((2, 50)))
        assert smith_normal_form(M) == smith_normal_form(tuple(zip(*M)))


def test_smith_normal_form_matches_sympy():
    # an independent route: sympy's Smith normal form over ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(47)
    cases = [rand_rect(rng, rng.randint(1, 5), rng.randint(1, 5), 6) for _ in range(60)]
    cases += [rand_rect(rng, n, n, 10**6) for n in (2, 3, 5, 8, 10) for _ in range(3)]
    cases += [rand_rect(rng, rng.randint(6, 10), rng.randint(6, 10), 10**6) for _ in range(6)]
    # a known chain hidden by unimodular row and column operations
    for n in (4, 7, 10):
        chain = tuple(2 ** min(i, 3) * 3 ** (i // 4) for i in range(n))
        D = tuple(tuple(chain[i] if i == j else 0 for j in range(n)) for i in range(n))
        M = tuple(zip(*column_operations(rng, tuple(zip(*column_operations(rng, D, 40))), 40)))
        assert smith_normal_form(M) == chain
        cases.append(M)
    for M in cases:
        S = sympy_snf(sympy.Matrix(M), domain=sympy.ZZ)
        want = tuple(abs(int(S[i, i])) for i in range(min(S.shape)))
        got = smith_normal_form(M)
        assert got == want, M
        assert is_smith_chain(got)


def test_scaled_inverse_matches_sympy():
    rng = random.Random(59)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        M = rand_rect(rng, n, n, rng.choice((2, 10, 10**6)))
        det = int(sympy.Matrix(M).det())
        got = scaled_inverse(M)
        if det == 0:
            assert got is None, M
            singular += 1
            continue
        # W = |det| M^-1 = sign(det) adj(M)
        sign = 1 if det > 0 else -1
        adj = sympy.Matrix(M).adjugate()
        assert got == (abs(det), tuple(tuple(sign * int(v) for v in adj.row(i)) for i in range(n))), M
    assert singular >= 40


def test_smith_diagonal_known():
    assert smith_normal_form(((1, -2), (-1, 1))) == (1, 1)
    assert smith_normal_form(((-2,),)) == (2,)
    assert smith_normal_form(((0, 0), (0, 0))) == (0, 0)
    assert smith_normal_form(((2, 0), (0, 4))) == (2, 4)
    assert smith_normal_form(((4, 0), (0, 6))) == (2, 12)
    assert smith_normal_form(((4, 6, 10),)) == (2,)
    assert smith_normal_form(((0,), (3,), (0,))) == (3,)
    assert smith_normal_form(((2, 0, 0), (0, 0, 0))) == (2, 0)


def test_kernel_basis():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.choice((2, 3, 4))
        M = rand_matrix(rng, n, -3, 3)
        basis = kernel_basis(M)
        for v in basis:
            assert all(
                sum(M[i][j] * v[j] for j in range(n)) == 0 for i in range(n)
            )
        # saturation spot-check: a singular matrix has a nonzero kernel vector
        if sympy.Matrix(M).det() == 0:
            assert basis


def test_kernel_basis_is_hermite_form_of_smith_kernel():
    # second route: the columns of V in M V = U^-1 D at the zero diagonal
    # entries span the same lattice, so their echelon form is the same
    rng = random.Random(29)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        M = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m))
        if rng.random() < 0.3:
            M = M + (tuple(a + b for a, b in zip(M[0], M[-1])),)
        D, _, V = smith_normal_form_transforms(M)
        smith = [
            tuple(V[r][i] for r in range(n))
            for i in range(n)
            if i >= len(M) or D[i][i] == 0
        ]
        assert kernel_basis(M) == column_echelon(smith)


def test_column_echelon_and_box_enumeration():
    rng = random.Random(13)
    for _ in range(40):
        N = rng.choice((2, 3, 4))
        d = rng.randint(1, N)
        cols = [tuple(rng.randint(-3, 3) for _ in range(N)) for _ in range(d)]
        ech = column_echelon(cols)
        pivots = [next((r for r in range(N) if c[r] != 0), None) for c in ech]
        assert all(p is not None for p in pivots)
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
        # enumeration agrees with brute force over coefficient combinations
        lo, hi = 0, 3
        pts = set(lattice_points_in_box(ech, N, lo, hi))
        if len(ech) <= 3:
            import itertools

            span = range(-12, 13)
            brute = set()
            for combo in itertools.product(span, repeat=len(ech)):
                v = tuple(
                    sum(c * col[r] for c, col in zip(combo, ech)) for r in range(N)
                )
                if all(lo <= x <= hi for x in v):
                    brute.add(v)
            assert pts == brute


def test_column_echelon_is_the_unique_reduced_hermite_basis():
    # smith_normal_form's loop ends because of this uniqueness
    rng = random.Random(53)
    for _ in range(300):
        N, d = rng.randint(1, 5), rng.randint(1, 5)
        cols = rand_rect(rng, d, N, rng.choice((3, 40)))
        ech = column_echelon(list(cols))
        pivots = [next(r for r in range(N) if c[r]) for c in ech]
        assert pivots == sorted(set(pivots))
        for k, (p, c) in enumerate(zip(pivots, ech)):
            assert c[p] > 0
            assert all(0 <= e[p] < c[p] for e in ech[:k])
        moved = list(column_operations(rng, cols, 30))
        rng.shuffle(moved)
        assert column_echelon(moved) == ech


def test_column_echelon_matches_bezout_oracle():
    # least-pivot Euclid steps and Bezout merges reach the same unique basis
    rng = random.Random(61)
    for _ in range(400):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        cols = rand_rect(rng, m, n, rng.choice((3, 10**6)))
        assert column_echelon(list(cols)) == column_echelon_bezout(list(cols))


PERMUTED_PAIR_8 = (
    "0,0,0,1,0,2,2,1;1,2,0,2,0,2,2,0;1,2,1,2,2,1,2,1;2,1,0,0,1,1,1,1;"
    "1,2,0,2,0,0,0,0;0,1,0,0,2,2,1,2;2,2,0,1,1,2,2,1;2,1,1,1,0,1,2,2",
    "0,0,2,1,0,0,2,1;1,1,2,2,2,2,1,1;2,0,2,1,2,1,2,1;2,0,1,0,1,1,1,1;"
    "1,0,2,2,2,0,2,0;1,0,0,2,2,0,0,0;0,0,1,0,1,2,2,2;2,1,2,1,1,0,1,2",
)


def _conjugated_jordan(rng, blocks):
    """P J P^-1 for the Jordan matrix J of the (eigenvalue, size) blocks and
    a unimodular P from a few elementary row operations."""
    n = sum(size for _, size in blocks)
    J = [[0] * n for _ in range(n)]
    i = 0
    for lam, size in blocks:
        for t in range(i, i + size):
            J[t][t] = lam
            if t > i:
                J[t - 1][t] = 1
        i += size
    P = Pinv = identity(n)
    for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
        a, b = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        E, Einv = [list(r) for r in identity(n)], [list(r) for r in identity(n)]
        E[a][b], Einv[a][b] = c, -c
        P, Pinv = mat_mul(P, E), mat_mul(Einv, Pinv)
    return mat_mul(mat_mul(P, J), Pinv)


def test_sylvester_lattices_of_a_pair_have_equal_dimension():
    # dim{A X = X B} = dim{B X = X A}: both are the sum over the common
    # eigenvalues of min(a, b) over the Jordan block sizes a of A, b of B
    rng = random.Random(61)
    nonzero = nilpotent = 0
    for i in range(150):
        n = rng.randint(1, 4)
        eigen = (0,) if i % 3 == 0 else (0, 1, 2)

        def blocks():
            out, left = [], n
            while left:
                size = rng.randint(1, left)
                out.append((rng.choice(eigen), size))
                left -= size
            return out

        ba, bb = blocks(), blocks()
        A, B = _conjugated_jordan(rng, ba), _conjugated_jordan(rng, bb)
        want = sum(min(a, b) for la, a in ba for lb, b in bb if la == lb)
        assert len(sylvester_basis(A, B)) == len(sylvester_basis(B, A)) == want, (ba, bb)
        nonzero += want > 0
        nilpotent += eigen == (0,)
    for _ in range(50):
        n = rng.randint(1, 4)
        A, B = rand_matrix(rng, n, -2, 2), rand_matrix(rng, n, -2, 2)
        assert len(sylvester_basis(A, B)) == len(sylvester_basis(B, A)), (A, B)
    assert nonzero >= 100 and nilpotent == 50


def test_sylvester_basis_of_dense_8x8_pair_is_fast():
    # B is A conjugated by a permutation; Bezout merges grew the entries of
    # this 64-column system past 200,000 bits and ran for minutes
    A, B = (
        tuple(tuple(map(int, r.split(","))) for r in text.split(";"))
        for text in PERMUTED_PAIR_8
    )
    start = time.perf_counter()
    basis = sylvester_basis(A, B)
    assert time.perf_counter() - start < 2
    assert len(basis) == 8
    for v in basis:
        X = tuple(v[i * 8 : i * 8 + 8] for i in range(8))
        assert mat_mul(A, X) == mat_mul(X, B)


def test_box_enumeration_signed_window():
    rng = random.Random(23)
    import itertools

    for _ in range(25):
        N = rng.choice((3, 4))
        cols = [tuple(rng.randint(-2, 2) for _ in range(N)) for _ in range(2)]
        ech = column_echelon(cols)
        pts = set(lattice_points_in_box(ech, N, -2, 2))
        brute = set()
        for combo in itertools.product(range(-15, 16), repeat=len(ech)):
            v = tuple(
                sum(c * col[r] for c, col in zip(combo, ech)) for r in range(N)
            )
            if all(-2 <= x <= 2 for x in v):
                brute.add(v)
        assert pts == brute


def test_box_enumeration_is_increasing_with_per_coordinate_bounds():
    rng = random.Random(31)
    for _ in range(40):
        N = rng.choice((2, 3, 4))
        cols = [tuple(rng.randint(-3, 3) for _ in range(N)) for _ in range(rng.randint(0, 3))]
        ech = column_echelon(cols)
        lo = [rng.randint(-3, 1) for _ in range(N)]
        hi = [a + rng.randint(0, 4) for a in lo]
        pts = list(lattice_points_in_box(ech, N, lo, hi))
        keys = [signed_key((v,)) for v in pts]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        # on a box with no negative lower bound signed order is increasing
        nonneg = [max(a, 0) for a in lo]
        assert list(lattice_points_in_box(ech, N, nonneg, hi)) == sorted(
            v for v in pts if all(a <= x for a, x in zip(nonneg, v))
        )
        brute = set()
        for combo in itertools.product(range(-12, 13), repeat=len(ech)):
            v = tuple(sum(c * col[r] for c, col in zip(combo, ech)) for r in range(N))
            if all(a <= x <= b for a, x, b in zip(lo, v, hi)):
                brute.add(v)
        assert set(pts) == brute
        # an int bound is the bound of every coordinate
        assert list(lattice_points_in_box(ech, N, lo[0], hi[0])) == list(
            lattice_points_in_box(ech, N, [lo[0]] * N, [hi[0]] * N)
        )


def in_echelon_span(ech, v) -> bool:
    """Whether v is an integer combination of the echelon columns ech: each
    pivot entry fixes its column's coefficient, top down."""
    rest = list(v)
    for col in ech:
        p = next(r for r, x in enumerate(col) if x)
        c, rem = divmod(rest[p], col[p])
        if rem:
            return False
        rest = [a - c * b for a, b in zip(rest, col)]
    return not any(rest)


def test_box_enumeration_in_signed_order(monkeypatch):
    # the order gl2z_similar reads its T in: entry by entry by absolute
    # value, a non-negative entry before the negative one of the same size
    rng = random.Random(43)
    for _ in range(80):
        N = rng.choice((2, 3, 4))
        cols = [tuple(rng.randint(-3, 3) for _ in range(N)) for _ in range(rng.randint(0, 4))]
        ech = column_echelon(cols)
        lo = [rng.randint(-4, 1) for _ in range(N)]
        hi = [a + rng.randint(0, 6) for a in lo]
        pts = list(lattice_points_in_box(ech, N, lo, hi))
        box = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
        assert set(pts) == {v for v in box if in_echelon_span(ech, v)}
        keys = [signed_key((v,)) for v in pts]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        # the budget counts the points read in signed order too
        monkeypatch.setattr(intlinalg, "BOX_POINT_BUDGET", len(pts))
        assert list(lattice_points_in_box(ech, N, lo, hi)) == pts
        if pts:
            monkeypatch.setattr(intlinalg, "BOX_POINT_BUDGET", len(pts) - 1)
            with pytest.raises(BudgetExceededError, match="BOX_POINT_BUDGET"):
                list(lattice_points_in_box(ech, N, lo, hi))
        monkeypatch.undo()


def test_box_point_budget(monkeypatch):
    # the commutant of a 2x2 scalar matrix is every matrix: 3^4 points in [0, 2]
    basis = sylvester_basis(((1, 0), (0, 1)), ((1, 0), (0, 1)))
    assert len(list(lattice_points_in_box(basis, 4, 0, 2))) == 81
    monkeypatch.setattr(intlinalg, "BOX_POINT_BUDGET", 81)
    assert len(sylvester_solutions(((1, 0), (0, 1)), ((1, 0), (0, 1)), 0, 2)) == 81
    monkeypatch.setattr(intlinalg, "BOX_POINT_BUDGET", 80)
    with pytest.raises(BudgetExceededError, match="BOX_POINT_BUDGET = 80"):
        sylvester_solutions(((1, 0), (0, 1)), ((1, 0), (0, 1)), 0, 2)
    # a stream read only up to its first point never reaches the budget
    monkeypatch.setattr(intlinalg, "BOX_POINT_BUDGET", 1)
    assert next(lattice_points_in_box(basis, 4, 0, 2)) == (0, 0, 0, 0)


def test_lattice_solutions_match_filtered_sylvester_solutions():
    rng = random.Random(37)
    for _ in range(60):
        n = rng.choice((2, 3))
        A = rand_matrix(rng, n, 0, 2)
        B = rng.choice((A, rand_matrix(rng, n, 0, 2)))
        box = sylvester_solutions(A, B, 0, 3)
        # a right-hand side with solutions, or an arbitrary one
        R = rand_matrix(rng, n, 0, 2)
        C = mat_mul(R, rng.choice(box)) if rng.random() < 0.7 else rand_matrix(rng, n, 0, 4)
        got = list(lattice_solutions(sylvester_basis(A, B), n, lambda X: mat_mul(R, X), C, 0, 3))
        assert got == [X for X in box if mat_mul(R, X) == C]
    # the zero lattice: X = 0 solves R X = C exactly when C = 0
    empty = sylvester_basis(((1, 0), (0, 1)), ((2, 0), (0, 2)))
    assert empty == []
    zero = ((0, 0), (0, 0))
    R = ((1, 2), (0, 1))
    assert list(lattice_solutions(empty, 2, lambda X: mat_mul(R, X), zero, 0, 3)) == [zero]
    assert list(lattice_solutions(empty, 2, lambda X: mat_mul(R, X), R, 0, 3)) == []


def test_sylvester_solutions_satisfy_constraint():
    rng = random.Random(17)
    for _ in range(30):
        n = 2
        A = rand_matrix(rng, n, 0, 3)
        B = rand_matrix(rng, n, 0, 3)
        sols = sylvester_solutions(A, B, 0, 3)
        for X in sols:
            assert mat_mul(A, X) == mat_mul(X, B)
            assert all(0 <= v <= 3 for row in X for v in row)
        # zero matrix always qualifies
        assert tuple(tuple(0 for _ in range(n)) for _ in range(n)) in sols


def test_sylvester_solutions_complete_for_commutant():
    # commutant of ((0,1),(2,0)) in the box: x*I + y*A with x, y >= 0
    A = ((0, 1), (2, 0))
    sols = set(sylvester_solutions(A, A, 0, 4))
    expected = set()
    for x in range(5):
        for y in range(3):
            M = ((x, y), (2 * y, x))
            if all(0 <= v <= 4 for row in M for v in row):
                expected.add(M)
    assert sols == expected


def test_solve_right():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.choice((1, 2, 3))
        R = rand_matrix(rng, n)
        C = rand_matrix(rng, n)
        X = solve_right(R, C)
        if sympy.Matrix(R).det() == 0:
            assert X is None
        else:
            RX = mat_mul(R, X)
            assert all(
                RX[i][j] == C[i][j] for i in range(n) for j in range(n)
            )


def test_mat_helpers():
    A = ((1, 2), (3, 4))
    assert add_scalar(A, -1) == ((0, 2), (3, 3))
    assert mat_pow(A, 0) == identity(2)
    assert mat_pow(A, 3) == mat_mul(A, mat_mul(A, A))


# Coefficients at the byte boundaries of the packing width, 2^(8j) - 1,
# 2^(8j) and 2^(8j) + 1, signed, next to small and very large ones.
_BYTE_EDGE = st.builds(
    lambda j, d, sign: sign * (2 ** (8 * j) + d),
    st.integers(0, 48),
    st.sampled_from((-1, 0, 1)),
    st.sampled_from((-1, 1)),
)
_COEFF = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**70), 2**70),
    _BYTE_EDGE,
    st.integers(2**300, 2**320).flatmap(lambda v: st.sampled_from((v, -v))),
)
_EDGE = 2**64 - 1


@settings(max_examples=300)
@given(st.lists(_COEFF, max_size=200), st.lists(_COEFF, max_size=200))
@example([], [1, 2])
@example([0, 0, 0], [5, -7])
@example([0], [0])
@example([3, 0, 0, -2, 0, 1], [0, -1, 0, 0, 4])
@example([_EDGE] * 5, [_EDGE] * 5)  # every product coefficient at its bound
@example([-_EDGE] * 200, [_EDGE] * 200)
@example([-(2**64 + 1)] * 3, [2**64 + 1, -(2**64 + 1)] * 4)
@example([2**8 - 1], [-(2**8 - 1)])
def test_poly_mul_matches_schoolbook(a, b):
    assert poly_mul(a, b) == poly_mul_schoolbook(a, b)


_ONE_TERM = st.builds(
    lambda i, c, j: [0] * i + [c] + [0] * j,
    st.integers(0, 30),
    _COEFF.filter(bool),
    st.integers(0, 30),
)


@settings(max_examples=200)
@given(_ONE_TERM, st.lists(_COEFF, max_size=200), st.booleans())
@example([1], [], False)
@example([0, 0, -1], [0, 0, 0], True)
@example([2**64 - 1], [_EDGE] * 5, False)
def test_poly_mul_one_term_operand_is_shift_and_scale(term, other, term_first):
    # a one-term factor (x^i times a nonzero c, padded with zeros) packs
    # nothing, on either side of the product
    def no_pack(v, width):
        raise AssertionError("packed a one-term product")

    a, b = (term, other) if term_first else (other, term)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intlinalg, "_kronecker_pack", no_pack)
        assert poly_mul(a, b) == poly_mul_schoolbook(a, b)


def test_poly_mul_long_factors():
    rng = random.Random(11)
    for la, lb in ((1, 200), (200, 1), (137, 200), (200, 200)):
        a = [rng.randint(-(2**400), 2**400) for _ in range(la)]
        b = [rng.choice((-1, 1)) * (2 ** (8 * rng.randint(0, 50)) - 1) for _ in range(lb)]
        assert poly_mul(a, b) == poly_mul_schoolbook(a, b)
