"""Exact linear algebra cross-checked between its independent routines."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from aacohom import exact_linalg as xl

from oracles import nullspace, solve_particular, spans_equal


def perm_det(matrix):
    """Determinant by the Leibniz permutation expansion (oracle, n <= 5)."""
    n = len(matrix)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i, j in enumerate(perm):
            term *= Fraction(matrix[i][j])
        total += sign * term
    return total


def random_matrix(rng, rows, cols, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_det_bareiss_against_permutation_oracle():
    rng = random.Random(11)
    for size in range(0, 5):
        for _ in range(30):
            m = random_matrix(rng, size, size)
            assert xl.det_bareiss(m) == perm_det(m)


def test_det_sparse_matches_bareiss():
    rng = random.Random(12)
    for size in range(1, 7):
        for _ in range(20):
            m = random_matrix(rng, size, size)
            assert xl.det_sparse(m) == xl.det_bareiss(m)
    # sparse inputs: mostly zeros, permutations (pure sign), singular
    # matrices; each also as {column: value} dict rows
    cases = []
    for size in range(1, 9):
        for _ in range(10):
            m = random_matrix(rng, size, size)
            for row in m:
                for j in range(size):
                    if rng.random() < 0.75:
                        row[j] = 0
            cases.append(m)
        perm = list(range(size))
        rng.shuffle(perm)
        cases.append(
            [[rng.choice((-2, -1, 1, 3)) if j == p else 0 for j in range(size)]
             for p in perm]
        )
        if size > 1:
            m = random_matrix(rng, size, size)
            m[-1] = [a + b for a, b in zip(m[0], m[-2])]
            cases.append(m)
    for m in cases:
        dict_rows = [{j: v for j, v in enumerate(row) if v} for row in m]
        assert xl.det_sparse(m) == xl.det_sparse(dict_rows) == xl.det_bareiss(m)


def test_det_bareiss_refuses_non_integral_entries():
    for m in ([[Fraction(3, 2), 0], [0, 2]], [[Fraction(1, 2)]], [[0.5]]):
        with pytest.raises(ValueError, match="non-integral"):
            xl.det_bareiss(m)
    assert xl.det_bareiss([[Fraction(3), 0], [0, 2]]) == 6


def test_det_sparse_refuses_non_square_input():
    for rows in ([[1, 2]], [[1], [2]], [[1, 0], [0]], [{0: 1}, {2: 1}]):
        with pytest.raises(ValueError, match="not square"):
            xl.det_sparse(rows)
    assert xl.det_sparse([{1: 2}, {0: 3}]) == -6


def test_rank_against_rref():
    rng = random.Random(13)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = random_matrix(rng, rows, cols, -3, 3)
        _, pivots = xl.rref(m)
        assert xl.rank(m) == len(pivots)


def test_rank_accepts_sparse_and_rational_rows():
    rows = [{0: Fraction(1, 2), 3: Fraction(-2, 3)}, {0: 3, 3: -4}, {1: 1}]
    assert xl.rank(rows) == 2  # first two rows are proportional


def fraction_rank(rows, ncols):
    """Oracle: rank by dense Gauss elimination over Fraction."""
    dense = []
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        vec = [Fraction(0)] * ncols
        for j, v in items:
            vec[j] = Fraction(v)
        dense.append(vec)
    rk = 0
    for c in range(ncols):
        pivot = next((i for i in range(rk, len(dense)) if dense[i][c]), None)
        if pivot is None:
            continue
        dense[rk], dense[pivot] = dense[pivot], dense[rk]
        for i in range(rk + 1, len(dense)):
            f = dense[i][c] / dense[rk][c]
            dense[i] = [a - f * b for a, b in zip(dense[i], dense[rk])]
        rk += 1
    return rk


def _mixed_rows(rng, nrows, ncols):
    """Random rows as int dicts, Fraction dicts and dense lists, some of
    them combinations of earlier rows; dicts may hold explicit zeros."""

    def entry():
        v = rng.choice((0, 0, 1, -1, 2, 3))
        if rng.random() < 0.4:
            return Fraction(v, rng.randint(1, 4))
        return v

    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            f = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            vec = [0] * ncols
            for row in (a, b):
                items = row.items() if isinstance(row, dict) else enumerate(row)
                for j, v in items:
                    vec[j] += v * f if row is b else v
        else:
            vec = [entry() for _ in range(ncols)]
        kind = rng.randrange(3)
        if kind == 0:
            rows.append(vec)
        elif kind == 1:
            rows.append({j: v for j, v in enumerate(vec) if v or rng.random() < 0.2})
        else:
            rows.append({j: int(v) for j, v in enumerate(vec)
                         if Fraction(v).denominator == 1 and (v or rng.random() < 0.2)})
    return rows


def test_rank_of_mixed_rows_against_fraction_oracle():
    rng = random.Random(21)
    for _ in range(150):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = _mixed_rows(rng, nrows, ncols)
        assert xl.rank(rows) == fraction_rank(rows, ncols)


def test_as_int_rows_scales_each_row():
    rng = random.Random(22)
    for _ in range(100):
        rows = _mixed_rows(rng, rng.randint(1, 6), rng.randint(1, 6))
        nonzero = []
        for row in rows:
            items = row.items() if isinstance(row, dict) else enumerate(row)
            row = {j: v for j, v in items if v}
            if row:
                nonzero.append(row)
        out = xl._as_int_rows(rows)
        assert len(out) == len(nonzero)
        for row, scaled in zip(nonzero, out):
            assert scaled.keys() == row.keys()
            assert all(type(v) is int for v in scaled.values())
            if all(type(v) is int for v in row.values()):
                assert scaled == row  # all-int rows pass through
            else:  # one nonzero scale for the whole row
                assert len({Fraction(scaled[j]) / row[j] for j in row}) == 1


def test_nullspace_annihilates():
    rng = random.Random(14)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        m = random_matrix(rng, rows, cols, -3, 3)
        basis = nullspace(m, cols)
        assert len(basis) == cols - xl.rank(m)
        for v in basis:
            for row in m:
                assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


def test_solve_particular_roundtrip():
    rng = random.Random(15)
    solved = 0
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, -3, 3)
        x_true = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
        rhs = [sum(a * b for a, b in zip(row, x_true)) for row in m]
        x = solve_particular(m, rhs)
        assert x is not None
        for row, b in zip(m, rhs):
            assert sum(Fraction(a) * v for a, v in zip(row, x)) == b
        solved += 1
    assert solved == 60


def test_solve_particular_detects_inconsistency():
    m = [[1, 1], [1, 1]]
    assert solve_particular(m, [1, 2]) is None


def test_spans_equal():
    a = [[1, 0, 0], [0, 1, 0]]
    b = [[1, 1, 0], [1, -1, 0]]
    c = [[1, 0, 0], [0, 0, 1]]
    assert spans_equal(a, b)
    assert not spans_equal(a, c)
    assert spans_equal([], [])
    assert not spans_equal([], [[1, 2]])


def test_matmul_and_identity():
    a = [[1, 2], [3, 4]]
    assert xl.matmul_int(a, [[1, 0], [0, 1]]) == a
