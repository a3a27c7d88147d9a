"""Exact linear algebra over the rationals.

Three workhorses, all division-safe:

* sparse fraction-free row echelon for ranks of large sparse integer
  matrices (rows are dicts, updates are the two-term integer combination
  pivot*row - entry*pivot_row followed by a gcd reduction);
* sparse Fraction elimination for determinants, and Bareiss elimination
  (``det_bareiss``), which no package route calls: it stays as the tests'
  determinant oracle and a name the benchmark tracer wraps;
* dense Fraction Gauss-Jordan (``rref``), which solves the Kneser
  certificate's Vandermonde system, and ``matmul_int``, on which the test
  oracles build their null spaces and solves.

Matrices are lists of rows; sparse rows are dicts column -> value.
"""

from fractions import Fraction
from itertools import compress
from math import gcd, lcm


def _as_int_rows(rows):
    """Copy rows (sparse dicts or dense lists) into integer sparse dicts.

    A row whose nonzero entries are all ints passes through as they are;
    only a row holding a Fraction is scaled by the lcm of its denominators.
    Scaling rows by nonzero constants does not change the rank.
    """
    out = []
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        row = {j: v for j, v in items if v}
        if all(type(v) is int for v in row.values()):
            if row:
                out.append(row)
            continue
        frac = {j: Fraction(v) for j, v in row.items()}
        scale = lcm(*(v.denominator for v in frac.values()))
        out.append({j: int(v * scale) for j, v in frac.items()})
    return out


def _gcd_reduce(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    return {j: v // g for j, v in row.items()} if g > 1 else row


def rank(rows) -> int:
    """Rank by sparse fraction-free elimination; exact for rational input."""
    pending = _as_int_rows(rows)
    pivots = {}  # column -> reduced row
    rk = 0
    for row in pending:
        row = _gcd_reduce(row)
        while row:
            col = min(row)
            if col not in pivots:
                pivots[col] = row
                rk += 1
                break
            piv = pivots[col]
            a, b = piv[col], row[col]
            new = {}
            for j in set(row) | set(piv):
                v = a * row.get(j, 0) - b * piv.get(j, 0)
                if v:
                    new[j] = v
            row = _gcd_reduce(new)
    return rk


def det_bareiss(matrix) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    Each step drops the pivot row and column, and each row below is
    updated by one list comprehension: (pivot * x - lead * y) // prev,
    exact by Sylvester's identity.  A row with a zero lead only scales.
    A non-integral entry raises ValueError.
    """
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    if m != list(map(list, matrix)):
        raise ValueError("matrix has a non-integral entry")
    sign = 1
    prev = 1
    while len(m) > 1:
        if m[0][0] == 0:
            swap = next((r for r in range(1, len(m)) if m[r][0]), None)
            if swap is None:
                return 0
            m[0], m[swap] = m[swap], m[0]
            sign = -sign
        pivot, top = m[0][0], m[0][1:]
        rest = []
        for row in m[1:]:
            lead = row[0]
            if lead:
                row = [(pivot * x - lead * y) // prev for x, y in zip(row[1:], top)]
            elif pivot == prev:
                row = row[1:]
            else:
                row = [pivot * x // prev for x in row[1:]]
            rest.append(row)
        m = rest
        prev = pivot
    return sign * m[0][0]


def det_sparse(rows) -> Fraction:
    """Determinant via sparse Fraction elimination (pivot product).

    Suited to block-diagonal matrices: a column -> live-rows index finds the
    rows sharing each pivot column, so work stays inside the blocks.  Each
    pivot is the live row with the fewest entries, lowest index first.
    Non-square input raises ValueError.
    """
    n = len(rows)
    live = {}
    holders = [set() for _ in range(n)]  # column -> live rows with an entry
    for i, row in enumerate(rows):
        dense = not isinstance(row, dict)
        # compress skips the zeros of a dense row in C
        cols = compress(range(len(row)), row) if dense else row
        live[i] = {j: Fraction(row[j]) for j in cols if row[j]}
        if dense and len(row) != n or any(not 0 <= j < n for j in live[i]):
            raise ValueError("matrix is not square")
        for j in live[i]:
            holders[j].add(i)
    det = Fraction(1)
    pivot_rows = []
    for col in range(n):
        if not holders[col]:
            return Fraction(0)
        pick = min(holders[col], key=lambda i: (len(live[i]), i))
        pivot_row = live.pop(pick)
        for j in pivot_row:
            holders[j].discard(pick)
        pivot = pivot_row[col]
        det *= pivot
        pivot_rows.append(pick)
        for i in list(holders[col]):
            row = live[i]
            factor = row[col] / pivot
            for j, v in pivot_row.items():
                w = row.get(j, 0) - factor * v
                if w:
                    if j not in row:
                        holders[j].add(i)
                    row[j] = w
                else:  # only an existing entry can cancel
                    del row[j]
                    holders[j].discard(i)
    # parity of col -> pivot row: one sign flip per transposition sorting it
    for i in range(n):
        while pivot_rows[i] != i:
            j = pivot_rows[i]
            pivot_rows[i], pivot_rows[j] = pivot_rows[j], j
            det = -det
    return det


def rref(matrix):
    """Reduced row echelon form over Fraction.

    Returns (rows, pivot_columns); input is not modified.
    """
    rows = [[Fraction(v) for v in row] for row in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def matmul_int(a, b):
    rows, inner = len(a), len(b)
    cols = len(b[0]) if b else 0
    if a and len(a[0]) != inner:
        raise ValueError("inner dimensions differ")
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        arow = a[i]
        orow = out[i]
        for k in range(inner):
            v = arow[k]
            if v:
                brow = b[k]
                for j in range(cols):
                    orow[j] += v * brow[j]
    return out
