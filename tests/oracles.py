"""Second routes the tests compare the package against.

The standard form's pairing 1 <-> 2n, i <-> s(i) = i + n - 1, written out
once here (``literal_partner``, ``literal_omega``) so that no oracle reads
the package's ``partners``; the weight vector of a monomial and the
monomials of one degree as
``Monomial`` objects; permutation signs by bubble sort (``sort_sign``); the
wedge product as a loop over pairs of ``Monomial`` objects, each signed by
counting inversions (``monomial_wedge``), where the package ``wedge`` is the
mask kernel ``wedge_terms``; d expanded by the Leibniz rule over covector
factors (``leibniz_differential``), where the package d is the mask kernel
``d_terms``; Lambda, H and [d, Lambda] on Forms, with L from
``monomial_wedge``; the whole verified L_m of any size (``whole_matrix``);
L_m of any closed 2-form by wedging basis Forms with its power and dropping
the exact terms by ``weight`` (``operator_columns_by_projection``), where
the package kernel multiplies monomial masks by the standard w only;
operators as dense matrices; null spaces and solves by dense elimination
(``rref``); the inverse pairing w^{-1} on monomials as a Bareiss
determinant; the Kneser annihilator prod_j (A - lambda_j I) as a dense
matrix (``dense_annihilator``), where the package packs each row into one
int; the least |sum eps_j t_{m_j}| over nonzero eps in {-1,0,1}^k as a
float subset-sum gap (``subset_sum_gap``), where the package certifies the
t-values by their quadratic fields; and ``replace``, a copy of a package
record with some fields changed.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from aacohom.ce_complex import (
    AlgebraSpec,
    Mode,
    cohomology_basis,
    differential,
    lefschetz_target_basis,
)
from aacohom.exact_linalg import det_bareiss, rank, rref
from aacohom.errors import DimensionMismatchError
from aacohom.exterior_algebra import Form, Monomial, degree_masks
from aacohom.lattice import DEFAULT_DPS, t_value
from aacohom.lefschetz import (
    LefschetzMatrix,
    _layout,
    _operator_columns,
    check_structure,
    standard_omega,
)
from aacohom.symplectic_hodge import _require_numeric, star


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


def replace(record, **changes):
    """A copy of a package record with ``changes`` to its fields, built
    through its constructor, so that the record checks its input again."""
    fields = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**fields, **changes})


# ---------------------------------------------------------------------------
# the standard form's pairing
# ---------------------------------------------------------------------------


def literal_partner(i: int, two_n: int) -> int:
    """The index the standard form pairs with i: 1 <-> 2n and
    i <-> s(i) = i + n - 1 for 2 <= i <= n."""
    n = two_n // 2
    if i == 1:
        return two_n
    if i == two_n:
        return 1
    return i + n - 1 if i <= n else i - n + 1


def literal_omega(two_n: int) -> Form:
    """w = e^1 ^ e^{2n} + sum_i e^i ^ e^{s(i)}, one term per pair of
    ``literal_partner``."""
    return Form({
        1 << (i - 1) | 1 << (literal_partner(i, two_n) - 1): 1
        for i in range(1, two_n // 2 + 1)
    }, two_n)


# ---------------------------------------------------------------------------
# monomials and weights
# ---------------------------------------------------------------------------


def all_monomials(two_n: int, degree: int):
    """Degree-homogeneous monomials in lexicographic index order."""
    return [Monomial(mask, two_n) for mask in degree_masks(two_n, degree)]


@dataclass(frozen=True)
class WeightVector:
    """Integer coefficients of b_2..b_n in the closedness scalar of a monomial."""

    coeffs: tuple

    def is_zero_for(self, spec: AlgebraSpec) -> bool:
        if spec.mode is Mode.GENERIC:
            return not any(self.coeffs)
        if spec.mode is Mode.ONES:
            return sum(self.coeffs) == 0
        return self.value(spec) == 0

    def value(self, spec: AlgebraSpec) -> Fraction:
        """The scalar <w, b> for a numeric mode; every coefficient is 0 or +-1."""
        total = Fraction(0)
        for c, v in zip(self.coeffs, spec.numeric_b()):
            if c > 0:
                total += v
            elif c:
                total -= v
        return total


def weight(spec: AlgebraSpec, m: Monomial) -> WeightVector:
    """Weight of a monomial: +1 for each j present, -1 for each s(j) present.

    Indices 1 and 2n contribute nothing.
    """
    if m.two_n != spec.two_n:
        raise ValueError(f"monomial ambient {m.two_n} does not match 2n={spec.two_n}")
    coeffs = []
    for j in range(2, spec.n + 1):
        c = 0
        if m.contains(j):
            c += 1
        if m.contains(literal_partner(j, spec.two_n)):
            c -= 1
        coeffs.append(c)
    return WeightVector(tuple(coeffs))


# ---------------------------------------------------------------------------
# the wedge product and d on Monomials
# ---------------------------------------------------------------------------


def sort_sign(sequence):
    """Brute-force permutation sign oracle: bubble sort counting swaps."""
    seq = list(sequence)
    swaps = 0
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps += 1
    if len(set(seq)) != len(seq):
        return 0, seq
    return (-1) ** swaps, seq


def wedge_monomials(a: Monomial, b: Monomial):
    """Signed product of two monomials.

    Returns (sign, merged monomial), or (0, None) on an index collision.
    The sign is (-1)^(number of inversions of the concatenated index list).
    """
    if a.two_n != b.two_n:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {a.two_n} vs {b.two_n}"
        )
    if a.mask & b.mask:
        return 0, None
    inversions = 0
    rest = a.mask
    while rest:
        low = rest & -rest
        inversions += (b.mask & (low - 1)).bit_count()
        rest ^= low
    sign = -1 if inversions & 1 else 1
    return sign, Monomial(a.mask | b.mask, a.two_n)


def monomial_wedge(a: Form, b: Form) -> Form:
    """a ^ b summed over pairs of ``Monomial`` terms (``wedge_monomials``)."""
    terms = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            sign, merged = wedge_monomials(
                Monomial(ma, a.two_n), Monomial(mb, b.two_n)
            )
            if sign:
                terms[merged.mask] = terms.get(merged.mask, 0) + sign * ca * cb
    return Form(terms, a.two_n)


def leibniz_differential(spec, m):
    """Independent oracle: expand d over the covector factors one at a time.

    Uses only the rules de^1 = de^{2n} = 0, de^i = b_i e^i ^ e^{2n},
    de^{s(i)} = -b_i e^{s(i)} ^ e^{2n}, plus the permutation-sign oracle to
    normalize each resulting index sequence.
    """
    b = dict(zip(range(2, spec.n + 1), spec.numeric_b()))
    indices = m.indices
    total = Form.zero(spec.two_n)
    for pos, idx in enumerate(indices):
        if idx == 1 or idx == spec.two_n:
            continue
        if 2 <= idx <= spec.n:
            scale = b[idx]
        else:
            scale = -b[idx - spec.n + 1]
        # replace e^idx by e^idx ^ e^{2n} in place, then normalize
        seq = list(indices[: pos + 1]) + [spec.two_n] + list(indices[pos + 1 :])
        sign, sorted_ix = sort_sign(seq)
        if sign == 0:
            continue
        leibniz_sign = (-1) ** pos
        total = total + Form.from_monomial(
            Monomial.from_indices(sorted_ix, spec.two_n), leibniz_sign * sign * scale
        )
    return total


# ---------------------------------------------------------------------------
# the whole L_m
# ---------------------------------------------------------------------------


def whole_matrix(spec: AlgebraSpec, m: int) -> LefschetzMatrix:
    """The verified whole L_m, as ``lefschetz_matrix`` builds it but past
    DENSE_MAX_DIMENSION: ``_operator_columns``, once its standard w is
    ``literal_omega``, then ``_layout`` and ``check_structure``."""
    assert standard_omega(spec).terms == literal_omega(spec.two_n).terms
    source, target, columns, walk = _operator_columns(spec, m)
    matrix = LefschetzMatrix(
        spec.n, m, tuple(columns), target, source, _layout(spec, walk)
    )
    check_structure(matrix)
    return matrix


def operator_columns_by_projection(spec, m, omega_form):
    """The columns of (1/(n-m)!) [omega_form^{n-m} ^ .] on H^m for any closed
    2-form: wedge each basis form with the power (``monomial_wedge``), drop
    the monomials of nonzero ``weight``, which hold e^{2n} and are exact in
    a closed image, and read the rest off the target basis."""
    source = cohomology_basis(spec, m)
    target = lefschetz_target_basis(spec, m)
    power = Form.one(spec.two_n) / math.factorial(spec.n - m)
    for _ in range(spec.n - m):
        power = monomial_wedge(power, omega_form)
    rows = {
        mono.mask: (i, sign)
        for i, (mono, sign) in enumerate(zip(target.elements, target.signs))
    }
    columns = []
    for vec in source.forms():
        column = {}
        for mask, c in monomial_wedge(power, vec).terms.items():
            if weight(spec, Monomial(mask, spec.two_n)).is_zero_for(spec):
                i, sign = rows[mask]
                column[i] = c * sign
            else:
                assert mask >> (spec.two_n - 1), "the image is not closed"
        columns.append(column)
    return columns


# ---------------------------------------------------------------------------
# the sl(2) triple and [d, Lambda] on Forms
# ---------------------------------------------------------------------------


def lefschetz_l(spec: AlgebraSpec, f: Form) -> Form:
    """L(f) = w ^ f."""
    return monomial_wedge(literal_omega(spec.two_n), f)


def _lambda(spec: AlgebraSpec, f: Form) -> Form:
    """Lambda f = star L star f."""
    return star(spec, lefschetz_l(spec, star(spec, f)))


def lambda_and_h(spec: AlgebraSpec, f: Form):
    """(Lambda f, H f) with Lambda = star L star and H = [L, Lambda]."""
    lam = _lambda(spec, f)
    h = lefschetz_l(spec, lam) - _lambda(spec, lefschetz_l(spec, f))
    return lam, h


def dc_as_commutator(spec: AlgebraSpec, f: Form) -> Form:
    """[d, Lambda] f = d(Lambda f) - Lambda(d f); equal to d^c."""
    _require_numeric(spec)
    return differential(spec, _lambda(spec, f)) - _lambda(
        spec, differential(spec, f)
    )


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense exact matrix of an operator between two monomial degrees."""

    source_degree: int
    target_degree: int
    entries: tuple


def operator_matrix(spec, op, source_degree, target_degree) -> OperatorMatrix:
    """Assemble the matrix of ``op`` column by column in the monomial bases."""
    sources = all_monomials(spec.two_n, source_degree)
    targets = all_monomials(spec.two_n, target_degree)
    index = {m: i for i, m in enumerate(targets)}
    entries = [[Fraction(0)] * len(sources) for _ in targets]
    for j, m in enumerate(sources):
        image = op(Form.from_monomial(m))
        for mask, coeff in image.terms.items():
            mono = Monomial(mask, spec.two_n)
            if mono.degree != target_degree:
                raise ValueError(
                    f"operator leaves degree {target_degree}: produced {mono}"
                )
            entries[index[mono]][j] = coeff
    return OperatorMatrix(
        source_degree, target_degree, tuple(tuple(r) for r in entries)
    )


# ---------------------------------------------------------------------------
# dense elimination
# ---------------------------------------------------------------------------


def nullspace(matrix, ncols=None):
    """Basis of the right null space of ``matrix`` (A x = 0), as row vectors."""
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    if not matrix:
        basis = []
        for j in range(ncols):
            v = [Fraction(0)] * ncols
            v[j] = Fraction(1)
            basis.append(v)
        return basis
    rows, pivots = rref(matrix)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(v)
    return basis


def solve_particular(matrix, rhs):
    """One solution x of A x = rhs over Fraction, or None if inconsistent.

    Free variables are set to zero.
    """
    if not matrix:
        return [] if not any(rhs) else None
    ncols = len(matrix[0])
    aug = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(matrix, rhs)]
    rows, pivots = rref(aug)
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        if p == ncols:
            return None  # pivot in the rhs column: inconsistent
        x[p] = rows[r][ncols]
    return x


def spans_equal(vectors_a, vectors_b) -> bool:
    """Exact equality of the spans of two lists of rational row vectors."""
    ra = rank(vectors_a)
    rb = rank(vectors_b)
    if ra != rb:
        return False
    return rank(list(vectors_a) + list(vectors_b)) == ra


# ---------------------------------------------------------------------------
# the inverse pairing by elimination
# ---------------------------------------------------------------------------


def omega_inverse_covectors(a: int, b: int, two_n: int) -> int:
    """w^{-1}(e^a, e^b) for the standard form; values in {-1, 0, 1}.

    The sign is pinned so that star(1) = vol; each pair (low, high) gives
    w^{-1}(e^low, e^high) = -1 and +1 the other way around.
    """
    if b != literal_partner(a, two_n):
        return 0
    return -1 if a < b else 1


def omega_inverse(a: Monomial, b: Monomial) -> int:
    """Determinant extension of w^{-1} to equal-degree monomials."""
    if a.degree != b.degree:
        return 0
    # each row has at most one nonzero entry, in the column of the partner
    column = {y: j for j, y in enumerate(b.indices)}
    matrix = []
    for x in a.indices:
        row = [0] * len(column)
        y = literal_partner(x, a.two_n)
        if y in column:
            row[column[y]] = omega_inverse_covectors(x, y, a.two_n)
        matrix.append(row)
    return det_bareiss(matrix)


# ---------------------------------------------------------------------------
# the Kneser annihilator as a dense matrix
# ---------------------------------------------------------------------------


def dense_annihilator(adjacent, values):
    """prod_j (A - lambda_j I) as a dense list of rows, for A given by its
    neighbour lists.  Each factor acts from the left: row i of
    (A - lambda I) P is the sum of the rows of P at i and its neighbours
    less (lambda + 1) times row i (zipped with row i first, so that an
    isolated vertex keeps its row).  The first factor is written out from
    the lists, a repeated neighbour counted once per copy."""
    values = list(values)
    size = len(adjacent)
    product = [[int(i == j) for j in range(size)] for i in range(size)]
    if values:
        first = values.pop(0)
        for i, columns in enumerate(adjacent):
            product[i][i] = -first
            for j in columns:
                product[i][j] += 1
    for value in values:
        shift = value + 1
        product = [
            [
                sum(cells) - shift * cells[0]
                for cells in zip(row, *[product[j] for j in columns])
            ]
            for row, columns in zip(product, adjacent)
        ]
    return product


# ---------------------------------------------------------------------------
# the t-values' least {-1,0,1} combination, in floats
# ---------------------------------------------------------------------------

# a gap at or below this is read as a relation
NUMERIC_TOLERANCE = 1e-6


def subset_sum_gap(ms) -> tuple:
    """(min |sum eps_j t_{m_j}| over nonzero eps in {-1,0,1}^k, its verdict).

    Each such eps is 1_A - 1_B for subsets A != B, so the minimum is the
    least gap between adjacent sorted subset sums, found at DEFAULT_DPS
    (None for k = 0); the verdict is whether it exceeds NUMERIC_TOLERANCE.
    No m_j is factored.  The tests' oracle for ``hypothesis1_certificate``.
    """
    from mpmath import mp

    with mp.workdps(DEFAULT_DPS):
        sums = [0]
        for t in (t_value(m, DEFAULT_DPS) for m in ms):
            sums += [s + t for s in sums]
        sums.sort()
        gap = min((b - a for a, b in zip(sums, sums[1:])), default=None)
        return gap, gap is not None and gap > NUMERIC_TOLERANCE
