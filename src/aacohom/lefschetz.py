"""Lefschetz operators on cohomology and their Kneser-graph structure.

The standard symplectic form is w = e^1^e^{2n} + sum_i e^i^e^{s(i)}, i.e.
delta plus the sum of the gamma_i.  The operator L_m: H^m -> H^{2n-m} is
(1/(n-m)!) w^{n-m} ^ (.), written in the pinned ordered bases from
ce_complex.  In the generic-weight case the even matrices are adjacency
matrices of Kneser graphs and the odd ones split into two such diagonal
blocks; in the all-ones case the matrices decompose blockwise over the
theta-pairs.  All entries are exact; the hard-Lefschetz verdict is a list
of exact nonzero determinants.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import exact_linalg
from .ce_complex import (
    AlgebraSpec,
    Mode,
    _kneser_blocks,
    betti_closed_form,
    cohomology_basis,
    delta_form,
    gamma_form,
    is_closed,
    lefschetz_target_basis,
    weight_is_zero,
)
from .errors import (
    InvalidSymplecticFormError,
    InvariantViolationError,
    NotACocycleError,
    SizeLimitError,
    StructureViolationError,
    UnsupportedModeError,
)
from .exterior_algebra import Form, wedge, wedge_monomials
from .kneser import KneserGraph, adjacency


# Size limits, checked from closed forms before any basis is built (2 CPUs,
# Python 3.11.7).  MAX_DIMENSION bounds dim H^m of one L_m: ones n = 10
# (31752) runs `--hl` in 11 to 15 s and 70 MB over three runs, about 6 s
# building the columns and 9 s the determinants; ones n = 11 would have
# 127008 and determinants of 20778 digits.  MAX_BLOCK_VERTICES bounds the
# largest Kneser block, K(n - m % 2, m // 2), whose determinant is the main
# cost: the determinants of generic n = 11 (K(11,5), 462 vertices) take
# 5.5 s, those of n = 12 32 s, 15 s of it for K(12,5) (792 vertices), and
# `--hl` at n = 13 had not finished after 60 s.  DENSE_MAX_DIMENSION bounds
# the dense rows of the CLI matrix payload: ones n = 8 (2450) prints its
# 66 MB of JSON in 1.6 to 1.8 s with a 196 MB peak (2 CPUs); at ones n = 9
# (9800) `rows_as_lists` alone would hold 96 M cells.
MAX_DIMENSION = 31752
MAX_BLOCK_VERTICES = 462
DENSE_MAX_DIMENSION = 2450


def require_size(spec: AlgebraSpec, m: int) -> int:
    """dim H^m, after checking L_m against MAX_DIMENSION and MAX_BLOCK_VERTICES.

    Only Betti numbers and binomials are computed; SizeLimitError is raised
    before any basis is built.
    """
    if spec.mode not in (Mode.GENERIC, Mode.ONES):
        raise UnsupportedModeError(
            "Lefschetz matrices are defined for the generic and ones modes"
        )
    if not 0 <= m <= spec.n:
        raise ValueError(f"m must lie in [0, {spec.n}], got {m}")
    size = betti_closed_form(spec, m)
    if size > MAX_DIMENSION:
        raise SizeLimitError(
            f"L_{m} at n = {spec.n} has dimension {size}; "
            f"the limit is {MAX_DIMENSION}"
        )
    block = math.comb(spec.n - m % 2, m // 2)
    if block > MAX_BLOCK_VERTICES:
        raise SizeLimitError(
            f"L_{m} at n = {spec.n} has a Kneser block of {block} vertices; "
            f"the limit is {MAX_BLOCK_VERTICES}"
        )
    return size


@lru_cache(maxsize=None)
def standard_omega(spec: AlgebraSpec) -> Form:
    """The distinguished symplectic form delta + gamma_2 + ... + gamma_n (cached)."""
    form = delta_form(spec)
    for i in range(2, spec.n + 1):
        form = form + gamma_form(spec, i)
    return form


def _power(form: Form, k: int) -> Form:
    """The k-th wedge power of a form (the unit for k = 0)."""
    power = Form.one(form.two_n)
    for _ in range(k):
        power = wedge(power, form)
    return power


def omega_power(spec: AlgebraSpec, k: int) -> Form:
    """Exact expansion of w^k; for k = n this is n! times the volume form."""
    if not 0 <= k <= spec.n:
        raise ValueError(f"power {k} outside [0, {spec.n}]")
    return _power(standard_omega(spec), k)


@dataclass(frozen=True)
class SymplecticForm:
    """A validated symplectic form: closed and with w^n != 0 exactly."""

    form: Form
    closed: bool
    nondegenerate: bool

    @classmethod
    def standard(cls, spec: AlgebraSpec) -> "SymplecticForm":
        return cls.validated(spec, standard_omega(spec))

    @classmethod
    def validated(cls, spec: AlgebraSpec, form: Form) -> "SymplecticForm":
        if form.degrees() not in ({2}, set()):
            raise InvalidSymplecticFormError("a symplectic form must be a 2-form")
        closed = is_closed(spec, form)
        if not closed:
            raise InvalidSymplecticFormError("the form is not closed")
        nondegenerate = not _power(form, spec.n).is_zero
        if not nondegenerate:
            raise InvalidSymplecticFormError("w^n = 0: the form is degenerate")
        return cls(form, closed, nondegenerate)


def project_to_cohomology(spec: AlgebraSpec, f: Form) -> Form:
    """Drop the exact monomials of a closed form.

    A monomial containing 2n with nonzero reduced weight is exact; what is
    left is supported exactly on the cohomology-basis monomials.
    """
    if not is_closed(spec, f):
        raise NotACocycleError("cannot project a non-closed form")
    return Form(
        {m: c for m, c in f.terms.items() if weight_is_zero(spec, m)}, f.two_n
    )


@dataclass(frozen=True)
class LefschetzMatrix:
    """L_m as sparse {row: 1} columns in the pinned bases (rows: H^{2n-m})."""

    n: int
    m: int
    columns: tuple
    row_basis: object
    col_basis: object

    @property
    def size(self) -> int:
        return len(self.columns)

    def determinant(self) -> int:
        # det A^T = det A, so the columns serve as the rows
        det = exact_linalg.det_sparse(self.columns)
        if det.denominator != 1:
            raise InvariantViolationError("integer matrix with fractional det")
        return det.numerator

    def rows_as_lists(self) -> list:
        """The dense 0/1 rows, for output only."""
        rows = [[0] * self.size for _ in range(self.size)]
        for j, column in enumerate(self.columns):
            for i in column:
                rows[i][j] = 1
        return rows


def _operator_columns(spec, m, omega_form):
    """Columns of (1/(n-m)!) [w^{n-m} ^ .] on H^m, as sparse {row: value} maps.

    d is injective on monomials, so each product P ^ J of a (closed) power
    term P with a source basis monomial J is a target basis monomial (one per
    row: P -> P u J is injective) or an exact one (2n, nonzero weight): dropped.
    """
    source = cohomology_basis(spec, m)
    target = lefschetz_target_basis(spec, m)
    power = _power(omega_form, spec.n - m) / math.factorial(spec.n - m)
    rows = {
        mono: (i, sign)
        for i, (mono, sign) in enumerate(zip(target.elements, target.signs))
    }
    columns = []
    for mono, sign in zip(source.elements, source.signs):
        column = {}
        for term, c in power.terms.items():
            product_sign, product = wedge_monomials(term, mono)
            if not product_sign:
                continue
            if product in rows:
                i, row_sign = rows[product]
                column[i] = c * (product_sign * sign * row_sign)
            elif not product.contains(spec.two_n) or weight_is_zero(spec, product):
                raise InvariantViolationError(
                    f"{product} is outside the cohomology basis and not exact"
                )
        columns.append(column)
    return source, target, columns


def lefschetz_matrix(spec: AlgebraSpec, m: int) -> LefschetzMatrix:
    """The matrix of L_m for the standard form; entries must come out in {0,1}."""
    require_size(spec, m)
    source, target, columns = _operator_columns(spec, m, standard_omega(spec))
    if len(source) != len(target):
        raise InvariantViolationError(
            f"H^{m} and H^{spec.two_n - m} have different dimensions"
        )
    for column in columns:
        for v in column.values():
            if v != 1:
                raise InvariantViolationError(
                    f"Lefschetz entry {v} outside {{0,1}}: sign-convention bug"
                )
    return LefschetzMatrix(spec.n, m, tuple(columns), target, source)


# ---------------------------------------------------------------------------
# block-structure verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    offset: int
    size: int
    kind: str  # "kneser" or "identity"
    params: tuple  # (n, k) for kneser blocks, () for identity
    tag: str


@dataclass(frozen=True)
class StructureReport:
    case: str
    m: int
    blocks: tuple
    verified: bool

    @property
    def total_size(self) -> int:
        return sum(b.size for b in self.blocks)

    def summary(self) -> str:
        parts = []
        for b in self.blocks:
            if b.kind == "kneser":
                parts.append("A(K(%d,%d))%s" % (b.params[0], b.params[1],
                                                f" {b.tag}" if b.tag else ""))
            else:
                parts.append("I1%s" % (f" {b.tag}" if b.tag else ""))
        return " + ".join(parts)


def block_layout(spec: AlgebraSpec, m: int) -> tuple:
    """The predicted blocks of L_m, in the order of the pinned bases.

    Generic mode: a single Kneser block A(K(n, k)) for m = 2k, or two
    diagonal copies of A(K(n-1, k)) for m = 2k+1.  Ones mode: a direct sum
    over the theta-pairs (p, R, S) of Kneser blocks A(K(n-2p, k-p)), with
    1x1 identity blocks where k = p.  The k = 0 blocks are identities, not
    edgeless-graph adjacencies.
    """
    ones = spec.mode is Mode.ONES
    blocks = []
    offset = 0
    for half, p, r, s, ground, free in _kneser_blocks(spec, m):
        parts = []
        if ones:
            parts.append(f"p={p} R={r} S={s}" if p else "p=0")
        if half:
            parts.append(f"{half} half")
        if free:
            kind, params = "kneser", (len(ground), free)
        else:
            kind, params = "identity", ()
        size = math.comb(len(ground), free)
        blocks.append(Block(offset, size, kind, params, ", ".join(parts)))
        offset += size
    return tuple(blocks)


def check_structure(spec: AlgebraSpec, matrix: LefschetzMatrix) -> StructureReport:
    """Verify the block decomposition of ``block_layout`` column by column."""
    if spec.mode is Mode.GENERIC:
        case = "I"
    elif spec.mode is Mode.ONES:
        case = "II"
    else:
        raise UnsupportedModeError("structure checks need generic or ones mode")
    report = StructureReport(case, matrix.m, block_layout(spec, matrix.m), True)
    size = matrix.size
    if report.total_size != size:
        raise StructureViolationError(
            0, 0, f"total block size {report.total_size}", size
        )

    mismatches = []  # (row, col, expected, got)
    for b in report.blocks:
        if b.kind == "identity":
            content = [[1]]
        else:
            content = adjacency(KneserGraph(*b.params))
        for j, row in enumerate(content, b.offset):  # symmetric: row j is column j
            want = {b.offset + i: v for i, v in enumerate(row) if v}
            got = matrix.columns[j]
            for i in want.keys() | got.keys():
                if want.get(i, 0) != got.get(i, 0):
                    mismatches.append((i, j, want.get(i, 0), got.get(i, 0)))
    if mismatches:
        raise StructureViolationError(*min(mismatches))  # first in row-major order
    return report


# ---------------------------------------------------------------------------
# hard-Lefschetz verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorSummary:
    m: int
    size: int
    determinant: Fraction


@dataclass(frozen=True)
class HardLefschetzReport:
    spec: AlgebraSpec
    form_description: str
    operators: tuple
    hard_lefschetz: bool


def hard_lefschetz_report(
    spec: AlgebraSpec, user_form: SymplecticForm = None
) -> HardLefschetzReport:
    """Exact determinants of every L_m; the verdict is their joint nonvanishing.

    With no user form the standard w is used and every entry must be 1, as
    in ``lefschetz_matrix``; a user-supplied form is validated and its operator
    matrices are computed in the same pinned bases (entries may then be any
    rationals, e.g. scaled by powers of the scaling factor).
    """
    if spec.mode not in (Mode.GENERIC, Mode.ONES):
        raise UnsupportedModeError(
            "hard-Lefschetz verdicts need the generic or ones mode"
        )
    for m in range(spec.n + 1):
        require_size(spec, m)
    if user_form is not None and not isinstance(user_form, SymplecticForm):
        user_form = SymplecticForm.validated(spec, user_form)
    rows_out = []
    for m in range(spec.n + 1):
        if user_form is None:
            matrix = lefschetz_matrix(spec, m)
            size, det = matrix.size, Fraction(matrix.determinant())
        else:
            _, _, columns = _operator_columns(spec, m, user_form.form)
            # det A^T = det A, so the columns serve as the rows
            size, det = len(columns), exact_linalg.det_sparse(columns)
        rows_out.append(OperatorSummary(m, size, det))
    description = "standard" if user_form is None else "user"
    verdict = all(op.determinant != 0 for op in rows_out)
    return HardLefschetzReport(spec, description, tuple(rows_out), verdict)
