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

from . import exact_linalg
from .ce_complex import (
    AlgebraSpec,
    Mode,
    _kneser_blocks,
    cohomology_basis,
    delta_form,
    differential,
    gamma_form,
    lefschetz_target_basis,
    weight_is_zero,
)
from .errors import (
    InvalidSymplecticFormError,
    InvariantViolationError,
    NotACocycleError,
    StructureViolationError,
    UnsupportedModeError,
)
from .exterior_algebra import Form, wedge
from .kneser import KneserGraph, adjacency


def standard_omega(spec: AlgebraSpec) -> Form:
    """The distinguished symplectic form delta + gamma_2 + ... + gamma_n."""
    form = delta_form(spec)
    for i in range(2, spec.n + 1):
        form = form + gamma_form(spec, i)
    return form


def omega_power(spec: AlgebraSpec, k: int) -> Form:
    """Exact expansion of w^k; for k = n this is n! times the volume form."""
    if not 0 <= k <= spec.n:
        raise ValueError(f"power {k} outside [0, {spec.n}]")
    omega = standard_omega(spec)
    power = Form.one(spec.two_n)
    for _ in range(k):
        power = wedge(power, omega)
    return power


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
        closed = differential(spec, form).is_zero
        if not closed:
            raise InvalidSymplecticFormError("the form is not closed")
        power = Form.one(spec.two_n)
        for _ in range(spec.n):
            power = wedge(power, form)
        nondegenerate = not power.is_zero
        if not nondegenerate:
            raise InvalidSymplecticFormError("w^n = 0: the form is degenerate")
        return cls(form, closed, nondegenerate)


def project_to_cohomology(spec: AlgebraSpec, f: Form) -> Form:
    """Drop the exact monomials of a closed form.

    A monomial containing 2n with nonzero reduced weight is exact; what is
    left is supported exactly on the cohomology-basis monomials.
    """
    if not differential(spec, f).is_zero:
        raise NotACocycleError("cannot project a non-closed form")
    return Form(
        {m: c for m, c in f.terms.items() if weight_is_zero(spec, m)}, f.two_n
    )


@dataclass
class LefschetzMatrix:
    """Integer matrix of L_m in the pinned bases (rows: H^{2n-m}, cols: H^m)."""

    n: int
    m: int
    entries: tuple
    row_basis: object
    col_basis: object
    structure: object = None

    @property
    def size(self) -> int:
        return len(self.entries)

    def determinant(self) -> int:
        det = exact_linalg.det_sparse(self.entries)
        if det.denominator != 1:
            raise InvariantViolationError("integer matrix with fractional det")
        return det.numerator

    def rows_as_lists(self) -> list:
        return [list(row) for row in self.entries]


def _operator_columns(spec, m, omega_form):
    """Columns of (1/(n-m)!) [w^{n-m} ^ .] on H^m, as sparse {row: value} maps.

    Each image is projected to the cohomology monomials and read off the
    target basis by a monomial lookup; every basis vector is +-1 times its
    monomial, so a coordinate is the coefficient times that sign.
    """
    if not 0 <= m <= spec.n:
        raise ValueError(f"m must lie in [0, {spec.n}], got {m}")
    source = cohomology_basis(spec, m)
    target = lefschetz_target_basis(spec, m)
    power = Form.one(spec.two_n) / math.factorial(spec.n - m)
    for _ in range(spec.n - m):
        power = wedge(power, omega_form)
    rows = {
        mono: (i, sign)
        for i, (mono, sign) in enumerate(zip(target.elements, target.signs))
    }
    columns = []
    for vec in source.forms():
        image = project_to_cohomology(spec, wedge(power, vec))
        column = {}
        for mono, c in image.terms.items():
            if mono not in rows:
                raise InvariantViolationError(
                    "projected image has a monomial outside the cohomology basis"
                )
            i, sign = rows[mono]
            column[i] = c * sign
        columns.append(column)
    return source, target, columns


def lefschetz_matrix(spec: AlgebraSpec, m: int) -> LefschetzMatrix:
    """The matrix of L_m for the standard form; entries must come out in {0,1}."""
    if spec.mode not in (Mode.GENERIC, Mode.ONES):
        raise UnsupportedModeError(
            "Lefschetz matrices are defined for the generic and ones modes"
        )
    source, target, columns = _operator_columns(spec, m, standard_omega(spec))
    if len(source) != len(target):
        raise InvariantViolationError(
            f"H^{m} and H^{spec.two_n - m} have different dimensions"
        )
    rows = [[0] * len(source) for _ in range(len(target))]
    for j, column in enumerate(columns):
        for i, v in column.items():
            if v != 1:
                raise InvariantViolationError(
                    f"Lefschetz entry {v} outside {{0,1}}: sign-convention bug"
                )
            rows[i][j] = 1
    for i, row in enumerate(rows):
        rows[i] = tuple(row)  # row by row: never two dense copies at once
    return LefschetzMatrix(spec.n, m, tuple(rows), target, source)


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
    """Verify the block decomposition of ``block_layout`` entry by entry."""
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

    expected = [[0] * size for _ in range(size)]
    for b in report.blocks:
        if b.kind == "identity":
            content = [[1]]
        else:
            content = adjacency(KneserGraph(*b.params))
        for i, row in enumerate(content):
            expected[b.offset + i][b.offset:b.offset + b.size] = row
    for i in range(size):
        for j in range(size):
            if matrix.entries[i][j] != expected[i][j]:
                raise StructureViolationError(
                    i, j, expected[i][j], matrix.entries[i][j]
                )

    matrix.structure = report
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

    With no user form the standard w is used and the matrices are the 0/1
    Lefschetz matrices; a user-supplied form is validated and its operator
    matrices are computed in the same pinned bases (entries may then be any
    rationals, e.g. scaled by powers of the scaling factor).
    """
    if spec.mode not in (Mode.GENERIC, Mode.ONES):
        raise UnsupportedModeError(
            "hard-Lefschetz verdicts need the generic or ones mode"
        )
    rows_out = []
    if user_form is None:
        description = "standard"
        for m in range(spec.n + 1):
            mat = lefschetz_matrix(spec, m)
            rows_out.append(
                OperatorSummary(m, mat.size, Fraction(mat.determinant()))
            )
    else:
        if not isinstance(user_form, SymplecticForm):
            user_form = SymplecticForm.validated(spec, user_form)
        description = "user"
        for m in range(spec.n + 1):
            _, _, columns = _operator_columns(spec, m, user_form.form)
            # det A^T = det A, so the columns serve as the rows
            det = exact_linalg.det_sparse(columns)
            rows_out.append(OperatorSummary(m, len(columns), det))
    verdict = all(op.determinant != 0 for op in rows_out)
    return HardLefschetzReport(spec, description, tuple(rows_out), verdict)
