"""Lefschetz operators on cohomology and their Kneser-graph structure.

The standard symplectic form is w = e^1^e^{2n} + sum_i e^i^e^{s(i)}, i.e.
delta plus the sum of the gamma_i.  The operator L_m: H^m -> H^{2n-m} is
(1/(n-m)!) w^{n-m} ^ (.), written in the pinned ordered bases from
ce_complex.  In the generic-weight case the even matrices are adjacency
matrices of Kneser graphs and the odd ones split into two such diagonal
blocks; in the all-ones case the matrices decompose blockwise over the
theta-pairs.  All entries are exact integers, read off bit-mask products of
the power's terms with the basis monomials.  The divided powers w^k / k! are
one int mask chain per form (``_mask_power_chain``), cached on the form and
shared by ``lefschetz_matrix``, ``hard_lefschetz_report`` and
``SymplecticForm.validated``; for the standard form every coefficient is
+-1, so no Fraction is built.

For the standard form the hard-Lefschetz verdict follows the paper's proof:
``check_structure`` verifies, entry by entry, that L_m is the direct sum of
its ``blocks``, laid out by the walk that pinned its bases, and det L_m is
then the product of the closed-form Kneser determinants of its blocks
(``StructureReport.determinant``), so no elimination runs.  A user-supplied
form has no such structure; its determinants come from sparse elimination
(``exact_linalg.det_sparse``).
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import exact_linalg
from .ce_complex import (
    AlgebraSpec,
    Mode,
    _pinned_bases,
    betti_closed_form,
    cohomology_basis,
    delta_form,
    gamma_form,
    is_closed,
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
from .exterior_algebra import Form, Monomial, below_parity
from .kneser import KneserGraph, determinant, neighbours


# Size limits, checked from closed forms before any basis is built (2 CPUs,
# Python 3.11.7).  MAX_DIMENSION bounds dim H^m of one L_m: ones n = 10
# (31752) runs `--hl` in 2.3 to 2.9 s and 53 MB, building the columns and
# checking the blocks; ones n = 11 (127008) took 8.4 to 11.5 s and 146 MB
# with the limits lifted.  MAX_BLOCK_VERTICES bounds the largest Kneser block,
# K(n - m % 2, m // 2), whose neighbour lists check_structure compares with
# the columns: generic n = 12 (K(12,6), 924 vertices) runs `--hl` in 0.9 s
# and 23 MB and `--m --emit-matrix --check-kneser` in under 0.4 s for m = 11
# and 12, and n = 13 (K(13,6), 1716) takes 1.6 s and 29 MB with the limits
# lifted.  The user-form route of hard_lefschetz_report, reachable only from
# the library, still eliminates: a generic n = 11 form takes 7.6 s and an
# n = 12 one 42 s and 34 MB.  DENSE_MAX_DIMENSION bounds the CLI matrix
# payload, which prints every cell: ones n = 8 (2450) prints its 66 MB of
# JSON in 0.6 s with a 150 MB peak, or its text in 0.3 s and 55 MB; ones
# n = 9 (9800) would print about 1 GB.
MAX_DIMENSION = 31752
MAX_BLOCK_VERTICES = 924
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


@lru_cache(maxsize=32)
def _mask_power_chain(form: Form, top: int) -> tuple:
    """[{mask: coeff} of form^k / k! for k = 0..top] (cached per form).

    Each power is the one before times each (mask, coeff) term T of the
    form: P ^ T vanishes when the masks meet, and its sign is a bit count of
    P against ``below_parity`` of T.  Each sum is divided by k exactly, so a
    coefficient stays an int when it is integral; a Fraction appears only
    for a form with non-integral coefficients.  The key is the form itself,
    so two forms on one spec never share a chain.
    """
    two_n = form.two_n
    terms = [
        (t.mask, below_parity(t.mask, two_n), _as_int(c))
        for t, c in form.terms.items()
    ]
    chain = [{0: 1}]
    for k in range(1, top + 1):
        sums = {}
        for pm, pc in chain[-1].items():
            for tm, below, tc in terms:
                if pm & tm:
                    continue
                v = pc * tc
                if (pm & below).bit_count() & 1:
                    v = -v
                sums[pm | tm] = sums.get(pm | tm, 0) + v
        chain.append({mask: _divide(v, k) for mask, v in sums.items() if v})
    return tuple(chain)


def _as_int(c):
    """An integral Fraction as an int; anything else unchanged."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _divide(v, k: int):
    """v / k exactly: an int when the quotient is integral."""
    if type(v) is int and not v % k:
        return v // k
    return _as_int(Fraction(v) / k)


def omega_power(spec: AlgebraSpec, k: int) -> Form:
    """Exact expansion of w^k; for k = n this is n! times the volume form."""
    if not 0 <= k <= spec.n:
        raise ValueError(f"power {k} outside [0, {spec.n}]")
    power = _mask_power_chain(standard_omega(spec), spec.n)[k]
    scale = math.factorial(k)
    terms = {Monomial(mask, spec.two_n): c * scale for mask, c in power.items()}
    return Form(terms, spec.two_n)


@dataclass(frozen=True)
class SymplecticForm:
    """A validated symplectic form: closed and with w^n != 0 exactly."""

    form: Form

    @classmethod
    def standard(cls, spec: AlgebraSpec) -> "SymplecticForm":
        return cls.validated(spec, standard_omega(spec))

    @classmethod
    def validated(cls, spec: AlgebraSpec, form: Form) -> "SymplecticForm":
        if form.degrees() not in ({2}, set()):
            raise InvalidSymplecticFormError("a symplectic form must be a 2-form")
        if not is_closed(spec, form):
            raise InvalidSymplecticFormError("the form is not closed")
        if not _mask_power_chain(form, spec.n)[-1]:
            raise InvalidSymplecticFormError("w^n = 0: the form is degenerate")
        return cls(form)


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
    """L_m as sparse {row: 1} columns in the pinned bases (rows: H^{2n-m})
    and the ``blocks`` of its predicted layout."""

    n: int
    m: int
    columns: tuple
    row_basis: object
    col_basis: object
    blocks: tuple

    @property
    def size(self) -> int:
        return len(self.columns)

    def rows_as_lists(self) -> list:
        """The dense 0/1 rows, for tests and the golden-matrix criterion."""
        rows = [[0] * self.size for _ in range(self.size)]
        for j, column in enumerate(self.columns):
            for i in column:
                rows[i][j] = 1
        return rows


def _operator_columns(spec, m, omega_form, labels=False):
    """Columns of (1/(n-m)!) [w^{n-m} ^ .] on H^m, as sparse {row: value} maps.

    The divided power is read off the cached ``_mask_power_chain`` of
    ``omega_form``; the bases carry ``labels`` only if asked for.  Returns
    (source basis, target basis, columns, walk): both bases and the blocks
    come from one ``_pinned_bases`` walk (explicit mode has no walk).  d is
    injective on monomials, so each product P ^ J of a (closed) power term
    P with a source basis monomial J is a target basis monomial (one per
    row: P -> P u J is injective) or an exact one (2n, nonzero weight):
    dropped.  Terms are (mask, coefficient) pairs, the coefficient an int
    when integral: P ^ J vanishes when the masks meet, and its sign is a bit
    count of P against ``below_parity`` of J.
    """
    terms = _mask_power_chain(omega_form, spec.n)[spec.n - m].items()
    two_n = spec.two_n
    if spec.mode is Mode.EXPLICIT:  # plain weight-zero monomials, no walk
        source = cohomology_basis(spec, m, labels)
        target, walk = cohomology_basis(spec, two_n - m, labels), None
    else:
        (source, target), walk = _pinned_bases(spec, m, labels, (False, True))
    rows = {
        mono.mask: (i, sign)
        for i, (mono, sign) in enumerate(zip(target.elements, target.signs))
    }
    columns = []
    for mono, sign in zip(source.elements, source.signs):
        mask = mono.mask
        below = below_parity(mask, two_n)
        column = {}
        for pm, c in terms:
            if pm & mask:
                continue
            hit = rows.get(pm | mask)
            if hit is None:
                product = Monomial(pm | mask, two_n)
                if not product.contains(two_n) or weight_is_zero(spec, product):
                    raise InvariantViolationError(
                        f"{product} is outside the cohomology basis "
                        "and not exact"
                    )
                continue
            i, row_sign = hit
            if (pm & below).bit_count() & 1:
                row_sign = -row_sign
            column[i] = c if sign == row_sign else -c
        columns.append(column)
    return source, target, columns, walk


def lefschetz_matrix(
    spec: AlgebraSpec, m: int, labels: bool = False
) -> LefschetzMatrix:
    """The matrix of L_m for the standard form; entries must come out in {0,1}.

    w^{n-m} / (n-m)! is read off the cached mask chain of the standard form;
    the bases carry ``labels`` only if asked for.
    """
    require_size(spec, m)
    source, target, columns, walk = _operator_columns(
        spec, m, standard_omega(spec), labels
    )
    for column in columns:
        for v in column.values():
            if v != 1:
                raise InvariantViolationError(
                    f"Lefschetz entry {v} outside {{0,1}}: sign-convention bug"
                )
    blocks = _layout(spec, walk)
    return LefschetzMatrix(spec.n, m, tuple(columns), target, source, blocks)


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
    """The verified block decomposition of L_m, made by ``check_structure``."""

    case: str
    m: int
    blocks: tuple

    @property
    def total_size(self) -> int:
        return sum(b.size for b in self.blocks)

    def determinant(self) -> int:
        """det L_m: the product of the Kneser determinants, 1 per identity block."""
        det = 1
        counts = Counter(b.params for b in self.blocks if b.kind == "kneser")
        for params, count in counts.items():
            det *= determinant(KneserGraph(*params)) ** count
        return det

    def summary(self) -> str:
        parts = []
        for b in self.blocks:
            if b.kind == "kneser":
                parts.append("A(K(%d,%d))%s" % (b.params[0], b.params[1],
                                                f" {b.tag}" if b.tag else ""))
            else:
                parts.append("I1%s" % (f" {b.tag}" if b.tag else ""))
        return " + ".join(parts)


def _layout(spec: AlgebraSpec, walk) -> tuple:
    """The predicted blocks of L_m from its walk, in the order of the bases.

    Generic mode: a single Kneser block A(K(n, k)) for m = 2k, or two
    diagonal copies of A(K(n-1, k)) for m = 2k+1.  Ones mode: a direct sum
    over the theta-pairs (p, R, S) of Kneser blocks A(K(n-2p, k-p)), with
    1x1 identity blocks where k = p.  The k = 0 blocks are identities, not
    edgeless-graph adjacencies.
    """
    ones = spec.mode is Mode.ONES
    blocks, offset = [], 0
    for half, p, r, s, ground, free in walk:
        tag = [f"p={p} R={r} S={s}" if p else "p=0"] if ones else []
        tag += [f"{half} half"] if half else []
        kind, params = "identity", ()
        if free:
            kind, params = "kneser", (len(ground), free)
        size = math.comb(len(ground), free)
        blocks.append(Block(offset, size, kind, params, ", ".join(tag)))
        offset += size
    return tuple(blocks)


def check_structure(spec: AlgebraSpec, matrix: LefschetzMatrix) -> StructureReport:
    """Verify that ``matrix.blocks`` tile the matrix and match its columns."""
    case = {Mode.GENERIC: "I", Mode.ONES: "II"}.get(spec.mode)
    if case is None:
        raise UnsupportedModeError("structure checks need generic or ones mode")
    total = sum(b.size for b in matrix.blocks)
    if total != matrix.size:
        raise StructureViolationError(
            0, 0, f"total block size {total}", matrix.size
        )
    patterns = {}  # (kind, params) -> the rows of each column, in the block
    mismatches = []  # (row, col, expected, got)
    end = 0
    for b in matrix.blocks:
        key = b.kind, b.params
        if key not in patterns:
            # symmetric: the neighbours of j are the rows of column j
            patterns[key] = (neighbours(KneserGraph(*b.params))
                             if b.kind == "kneser" else [[0]])
        if (b.offset, b.size) != (end, len(patterns[key])):
            raise StructureViolationError(
                end, end, f"a block of size {len(patterns[key])}",
                f"size {b.size} at offset {b.offset}",
            )
        end += b.size
        for j, rows in enumerate(patterns[key], b.offset):
            want = dict.fromkeys([b.offset + i for i in rows], 1)
            got = matrix.columns[j]
            if got == want:
                continue
            for i in want.keys() | got.keys():
                if want.get(i, 0) != got.get(i, 0):
                    mismatches.append((i, j, want.get(i, 0), got.get(i, 0)))
    if mismatches:
        raise StructureViolationError(*min(mismatches))  # first in row-major order
    return StructureReport(case, matrix.m, matrix.blocks)


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
    operators: tuple
    hard_lefschetz: bool


def hard_lefschetz_report(
    spec: AlgebraSpec, user_form: SymplecticForm = None
) -> HardLefschetzReport:
    """Exact determinants of every L_m; the verdict is their joint nonvanishing.

    The divided powers w^k / k! come from the one cached
    ``_mask_power_chain`` of the form.  With no user form the standard w is
    used: every entry must be 1, as in
    ``lefschetz_matrix``, and det L_m is read off the block structure that
    ``check_structure`` has verified, as a product of closed-form Kneser
    determinants.  A user-supplied form is validated, its operator matrices
    are computed in the same pinned bases (entries may then be any
    rationals, e.g. scaled by powers of the scaling factor) and their
    determinants come from sparse elimination.
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
            report = check_structure(spec, lefschetz_matrix(spec, m))
            size, det = report.total_size, report.determinant()
        else:
            columns = _operator_columns(spec, m, user_form.form)[2]
            # det A^T = det A, so the columns serve as the rows
            size, det = len(columns), exact_linalg.det_sparse(columns)
        rows_out.append(OperatorSummary(m, size, Fraction(det)))
    verdict = all(op.determinant != 0 for op in rows_out)
    return HardLefschetzReport(spec, tuple(rows_out), verdict)
