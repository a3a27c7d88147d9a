"""Symplectic star, the codifferential d^c and the sl(2) operator triple.

The star operator is defined against the standard form by the identity
alpha ^ (star beta) = w^{-1}(alpha, beta) vol, where vol = w^n / n! and
w^{-1} extends the inverse pairing on covectors by the determinant rule.
For each degree the defining identity is a square linear system in the
monomial basis; it is solved once per degree, exactly, and cached.  On top
of star sit d^c = (-1)^{k+1} star d star, Lambda = star L star and
H = [L, Lambda], plus harmonic representatives and the exact subspace
computation behind the d d^c lemma.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import exact_linalg
from .ce_complex import (
    AlgebraSpec,
    Mode,
    cohomology_basis,
    differential,
    is_closed,
)
from .errors import (
    NoHarmonicRepresentativeError,
    NotACocycleError,
    SizeLimitError,
    UnsupportedModeError,
)
from .exterior_algebra import Form, Monomial, all_monomials, wedge, wedge_monomials
from .lefschetz import omega_power, standard_omega

DDC_MAX_N = 4


def _pair_partner(i: int, two_n: int) -> int:
    """The unique index paired with i by the standard form."""
    n = two_n // 2
    if i == 1:
        return two_n
    if i == two_n:
        return 1
    return i + n - 1 if i <= n else i - n + 1


def omega_inverse_covectors(a: int, b: int, two_n: int) -> int:
    """w^{-1}(e^a, e^b) for the standard form; values in {-1, 0, 1}.

    The sign is pinned so that star(1) = vol; each pair (low, high) gives
    w^{-1}(e^low, e^high) = -1 and +1 the other way around.
    """
    if b != _pair_partner(a, two_n):
        return 0
    return -1 if a < b else 1


def omega_inverse(a: Monomial, b: Monomial) -> int:
    """Determinant extension of w^{-1} to equal-degree monomials."""
    if a.degree != b.degree:
        return 0
    ai = a.indices
    bi = b.indices
    matrix = [
        [omega_inverse_covectors(x, y, a.two_n) for y in bi] for x in ai
    ]
    return exact_linalg.det_bareiss(matrix)


@lru_cache(maxsize=None)
def _volume_data(two_n: int):
    """(top monomial, coefficient of vol in the monomial basis)."""
    n = two_n // 2
    spec = AlgebraSpec.generic(max(n, 2))
    if spec.two_n != two_n:
        raise ValueError(f"odd ambient dimension {two_n}")
    vol = omega_power(spec, n) / math.factorial(n)
    (mono, coeff), = vol.terms.items()
    return mono, coeff


@lru_cache(maxsize=None)
def _star_columns(two_n: int, degree: int):
    """Matrix of star on degree-``degree`` monomials, stored column-wise.

    Solves the linear system T x = G where T is the top-pairing matrix
    between degrees k and 2n-k and G is the scaled w^{-1} Gram matrix.
    Columns come out with a single +-1 entry each.
    """
    monos_k = all_monomials(two_n, degree)
    monos_c = all_monomials(two_n, two_n - degree)
    _, vol_sign = _volume_data(two_n)
    size = len(monos_k)
    aug = []
    for a in monos_k:
        t_row = []
        for c in monos_c:
            sign, _ = wedge_monomials(a, c)
            t_row.append(Fraction(sign))
        g_row = [vol_sign * Fraction(omega_inverse(a, b)) for b in monos_k]
        aug.append(t_row + g_row)
    rows, pivots = exact_linalg.rref(aug)
    if pivots != list(range(size)):
        raise RuntimeError("top pairing matrix is singular")  # cannot happen
    columns = []
    for j in range(size):
        col = {}
        for i in range(size):
            v = rows[i][size + j]
            if v:
                if v.denominator != 1:
                    raise RuntimeError("star matrix entry is not an integer")
                col[monos_c[i]] = v.numerator
        columns.append(col)
    return {m: col for m, col in zip(monos_k, columns)}


def star(spec: AlgebraSpec, f: Form) -> Form:
    """Symplectic star of a form (applied degreewise); an exact involution."""
    out = Form.zero(spec.two_n)
    for degree in f.degrees():
        columns = _star_columns(spec.two_n, degree)
        terms = {}
        for mono, coeff in f.homogeneous_part(degree).terms.items():
            for target, v in columns[mono].items():
                terms[target] = terms.get(target, Fraction(0)) + coeff * v
        out = out + Form(terms, spec.two_n)
    return out


def _require_numeric(spec):
    if spec.mode is Mode.GENERIC:
        raise UnsupportedModeError(
            "this operator needs numeric weights (ones or explicit mode)"
        )


def dc(spec: AlgebraSpec, f: Form) -> Form:
    """Symplectic codifferential, degree -1: (-1)^{k+1} star d star on each part."""
    _require_numeric(spec)
    out = Form.zero(spec.two_n)
    for degree in f.degrees():
        part = f.homogeneous_part(degree)
        sign = 1 if degree % 2 else -1  # (-1)^(k+1)
        out = out + sign * star(spec, differential(spec, star(spec, part)))
    return out


def lefschetz_l(spec: AlgebraSpec, f: Form) -> Form:
    """L(f) = w ^ f."""
    return wedge(standard_omega(spec), f)


def lambda_and_h(spec: AlgebraSpec, f: Form):
    """(Lambda f, H f) with Lambda = star L star and H = [L, Lambda]."""
    lam = star(spec, lefschetz_l(spec, star(spec, f)))
    h = lefschetz_l(spec, lam) - star(
        spec, lefschetz_l(spec, star(spec, lefschetz_l(spec, f)))
    )
    return lam, h


def dc_as_commutator(spec: AlgebraSpec, f: Form) -> Form:
    """[d, Lambda] f = d(Lambda f) - Lambda(d f); equal to d^c."""
    _require_numeric(spec)
    lam_f, _ = lambda_and_h(spec, f)
    lam_df, _ = lambda_and_h(spec, differential(spec, f))
    return differential(spec, lam_f) - lam_df


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense exact matrix of an operator between two monomial degrees."""

    source_degree: int
    target_degree: int
    entries: tuple

    def __eq__(self, other):
        return (
            isinstance(other, OperatorMatrix)
            and self.source_degree == other.source_degree
            and self.target_degree == other.target_degree
            and self.entries == other.entries
        )


def operator_matrix(spec, op, source_degree, target_degree) -> OperatorMatrix:
    """Assemble the matrix of ``op`` column by column in the monomial bases."""
    sources = all_monomials(spec.two_n, source_degree)
    targets = all_monomials(spec.two_n, target_degree)
    index = {m: i for i, m in enumerate(targets)}
    entries = [[Fraction(0)] * len(sources) for _ in targets]
    for j, m in enumerate(sources):
        image = op(Form.from_monomial(m))
        for mono, coeff in image.terms.items():
            if mono.degree != target_degree:
                raise ValueError(
                    f"operator leaves degree {target_degree}: produced {mono}"
                )
            entries[index[mono]][j] = coeff
    return OperatorMatrix(
        source_degree, target_degree, tuple(tuple(r) for r in entries)
    )


def _vector(f: Form, monos) -> list:
    return [f.terms.get(m, Fraction(0)) for m in monos]


def harmonic_representative(spec: AlgebraSpec, class_rep: Form) -> Form:
    """A form r = class_rep + d(x) with d r = 0 and d^c r = 0.

    Found by an exact linear solve for x; any solution is accepted.  For
    these algebras a solution exists whenever the hard-Lefschetz condition
    holds, so failure raises.
    """
    _require_numeric(spec)
    if not is_closed(spec, class_rep):
        raise NotACocycleError("harmonic representatives need a closed input")
    if dc(spec, class_rep).is_zero:
        return class_rep
    if not class_rep.is_homogeneous():
        raise ValueError("class representative must be homogeneous")
    (degree,) = class_rep.degrees()
    lower_monos = all_monomials(spec.two_n, degree - 1)
    ddc_op = operator_matrix(
        spec,
        lambda g: dc(spec, differential(spec, g)),
        degree - 1,
        degree - 1,
    )
    rhs = _vector(-dc(spec, class_rep), lower_monos)
    x = exact_linalg.solve_particular([list(r) for r in ddc_op.entries], rhs)
    if x is None:
        raise NoHarmonicRepresentativeError(
            f"no harmonic representative in degree {degree}"
        )
    correction = Form(
        {m: v for m, v in zip(lower_monos, x) if v}, spec.two_n
    )
    result = class_rep + differential(spec, correction)
    if not (is_closed(spec, result) and dc(spec, result).is_zero):
        raise NoHarmonicRepresentativeError("solver returned a non-harmonic form")
    return result


def ddc_lemma_check(spec: AlgebraSpec, degree: int) -> bool:
    """Exact test of Ker d^c  n  Im d = Im d d^c inside degree ``degree``."""
    _require_numeric(spec)
    if spec.n > DDC_MAX_N:
        raise SizeLimitError(f"the subspace computation is limited to n <= {DDC_MAX_N}")
    if not 0 <= degree <= spec.two_n:
        raise ValueError(f"degree {degree} outside [0, {spec.two_n}]")
    monos = all_monomials(spec.two_n, degree)

    # generators of Im d in this degree
    d_generators = []
    if degree >= 1:
        for m in all_monomials(spec.two_n, degree - 1):
            image = differential(spec, Form.from_monomial(m))
            if not image.is_zero:
                d_generators.append(_vector(image, monos))

    # generators of Im d d^c in this degree
    ddc_generators = []
    for m in monos:
        image = differential(spec, dc(spec, Form.from_monomial(m)))
        if not image.is_zero:
            ddc_generators.append(_vector(image, monos))

    if not d_generators:
        return not ddc_generators  # both sides are the zero subspace

    # intersect Im d with Ker d^c: v = G^T a with Dc v = 0
    dc_matrix = operator_matrix(
        spec, lambda g: dc(spec, g), degree, degree - 1
    ) if degree >= 1 else None
    if dc_matrix is None or not dc_matrix.entries:
        intersection = d_generators
    else:
        composed = exact_linalg.matmul_int(
            [list(r) for r in dc_matrix.entries],
            [list(col) for col in zip(*d_generators)],
        )
        alphas = exact_linalg.nullspace(composed, ncols=len(d_generators))
        intersection = []
        for alpha in alphas:
            v = [Fraction(0)] * len(monos)
            for a, gen in zip(alpha, d_generators):
                if a:
                    for i, g in enumerate(gen):
                        v[i] += a * g
            intersection.append(v)

    return exact_linalg.spans_equal(intersection, ddc_generators)


def operator_suite_failures(spec: AlgebraSpec) -> list:
    """Ordered (k, reason) failures of the operator suite; empty when it passes.

    For each degree k: every monomial f must satisfy star star f = f,
    (d^c)^2 f = 0, d d^c f = -d^c d f and d^c f = [d, Lambda] f; the dd^c
    lemma must hold in degree k; and every basis class of H^k must have a
    harmonic representative.
    """
    failures = []
    for k in range(spec.two_n + 1):
        for mono in all_monomials(spec.two_n, k):
            f = Form.from_monomial(mono)
            if star(spec, star(spec, f)) != f:
                failures.append((k, "star not involutive"))
            dc_f = dc(spec, f)
            if not dc(spec, dc_f).is_zero:
                failures.append((k, "dc^2 != 0"))
            if differential(spec, dc_f) != -dc(spec, differential(spec, f)):
                failures.append((k, "d dc != -dc d"))
            if dc_f != dc_as_commutator(spec, f):
                failures.append((k, "dc != [d, Lambda]"))
        if not ddc_lemma_check(spec, k):
            failures.append((k, "dd^c lemma fails"))
        for vec in cohomology_basis(spec, k).forms():
            rep = harmonic_representative(spec, vec)
            if not (is_closed(spec, rep) and dc(spec, rep).is_zero):
                failures.append((k, "non-harmonic representative"))
    return failures
