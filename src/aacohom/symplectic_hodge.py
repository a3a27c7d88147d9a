"""Symplectic star, the codifferential d^c and the sl(2) operator triple.

The star operator is defined against the standard form by the identity
alpha ^ (star beta) = w^{-1}(alpha, beta) vol, where vol = w^n / n! and
w^{-1} extends the inverse pairing on covectors by the determinant rule.
Each index has one partner under the standard form (``partners``), so
w^{-1} pairs a monomial with a single monomial, the set of its partners, and
star sends each monomial to +- the complement of that set.  On top of star sit
d^c = (-1)^{k+1} star d star, Lambda = star L star and H = [L, Lambda].

The operator suite runs on the {mask: coeff} map that is a form's
``terms``, with int coefficients unless an explicit weight is
non-integral.  Star is one table {mask: (mask', +-1)} per 2n, each entry
derived from the defining identity on first use, with w^{-1} in closed
form; d is ``ce_complex.d_terms`` and L is one
``exterior_algebra.wedge_terms`` with the terms of ``standard_omega``;
d^c, Lambda and [d, Lambda] are composed from these.  The Form-level
``star``, ``dc`` and ``harmonic_representative`` wrap the map they return
in a ``Form``.

Since d is monomial-diagonal, d, d^c and their composites send each
monomial to a single monomial, distinct ones to distinct ones.  The d d^c
lemma is then an equality of monomial sets and a harmonic representative is
a term-by-term preimage lookup, both exact and with no elimination.  The
suite is limited to n <= HODGE_MAX_N.
"""

from fractions import Fraction
from functools import lru_cache

from .ce_complex import (
    AlgebraSpec,
    Mode,
    cohomology_basis,
    d_monomial,
    d_terms,
    is_closed,
    partners,
)
from .errors import (
    InvariantViolationError,
    NoHarmonicRepresentativeError,
    NotACocycleError,
    SizeLimitError,
    UnsupportedModeError,
)
from .exterior_algebra import (
    Form,
    Monomial,
    add_terms,
    below_parity,
    degree_masks,
    wedge_terms,
)
from .lefschetz import _mask_power_chain, standard_omega

# Largest n of the operator suite, checked before any operator is built
# (2 CPUs, Python 3.11.7): `hodge --n 7 --mode ones` takes 0.8-1.1 s and
# 21 MB, far inside the 30 s budget CI gives it.  n = 8 would take 2.5-3.2 s
# and 31 MB (in process, the limit lifted, two runs), 0.5 s of it filling
# the 2^16-entry star table.
HODGE_MAX_N = 7


class _StarTable(dict):
    """Star on the monomials of one ambient dimension: {mask: (mask', +-1)}.

    w^{-1}(e^A, e^J) vanishes unless A = p(J), the set of partners of J, so
    the defining identity has one nonzero equation per monomial:
    star e^J = vol_sign w^{-1}(e^{p(J)}, e^J) sign(e^{p(J)} ^ e^C) e^C with
    C the complement of p(J).  Each entry is derived on first use.

    w^{-1}(e^{p(J)}, e^J) is the determinant of a signed permutation matrix:
    row x of p(J) holds w^{-1}(e^x, e^y) in the column of its partner y, -1
    when x < y and +1 otherwise (which pins star(1) = vol).  So it is the
    product of those entries times the sign of the permutation, counted in
    one pass over J from the top: the partners already seen below x are the
    inversions.  The wedge sign is one bit count against ``below_parity``.
    """

    def __init__(self, two_n: int):
        super().__init__()
        self.two_n = two_n
        spec = AlgebraSpec.generic(two_n // 2)  # vol = w^n / n!, one monomial
        chain = _mask_power_chain(standard_omega(spec), spec.n)
        (self.vol_sign,) = chain[-1].values()

    def __missing__(self, mask: int):
        two_n, partner_of = self.two_n, partners(self.two_n)
        odd = seen = 0  # seen has bit x for each partner x met so far
        for y in reversed(Monomial(mask, two_n).indices):
            x = partner_of[y]
            odd += (seen & ((1 << x) - 1)).bit_count() + (x < y)
            seen |= 1 << x
        partner = seen >> 1  # bit x - 1 for index x, as in a mask
        rest = ((1 << two_n) - 1) ^ partner
        odd += (partner & below_parity(rest, two_n)).bit_count()
        entry = (rest, -self.vol_sign if odd & 1 else self.vol_sign)
        self[mask] = entry
        return entry


@lru_cache(maxsize=None)
def _star_table(two_n: int) -> _StarTable:
    """The one star table of the 2n-dimensional algebra, filled as it is read."""
    return _StarTable(two_n)


# ---------------------------------------------------------------------------
# the kernel: operators on {mask: coeff}
#
# Coefficients are ints unless an explicit weight is non-integral.  star is
# a signed permutation of the monomials and d sends distinct monomials to
# distinct ones, so their images (and d^c's) need no summing; L, Lambda and
# the sums do.
# ---------------------------------------------------------------------------


def _star_terms(two_n: int, terms: dict) -> dict:
    table = _star_table(two_n)
    out = {}
    for mask, c in terms.items():
        target, sign = table[mask]
        out[target] = sign * c
    return out


def _dc_terms(spec: AlgebraSpec, terms: dict) -> dict:
    """d^c = (-1)^{k+1} star d star on each degree-k monomial."""
    table = _star_table(spec.two_n)
    out = {}
    for mask, c in terms.items():
        middle, before = table[mask]
        image = d_monomial(spec, middle)
        if image:
            target, value = image
            result, after = table[target]
            sign = before * after if mask.bit_count() & 1 else -before * after
            out[result] = sign * value * c
    return out


@lru_cache(maxsize=None)
def _omega_terms(two_n: int) -> dict:
    """{mask: coeff} of ``standard_omega``, the same in every mode."""
    return standard_omega(AlgebraSpec.generic(two_n // 2)).terms


def _l_terms(spec: AlgebraSpec, terms: dict) -> dict:
    """L = w ^ ."""
    return wedge_terms(_omega_terms(spec.two_n), terms, spec.two_n)


def _lambda_terms(spec: AlgebraSpec, terms: dict) -> dict:
    """Lambda = star L star."""
    two_n = spec.two_n
    return _star_terms(two_n, _l_terms(spec, _star_terms(two_n, terms)))


# ---------------------------------------------------------------------------
# Form-level operators
# ---------------------------------------------------------------------------


def star(spec: AlgebraSpec, f: Form) -> Form:
    """Symplectic star of a form (applied degreewise); an exact involution."""
    return Form(_star_terms(spec.two_n, f.terms), spec.two_n)


def _require_numeric(spec):
    if spec.mode is Mode.GENERIC:
        raise UnsupportedModeError(
            "this operator needs numeric weights (ones or explicit mode)"
        )


def dc(spec: AlgebraSpec, f: Form) -> Form:
    """Symplectic codifferential, degree -1: (-1)^{k+1} star d star on each part."""
    _require_numeric(spec)
    return Form(_dc_terms(spec, f.terms), spec.two_n)


def _monomial_preimages(spec: AlgebraSpec, op, degree: int) -> dict:
    """{target: (source, coeff)} with op({source: 1}) = {target: coeff}.

    Sources are the degree-``degree`` masks.  Subspaces read off this map
    are exact only if op sends each monomial to at most one monomial and
    distinct monomials to distinct ones, so both are checked.
    """
    preimages = {}
    for source in degree_masks(spec.two_n, degree):
        terms = op({source: 1})
        if not terms:
            continue
        if len(terms) > 1:
            raise InvariantViolationError(
                f"the image of {Monomial(source, spec.two_n)} has "
                f"{len(terms)} terms, not one"
            )
        ((target, coeff),) = terms.items()
        if target in preimages:
            raise InvariantViolationError(
                f"two monomials map onto {Monomial(target, spec.two_n)}"
            )
        preimages[target] = (source, coeff)
    return preimages


def harmonic_representative(spec: AlgebraSpec, class_rep: Form) -> Form:
    """A form r = class_rep + d(x) with d r = 0 and d^c r = 0.

    x solves d^c d x = -d^c class_rep, read off term by term from the
    monomial preimages under d^c d.  For these algebras a solution exists
    whenever the hard-Lefschetz condition holds, so failure raises.
    """
    _require_numeric(spec)
    if not is_closed(spec, class_rep):
        raise NotACocycleError("harmonic representatives need a closed input")
    terms = class_rep.terms
    rhs = _dc_terms(spec, terms)
    if not rhs:
        return class_rep
    if not class_rep.is_homogeneous():
        raise ValueError("class representative must be homogeneous")
    (degree,) = class_rep.degrees()
    preimages = _monomial_preimages(
        spec, lambda g: _dc_terms(spec, d_terms(spec, g)), degree - 1
    )
    correction = {}
    for target, value in rhs.items():
        if target not in preimages:
            raise NoHarmonicRepresentativeError(
                f"no harmonic representative in degree {degree}"
            )
        source, coeff = preimages[target]
        correction[source] = -Fraction(value) / coeff
    result = add_terms(terms, d_terms(spec, correction))
    if d_terms(spec, result) or _dc_terms(spec, result):
        raise NoHarmonicRepresentativeError("solver returned a non-harmonic form")
    return Form(result, spec.two_n)


def ddc_lemma_check(spec: AlgebraSpec, degree: int) -> bool:
    """Exact test of Ker d^c  n  Im d = Im d d^c inside degree ``degree``.

    Both images are spanned by single monomials, and d^c is injective on
    the monomials it does not kill, so Ker d^c n Im d is spanned by the
    Im-d monomials that d^c kills, and Im d d^c by the d-images of the d^c
    targets: the lemma is an equality of sets.
    """
    _require_numeric(spec)
    if spec.n > HODGE_MAX_N:
        raise SizeLimitError(f"the operator suite is limited to n <= {HODGE_MAX_N}")
    if not 0 <= degree <= spec.two_n:
        raise ValueError(f"degree {degree} outside [0, {spec.two_n}]")
    d_image_of = {}
    if degree >= 1:
        d_preimages = _monomial_preimages(
            spec, lambda g: d_terms(spec, g), degree - 1
        )
        d_image_of = {source: target for target, (source, _) in d_preimages.items()}
    dc_preimages = _monomial_preimages(spec, lambda g: _dc_terms(spec, g), degree)
    not_killed = {source for source, _ in dc_preimages.values()}
    image_ddc = {d_image_of[t] for t in dc_preimages if t in d_image_of}
    return set(d_image_of.values()) - not_killed == image_ddc


def operator_suite_failures(spec: AlgebraSpec) -> list:
    """Ordered (k, reason) failures of the operator suite; empty when it passes.

    For each degree k: every monomial f must satisfy star star f = f,
    (d^c)^2 f = 0, d d^c f = -d^c d f and d^c f = [d, Lambda] f; the dd^c
    lemma must hold in degree k; and every basis class of H^k must have a
    harmonic representative.  The monomial checks run on masks.  Above
    n = HODGE_MAX_N it raises SizeLimitError before building any operator.
    """
    if spec.n > HODGE_MAX_N:
        raise SizeLimitError(f"the operator suite is limited to n <= {HODGE_MAX_N}")
    _require_numeric(spec)
    two_n = spec.two_n
    failures = []
    for k in range(two_n + 1):
        for mask in degree_masks(two_n, k):
            f = {mask: 1}
            if _star_terms(two_n, _star_terms(two_n, f)) != f:
                failures.append((k, "star not involutive"))
            dc_f = _dc_terms(spec, f)
            if _dc_terms(spec, dc_f):
                failures.append((k, "dc^2 != 0"))
            d_f = d_terms(spec, f)
            if add_terms(d_terms(spec, dc_f), _dc_terms(spec, d_f)):
                failures.append((k, "d dc != -dc d"))
            commutator = add_terms(
                d_terms(spec, _lambda_terms(spec, f)),
                _lambda_terms(spec, d_f),
                -1,
            )
            if dc_f != commutator:
                failures.append((k, "dc != [d, Lambda]"))
        if not ddc_lemma_check(spec, k):
            failures.append((k, "dd^c lemma fails"))
        for vec in cohomology_basis(spec, k).forms():
            rep = harmonic_representative(spec, vec)
            if not (is_closed(spec, rep) and not _dc_terms(spec, rep.terms)):
                failures.append((k, "non-harmonic representative"))
    return failures
