"""Symplectic star, the codifferential d^c and the sl(2) operator triple.

The star operator is defined against the standard form by the identity
alpha ^ (star beta) = w^{-1}(alpha, beta) vol, where vol = w^n / n! and
w^{-1} extends the inverse pairing on covectors by the determinant rule.
Each index has one partner under the standard form (``partners``), so
w^{-1} pairs a monomial with a single monomial, the set of its partners, and
star sends each monomial to +- the complement of that set.  On top of star sit
d^c = (-1)^{k+1} star d star, Lambda = star L star and H = [L, Lambda].

The operator suite reads one ``_Tables`` per spec, one entry per mask: star
from the star table of 2n, d from ``d_monomial``, d^c as one monomial or
None, and Lambda = star L star, L being ``wedge_terms`` with ``standard_omega``.
As d is monomial-diagonal, d, d^c and their composites send distinct
monomials to distinct single monomials: the monomial identities are lookups,
the dd^c lemma an equality of monomial sets and a harmonic representative a
term-by-term preimage lookup in d^c d, exact and with no elimination.

The tables hold the ints scale * d and scale * d^c (``bit_weights``).  Each
checked identity is homogeneous in d, of degree 1 or 2 on both sides, and
scale * d has the images and kernels of d, so every verdict is that of d.
The harmonic solve is scale-invariant: scale^2 d^c d x' = -scale d^c r gives
x' = x / scale and r + (scale d) x' = r + d x.  The Form-level ``star`` and
``dc`` apply the same monomial maps with the true d.  The suite is limited
to n <= HODGE_MAX_N.
"""

from fractions import Fraction
from functools import lru_cache, partial

from .ce_complex import (
    AlgebraSpec,
    Mode,
    cohomology_basis,
    d_monomial,
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
    map_terms,
    wedge_terms,
)
from .lefschetz import _mask_power_chain, standard_omega

# Largest n of the operator suite, checked before any table is built (2 CPUs,
# Python 3.11.7, whole runs): `hodge --n 8 --mode ones` takes 0.81-0.95 s and
# 48 MB, and `--mode explicit --b 1/2,2/3,3,4,5,6,7/5` 0.86-0.98 s and 51 MB,
# far inside the 30 s CI gives each.  Ones n = 9 would take 4.1 s and 144 MB.
HODGE_MAX_N = 8


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
        two_n, partner_of, left = self.two_n, partners(self.two_n), mask
        odd = seen = 0  # seen has bit x for each partner x met so far
        while y := left.bit_length():  # the indices y of the mask, from the top
            left ^= 1 << (y - 1)
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
# the kernel: monomial maps (mask -> (mask', coeff) or None), and Lambda
# ---------------------------------------------------------------------------


def _then(first, second, mask: int):
    """second(first(mask)) of two monomial maps: (mask', coeff) or None."""
    image = first(mask)
    inner = image and second(image[0])
    return inner and (inner[0], inner[1] * image[1])


def _dc_monomial(star_of, d_of, mask: int):
    """d^c = (-1)^{k+1} star d star on the degree-k monomial ``mask``."""
    middle, before = star_of(mask)
    image = d_of(middle)
    if image:
        result, after = star_of(image[0])
        sign = before * after if mask.bit_count() & 1 else -before * after
        return result, sign * image[1]


def _lambda_monomial(star_of, omega: dict, two_n: int, mask: int) -> dict:
    """Lambda = star L star on ``mask``, with L one ``wedge_terms`` with w."""
    middle, before = star_of(mask)
    return map_terms(star_of, wedge_terms(omega, {middle: before}, two_n))


def _preimages(image_of, two_n: int, degree: int) -> dict:
    """{target: (source, coeff)} of a monomial map on the degree-``degree``
    masks.  Subspaces read off it are exact only if the map is injective on
    the monomials it does not kill, so that is checked."""
    preimages = {}
    for source in degree_masks(two_n, degree):
        image = image_of(source)
        if image:
            if image[0] in preimages:
                raise InvariantViolationError(
                    f"two monomials map onto {Monomial(image[0], two_n)}"
                )
            preimages[image[0]] = (source, image[1])
    return preimages


def _require_numeric(spec):
    if spec.mode is Mode.GENERIC:
        raise UnsupportedModeError(
            "this operator needs numeric weights (ones or explicit mode)"
        )


class _Tables:
    """star, scale * d, scale * d^c and Lambda of one spec, one entry per mask;
    above n = HODGE_MAX_N it raises SizeLimitError before building any."""

    def __init__(self, spec: AlgebraSpec):
        if spec.n > HODGE_MAX_N:
            raise SizeLimitError(f"the operator suite is limited to n <= {HODGE_MAX_N}")
        _require_numeric(spec)
        self.two_n, masks = spec.two_n, range(1 << spec.two_n)
        self.star = list(map(_star_table(spec.two_n).__getitem__, masks))
        self.d = [d_monomial(spec, mask, scaled=True) for mask in masks]
        star_of, self.d_of = self.star.__getitem__, self.d.__getitem__
        self.dc = [_dc_monomial(star_of, self.d_of, mask) for mask in masks]
        self.dc_of = self.dc.__getitem__
        omega = standard_omega(spec).terms
        self.lam = [_lambda_monomial(star_of, omega, self.two_n, m) for m in masks]
        self._dcd = {}

    def dcd_preimages(self, degree: int) -> dict:
        """``_preimages`` of scale^2 d^c d on degree ``degree``, built once."""
        if degree not in self._dcd:
            dcd = partial(_then, self.d_of, self.dc_of)
            self._dcd[degree] = _preimages(dcd, self.two_n, degree)
        return self._dcd[degree]


# ---------------------------------------------------------------------------
# Form-level operators
# ---------------------------------------------------------------------------


def star(spec: AlgebraSpec, f: Form) -> Form:
    """Symplectic star of a form (applied degreewise); an exact involution."""
    return Form(map_terms(_star_table(spec.two_n).__getitem__, f.terms), spec.two_n)


def dc(spec: AlgebraSpec, f: Form) -> Form:
    """Symplectic codifferential, degree -1: (-1)^{k+1} star d star on each part."""
    _require_numeric(spec)
    image_of = partial(
        _dc_monomial, _star_table(spec.two_n).__getitem__, partial(d_monomial, spec)
    )
    return Form(map_terms(image_of, f.terms), spec.two_n)


def harmonic_representative(spec: AlgebraSpec, class_rep: Form, tables=None) -> Form:
    """A form r = class_rep + d(x) with d r = 0 and d^c r = 0.

    x solves d^c d x = -d^c class_rep, read off term by term from the
    monomial preimages under d^c d (on the scaled ``tables``, built here if
    not given).  For these algebras a solution exists whenever the
    hard-Lefschetz condition holds, so failure raises.
    """
    tables = tables or _Tables(spec)
    if not is_closed(spec, class_rep):
        raise NotACocycleError("harmonic representatives need a closed input")
    terms = class_rep.terms
    rhs = map_terms(tables.dc_of, terms)
    if not rhs:
        return class_rep
    if not class_rep.is_homogeneous():
        raise ValueError("class representative must be homogeneous")
    (degree,) = class_rep.degrees()
    preimages = tables.dcd_preimages(degree - 1)
    correction = {}
    for target, value in rhs.items():
        if target not in preimages:
            raise NoHarmonicRepresentativeError(
                f"no harmonic representative in degree {degree}"
            )
        source, coeff = preimages[target]
        correction[source] = -Fraction(value) / coeff  # x / scale
    result = add_terms(terms, map_terms(tables.d_of, correction))
    if map_terms(tables.d_of, result) or map_terms(tables.dc_of, result):
        raise NoHarmonicRepresentativeError("solver returned a non-harmonic form")
    return Form(result, spec.two_n)


def ddc_lemma_check(spec: AlgebraSpec, degree: int, tables=None) -> bool:
    """Exact test of Ker d^c  n  Im d = Im d d^c inside degree ``degree``.

    Both images are spanned by single monomials, and d^c is injective on
    the monomials it does not kill, so Ker d^c n Im d is spanned by the
    Im-d monomials that d^c kills, and Im d d^c by the d-images of the d^c
    targets: the lemma is an equality of sets, read off the scaled ``tables``.
    """
    tables = tables or _Tables(spec)
    if not 0 <= degree <= spec.two_n:
        raise ValueError(f"degree {degree} outside [0, {spec.two_n}]")
    d_image_of = {}
    if degree >= 1:
        d_preimages = _preimages(tables.d_of, spec.two_n, degree - 1)
        d_image_of = {source: target for target, (source, _) in d_preimages.items()}
    dc_preimages = _preimages(tables.dc_of, spec.two_n, degree)
    not_killed = {source for source, _ in dc_preimages.values()}
    image_ddc = {d_image_of[t] for t in dc_preimages if t in d_image_of}
    return set(d_image_of.values()) - not_killed == image_ddc


def operator_suite_failures(spec: AlgebraSpec) -> list:
    """Ordered (k, reason) failures of the operator suite; empty when it passes.

    For each degree k: every monomial f must satisfy star star f = f,
    (d^c)^2 f = 0, d d^c f = -d^c d f and d^c f = [d, Lambda] f; the dd^c
    lemma must hold in degree k; and every basis class of H^k must have a
    harmonic representative.  All of it reads one ``_Tables`` of the spec.
    """
    tables = _Tables(spec)
    star_t, d, dc_t, lam = tables.star, tables.d, tables.dc, tables.lam
    d_of, dc_of = tables.d_of, tables.dc_of
    failures = []
    for k in range(spec.two_n + 1):
        for mask in degree_masks(spec.two_n, k):
            target, sign = star_t[mask]
            back, again = star_t[target]
            if back != mask or sign * again != 1:
                failures.append((k, "star not involutive"))
            image = dc_t[mask]
            if image and dc_t[image[0]]:
                failures.append((k, "dc^2 != 0"))
            anti = _then(d_of, dc_of, mask)
            if _then(dc_of, d_of, mask) != (anti and (anti[0], -anti[1])):
                failures.append((k, "d dc != -dc d"))
            commutator = map_terms(d_of, lam[mask])  # d Lambda - Lambda d
            if d[mask]:
                commutator = add_terms(commutator, lam[d[mask][0]], -d[mask][1])
            if commutator != dict([image] if image else ()):
                failures.append((k, "dc != [d, Lambda]"))
        if not ddc_lemma_check(spec, k, tables):
            failures.append((k, "dd^c lemma fails"))
        for vec in cohomology_basis(spec, k, labels=False).forms():
            rep = harmonic_representative(spec, vec, tables)
            if map_terms(d_of, rep.terms) or map_terms(dc_of, rep.terms):
                failures.append((k, "non-harmonic representative"))
    return failures
