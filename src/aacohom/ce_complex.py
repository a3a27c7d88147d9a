"""Chevalley-Eilenberg complex of the diagonal almost-abelian Lie algebra.

The algebra is R e_{2n} |x R^{2n-1} with the bracket acting diagonally:
de^1 = de^{2n} = 0, de^i = b_i e^i ^ e^{2n} and de^{s(i)} = -b_i e^{s(i)} ^ e^{2n}
for 2 <= i <= n, where s(i) = i + n - 1.  Consequently the differential is
"monomial-diagonal": for a monomial m not containing the index 2n,

    d(m) = (-1)^(deg m + 1) * <w(m), b> * (m u {2n}),

where the weight w(m) records, for each j in 2..n, whether j and/or s(j)
occurs in m.  ``d_monomial`` is the one place that formula is written; the
brute-force rank oracle reads its matrices from it, one int mask at a time,
with no Form built.  Since d maps distinct monomials to distinct monomials,
a form is closed exactly when each of its monomials contains 2n or has
weight zero: ``is_closed``, the cohomology bases and the closed-form Betti
numbers rest on that weight test alone.
``d_monomial`` works on bit masks and sums <w(m), b> from a per-spec table
of each bit's share (``AlgebraSpec.bit_weights``).  ``d_terms`` applies it
to a {mask: coeff} map, such as the ``terms`` of a Form, and
``differential`` is its Form; ``is_closed`` and the explicit-mode bases
read the same table.

Three weight modes fix how "<w, b> = 0" is decided:

* GENERIC  - the b_j admit no nontrivial {-1,0,1} relation, so the test is
  w = 0 as an integer vector (no numeric b values exist, so there is no
  numeric d; the rank oracle reads the witness b_j = 3^j of ``bit_weights``);
* ONES     - every b_j = 1, so the test is sum(w) = 0;
* EXPLICIT - concrete rationals, so the test is the exact dot product.
"""

import enum
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import combinations
from math import comb, lcm

from . import exact_linalg
from .errors import Record, SizeLimitError, UnsupportedModeError
from .exterior_algebra import (
    Form,
    Monomial,
    below_parity,
    degree_masks,
)
from .kneser import comb_past

BRUTEFORCE_MAX_N = 7
# Largest basis cohomology_basis lists, checked before it is built (one run
# each, 2 CPUs, Python 3.11.7): `cohomology --basis` for ones n = 11, degree
# 11 (127008 classes) takes 3.1 s and 213 MB, and for ones n = 14, degree 14
# (5.9 million) had not finished after 60 s.  Explicit mode scans every
# monomial of the degree, so there the limit bounds C(2n, degree).  Each
# candidate's weight is tested on its int mask, and only the weight-zero
# ones become Monomials: the 184756 candidates of `cohomology --n 10 --mode
# explicit --b 1,...,9 --basis --degree 10` (above the limit, so measured
# with it lifted) take 0.3 s, against 5.4 s with a Monomial per candidate.
BASIS_MAX_SIZE = 127008
# Largest n the `cohomology` command takes, checked before any binomial (2
# CPUs, Python 3.11.7): the closed-form Betti list of ones n = 2500 (5.5 MB
# of JSON) takes 0.4 s, and n = 3000 (7.8 MB) 0.6 s and 41 MB.
COHOMOLOGY_MAX_N = 2500
_comb = lru_cache(maxsize=2)(comb)  # neighbouring degrees share C(n - 1, r)


class Mode(enum.Enum):
    GENERIC = "generic"
    ONES = "ones"
    EXPLICIT = "explicit"

    @classmethod
    def parse(cls, text: str) -> "Mode":
        try:
            return cls(text.lower())
        except ValueError:
            raise UnsupportedModeError(f"unknown weight mode {text!r}") from None


class AlgebraSpec(Record):
    """Dimension parameter n (so dim g = 2n) together with a weight mode."""

    n: int
    mode: Mode
    b: tuple

    def __init__(self, n, mode, b=None):
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
        if mode is Mode.EXPLICIT:
            if b is None or len(b) != n - 1:
                raise ValueError(
                    f"explicit mode needs exactly {n - 1} weights b_2..b_n"
                )
            b = tuple(Fraction(v) for v in b)
        elif b is not None:
            raise ValueError("weights are only allowed in explicit mode")
        super().__init__(n, mode, b)

    @classmethod
    def generic(cls, n: int) -> "AlgebraSpec":
        return cls(n, Mode.GENERIC)

    @classmethod
    def ones(cls, n: int) -> "AlgebraSpec":
        return cls(n, Mode.ONES)

    @classmethod
    def explicit(cls, b) -> "AlgebraSpec":
        b = tuple(b)
        return cls(len(b) + 1, Mode.EXPLICIT, b)

    @property
    def two_n(self) -> int:
        return 2 * self.n

    def sigma(self, i: int) -> int:
        """Index of the covector dual to e^i, i.e. s(i) = i + n - 1."""
        if not 2 <= i <= self.n:
            raise ValueError(f"sigma is defined for 2 <= i <= n, got {i}")
        return i + self.n - 1

    def numeric_b(self) -> tuple:
        if self.mode is Mode.ONES:
            return tuple(Fraction(1) for _ in range(self.n - 1))
        if self.mode is Mode.EXPLICIT:
            return self.b
        raise UnsupportedModeError("generic mode has no numeric weights")

    @cached_property
    def bit_weights(self) -> tuple:
        """(shares, scale): bit i of a mask adds shares[i] / scale to <w, b>.

        Index j adds b_j, index s(j) adds -b_j, and 1 and 2n add nothing.
        ``scale`` is the least common denominator of the b_j, so the shares
        and their sums stay integers.  Generic mode has no numeric b and
        reads the witness b_j = 3^j instead: by balanced ternary its
        {-1, 0, 1} combinations vanish only when every coefficient does, so
        a zero sum there is w = 0.  Built on first use.
        """
        if self.mode is Mode.GENERIC:
            b = [3 ** j for j in range(2, self.n + 1)]
        else:
            b = self.numeric_b()
        scale = lcm(*(Fraction(v).denominator for v in b))
        shares = [0] * self.two_n
        for j, v in zip(range(2, self.n + 1), b):
            share = int(v * scale)
            shares[j - 1] = share
            shares[self.sigma(j) - 1] = -share
        return tuple(shares), scale


def _scaled_weight(spec: AlgebraSpec, mask: int) -> int:
    """scale * <w(mask), b>, summed over the set bits from ``bit_weights``."""
    shares = spec.bit_weights[0]
    total = 0
    while mask:
        low = mask & -mask
        total += shares[low.bit_length() - 1]
        mask ^= low
    return total


def weight_is_zero(spec: AlgebraSpec, mask: int) -> bool:
    return not _scaled_weight(spec, mask)


def d_monomial(spec: AlgebraSpec, mask: int):
    """d of the monomial ``mask``: (target mask, coefficient), or None if zero.

    d e^m = (-1)^(deg m + 1) <w(m), b> e^(m u {2n}), with an int coefficient
    unless a weight is non-integral.  Generic mode reads the witness weights
    of ``bit_weights``, so there only "is it None" is meaningful.
    """
    shares, scale = spec.bit_weights
    top = 1 << (len(shares) - 1)
    if mask & top:
        return None
    total = _scaled_weight(spec, mask)
    if not total:
        return None
    if not mask.bit_count() & 1:
        total = -total
    return mask | top, total if scale == 1 else Fraction(total, scale)


def differential(spec: AlgebraSpec, f: Form) -> Form:
    """Exterior derivative of a form in a numeric mode, term by term.

    Generic mode has no numeric weights and raises UnsupportedModeError; its
    closedness test is ``is_closed``.  Satisfies d(d(f)) = 0 because the
    image is supported on monomials containing 2n.
    """
    if f.two_n != spec.two_n:
        raise ValueError(f"form ambient {f.two_n} does not match 2n={spec.two_n}")
    if spec.mode is Mode.GENERIC:
        raise UnsupportedModeError("generic mode has no numeric differential")
    return Form(d_terms(spec, f.terms), spec.two_n)


def d_terms(spec: AlgebraSpec, terms: dict) -> dict:
    """d of a {mask: coeff} form; d is injective on monomials, so no sums."""
    out = {}
    for mask, c in terms.items():
        image = d_monomial(spec, mask)
        if image:
            out[image[0]] = image[1] * c
    return out


def is_closed(spec: AlgebraSpec, f: Form) -> bool:
    """Whether d f = 0, in every mode: d kills each monomial of f.

    Exact because d maps distinct monomials to distinct monomials, so the
    terms of a form cannot cancel in its image.
    """
    if f.two_n != spec.two_n:
        raise ValueError(f"form ambient {f.two_n} does not match 2n={spec.two_n}")
    return all(d_monomial(spec, mask) is None for mask in f.terms)


# ---------------------------------------------------------------------------
# cohomology bases
#
# With the monomial-diagonal differential, the degree-k monomials of weight
# zero (under the mode) represent a basis of H^k: they are closed, they are
# never exact (the image of d is spanned by monomials of nonzero weight
# containing 2n), and dropping the exact monomials from any closed form is
# the projection onto their span.
# ---------------------------------------------------------------------------


class CohomologyBasis(Record):
    """Ordered basis of H^degree given by weight-zero monomials.

    ``signs[i]`` is the coefficient of ``elements[i]`` inside the product
    form the label describes (the gamma/theta products are not in ascending
    index order, so they may equal minus the normalized monomial).  The
    represented basis vector is signs[i] * elements[i].  ``labels`` is None
    for a basis built without them, since only output reads them.
    """

    degree: int
    elements: tuple
    labels: tuple
    signs: tuple

    def __len__(self):
        return len(self.elements)

    def forms(self):
        return [Form.from_monomial(m, s) for m, s in zip(self.elements, self.signs)]


def delta_form(spec: AlgebraSpec) -> Form:
    """delta = e^1 ^ e^{2n}."""
    return Form.from_monomial(Monomial.from_indices((1, spec.two_n), spec.two_n))


def gamma_form(spec: AlgebraSpec, i: int) -> Form:
    """gamma_i = e^i ^ e^{s(i)}, a closed 2-form for every 2 <= i <= n."""
    return Form.from_monomial(Monomial.from_indices((i, spec.sigma(i)), spec.two_n))


def theta_form(spec: AlgebraSpec, i: int, j: int) -> Form:
    """theta_{i|j} = e^i ^ e^{s(j)} with i != j."""
    if i == j:
        raise ValueError("theta_{i|j} requires i != j; use gamma_i instead")
    return Form.from_monomial(Monomial.from_indices((i, spec.sigma(j)), spec.two_n))


def _idx_label(indices):
    return ",".join(str(i) for i in indices)


def _join(*parts):
    return "*".join(p for p in parts if p and p != "1") or "1"


def _label(spec, half, target, free, theta):
    """Label of one class; the cases differ only in even target labels."""
    rest = [i for i in free if i != 1]
    if not target:
        core = _join("delta" if 1 in free else "",
                     "gamma_{%s}" % _idx_label(rest) if rest else "")
    elif half is None and spec.mode is Mode.ONES:
        core = "Gammabar_{%s}" % _idx_label(free) if free else "Gammabar"
    else:
        core = "Gamma_{%s}" % _idx_label(rest) if rest else "Gamma"
        if half is None and 1 not in free:
            core = "delta*" + core
    return _join("e1" if half == "e1" else "", core, theta,
                 "e2n" if half == "e2n" else "")


def _theta_data(spec, r, s):
    """(thetas, theta_inversions, crossings) of theta_{R|S}, R and S sorted:
    the mask of its indices R and s(S); the inversions among them in factor
    order (r_1, s(s_1), r_2, ...), C(p, 2) since each s(s_a) > n precedes
    every later r_b; and ``below_parity`` of the mask, whose bits on a gamma
    pair count the theta indices between its two indices."""
    thetas = 0
    for a, b in zip(r, s):  # bit b + n - 2 is s(b)
        thetas |= 1 << (a - 1) | 1 << (b + spec.n - 2)
    p = len(r)
    return thetas, p * (p - 1) // 2, below_parity(thetas, spec.two_n)


def _patterns(spec, m):
    """The patterns (half, p, count, ground, free) of L_m that hold a block,
    in the order of ``_block_walk``: ``count`` blocks theta_{R|S} of p pairs,
    each on the ``free``-subsets of a ground of ``ground`` indices, {1..n}
    minus R, S and, for odd m, 1."""
    n, (k, odd) = spec.n, divmod(m, 2)
    ps = range(k + 1 if spec.mode is Mode.ONES else 1)
    return [(half, p, count, n - 2 * p - odd, k - p)
            for half in (("e1", "e2n") if odd else (None,)) for p in ps
            if (count := _theta_count(n, p))]


def _theta_count(n, p):
    """The number of theta_{R|S} of p pairs, so of blocks per pattern."""
    return comb(n - 1, p) * comb(n - 1 - p, p)


def _block_walk(spec, m, patterns=None):
    """The blocks (half, p, R, S, ground, free) of L_m in basis order, one at
    a time, of ``patterns`` or of all; ``_pinned_bases`` says what they name."""
    n, odd = spec.n, m % 2
    for half, p, *_, free in _patterns(spec, m) if patterns is None else patterns:
        for r in combinations(range(2, n + 1), p):
            rest = [x for x in range(2 if odd else 1, n + 1) if x not in r]
            for s in combinations([x for x in rest if x > 1], p):
                ground = tuple(x for x in rest if x not in s)
                yield half, p, r, s, ground, free


def _pinned_bases(spec, m, labelled, sides, blocks=None):
    """([a basis per side in ``sides``], blocks) from one walk of L_m's blocks.

    Side False is H^m and side True is H^{2n-m}, both in block order.  A
    block is (half, p, R, S, ground, free): ``half`` is None for even m and
    "e1" or "e2n" for the halves of odd m = 2k+1; R and S are disjoint
    p-subsets of {2..n} naming theta_{R|S}; generic mode (case I) has only
    p = 0.  L_m acts on the block's classes, the ``free``-subsets I of
    ``ground`` in lexicographic order, as the adjacency matrix of
    K(len(ground), free), or as the identity when free = 0.  The class of I
    is [e^1] gammabar_C theta_{R|S} [e^{2n}], where C = I on side False and
    C = ground minus I on side True, and gammabar_1 = delta.  Its sign is
    the parity of the inversion count of the factor index sequence.  e^1
    and e^{2n} stand at their sorted places.  Each gamma pair (i, s(i))
    with i >= 2 crosses each later one once (s(i) > n) and delta crosses
    every pair twice, so g such pairs give C(g, 2); the crossings of the
    gammas with the thetas are a bit count against the ``crossings`` of
    ``_theta_data``, and those among the thetas are fixed per block.  The
    bases cover the given ``blocks`` only, or the whole ``_block_walk``.
    """
    n, two_n = spec.n, spec.two_n
    top = 1 << (two_n - 1)
    pair = {1: 1 | top}  # index -> mask of its gamma pair; delta for 1
    for i in range(2, n + 1):
        pair[i] = 1 << (i - 1) | 1 << (spec.sigma(i) - 1)
    if blocks is None:
        blocks = list(_block_walk(spec, m))
    out = [([], [], []) for _ in sides]  # elements, labels, signs per side
    for half, p, r, s, ground, free in blocks:
        thetas, theta_inversions, crossings = _theta_data(spec, r, s)
        base = thetas | (1 if half == "e1" else 0) | (top if half == "e2n" else 0)
        pairs = [pair[i] for i in ground]
        everything = sum(pairs)
        for target, (elements, labels, signs) in zip(sides, out):
            if labelled:
                theta = "theta_{%s|%s}" % (_idx_label(r), _idx_label(s))
                labels.extend(
                    _label(spec, half, target, idx, theta if p else "")
                    for idx in combinations(ground, free)
                )
            count = len(ground) - free if target else free
            for chosen in combinations(pairs, free):
                gammas = everything - sum(chosen) if target else sum(chosen)
                g = count - (gammas & 1)  # pairs other than delta
                inversions = g * (g - 1) // 2 + (gammas & crossings).bit_count()
                inversions += theta_inversions
                elements.append(Monomial(base | gammas, two_n))
                signs.append(-1 if inversions & 1 else 1)
    return [
        CohomologyBasis(two_n - m if target else m, tuple(elements),
                        tuple(labels) if labelled else None, tuple(signs))
        for target, (elements, labels, signs) in zip(sides, out)
    ], blocks


def _explicit_basis(spec, degree, labelled):
    """Weight-zero monomials in plain lexicographic order.

    Off the two hypotheses there is no distinguished gamma/theta structure,
    so elements are labelled by their covector indices directly.
    """
    elements = tuple(
        Monomial(mask, spec.two_n)
        for mask in degree_masks(spec.two_n, degree)
        if not _scaled_weight(spec, mask)
    )
    labels = tuple(map(repr, elements)) if labelled else None
    return CohomologyBasis(degree, elements, labels, (1,) * len(elements))


def cohomology_basis(
    spec: AlgebraSpec, degree: int, labels: bool = True
) -> CohomologyBasis:
    """Ordered monomial basis of H^degree, with ``labels`` if asked for.

    Degrees at most n use the gamma-bar ordering (the domain side of the
    Lefschetz operators); degrees above n use the complementary Gamma-bar
    ordering (the codomain side).
    """
    if not 0 <= degree <= spec.two_n:
        raise ValueError(f"degree {degree} outside [0, {spec.two_n}]")
    explicit = spec.mode is Mode.EXPLICIT
    binom = partial(comb_past, limit=BASIS_MAX_SIZE)
    size = (binom(spec.two_n, degree) if explicit
            else betti_closed_form(spec, degree, binom))
    if size > BASIS_MAX_SIZE:
        raise SizeLimitError(
            f"a basis of H^{degree} at n = {spec.n} means more than "
            f"{BASIS_MAX_SIZE} candidates"
        )
    if explicit:
        return _explicit_basis(spec, degree, labels)
    if degree <= spec.n:
        return _pinned_bases(spec, degree, labels, (False,))[0][0]
    return _pinned_bases(spec, spec.two_n - degree, labels, (True,))[0][0]


def lefschetz_target_basis(
    spec: AlgebraSpec, m: int, labels: bool = True
) -> CohomologyBasis:
    """Basis of H^{2n-m} in codomain order (complement flavour).

    Coincides with cohomology_basis(spec, 2n - m) except when m = n, where
    the codomain keeps the complementary ordering so that the middle
    Lefschetz matrix matches its Kneser-graph description.
    """
    if not 0 <= m <= spec.n:
        raise ValueError(f"m must lie in [0, {spec.n}], got {m}")
    if spec.mode is Mode.EXPLICIT:
        return _explicit_basis(spec, spec.two_n - m, labels)
    return _pinned_bases(spec, m, labels, (True,))[0][0]


def _class_groups(spec: AlgebraSpec, degree: int, binom=_comb) -> list:
    """[(t, r, count)] of H^degree: its classes [e^1] e^I e^{s(J)} [e^{2n}]
    hold t of e^1 and e^{2n} and r-subsets I, J of {2..n}, I = J if generic;
    ``count`` of them for each of the C(2, t) choices of those factors."""
    power = 2 if spec.mode is Mode.ONES else 1
    return [(t, r, binom(spec.n - 1, r) ** power)
            for t in range(degree % 2, 3, 2) if (r := (degree - t) // 2) >= 0]


def betti_closed_form(spec: AlgebraSpec, degree: int, binom=_comb) -> int:
    """Betti number summed over ``_class_groups``; it only adds and
    multiplies binomials, so with a ``binom`` from ``kneser.comb_past`` it
    passes the limit exactly when the Betti number does."""
    if not 0 <= degree <= spec.two_n:
        raise ValueError(f"degree {degree} outside [0, {spec.two_n}]")
    if spec.mode is Mode.EXPLICIT:
        raise UnsupportedModeError(
            "no closed-form Betti numbers in explicit mode; use betti_bruteforce"
        )
    return sum(comb(2, t) * count for t, _, count in _class_groups(spec, degree, binom))


@lru_cache(maxsize=None)
def _rank_of_d(spec, degree):
    """Rank of d on the degree-k forms, by elimination.

    d sends each monomial to a multiple of one monomial, and distinct
    monomials to distinct ones, so each nonzero column of d is one row
    {target mask: coefficient}, read off ``d_monomial`` over the int masks
    of ``degree_masks``.  The rows still go through ``exact_linalg.rank``,
    so the oracle does not rest on the closed form.
    """
    images = (d_monomial(spec, mask) for mask in degree_masks(spec.two_n, degree))
    return exact_linalg.rank([{target: c} for target, c in filter(None, images)])


def betti_bruteforce(spec: AlgebraSpec, degree: int) -> int:
    """Betti number as dim ker d_k - rank d_{k-1}, by exact elimination.

    Independent of the closed-form route: the ranks are eliminations of the
    matrices of d, built from ``d_monomial`` on int masks (``_rank_of_d``).
    Generic mode reads the witness of ``bit_weights``: each row is one entry
    with its own target, so no rank depends on the coefficient values.
    """
    if spec.n > BRUTEFORCE_MAX_N:
        raise SizeLimitError(
            f"brute-force Betti numbers are limited to n <= {BRUTEFORCE_MAX_N}"
        )
    if not 0 <= degree <= spec.two_n:
        raise ValueError(f"degree {degree} outside [0, {spec.two_n}]")
    rank_k = _rank_of_d(spec, degree) if degree < spec.two_n else 0
    rank_prev = _rank_of_d(spec, degree - 1) if degree > 0 else 0
    return comb(spec.two_n, degree) - rank_k - rank_prev


def betti_sequence(spec: AlgebraSpec, bruteforce: bool = False) -> list:
    fn = betti_bruteforce if bruteforce else betti_closed_form
    return [fn(spec, k) for k in range(spec.two_n + 1)]
