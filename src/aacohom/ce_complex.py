"""Chevalley-Eilenberg complex of the diagonal almost-abelian Lie algebra.

The algebra is R e_{2n} |x R^{2n-1} with the bracket acting diagonally:
de^1 = de^{2n} = 0, de^i = b_i e^i ^ e^{2n} and de^{s(i)} = -b_i e^{s(i)} ^ e^{2n}
for 2 <= i <= n, where s(i) = i + n - 1.  Consequently the differential is
"monomial-diagonal": for a monomial m not containing the index 2n,

    d(m) = (-1)^(deg m + 1) * <w(m), b> * (m u {2n}),

where the weight w(m) records, for each j in 2..n, whether j and/or s(j)
occurs in m.  Everything in this module (weights, cohomology bases, Betti
numbers and the brute-force rank oracle) is built on that formula.

Three weight modes fix how "<w, b> = 0" is decided:

* GENERIC  - the b_j admit no nontrivial {-1,0,1} relation, so the test is
  w = 0 as an integer vector (no numeric b values exist);
* ONES     - every b_j = 1, so the test is sum(w) = 0;
* EXPLICIT - concrete rationals, so the test is the exact dot product.
"""

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from . import exact_linalg
from .errors import SizeLimitError, UnsupportedModeError
from .exterior_algebra import Form, Monomial, all_monomials

BRUTEFORCE_MAX_N = 7
GENERIC_WITNESS_BASE = 3


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


@dataclass(frozen=True)
class AlgebraSpec:
    """Dimension parameter n (so dim g = 2n) together with a weight mode."""

    n: int
    mode: Mode
    b: tuple = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.mode is Mode.EXPLICIT:
            if self.b is None or len(self.b) != self.n - 1:
                raise ValueError(
                    f"explicit mode needs exactly {self.n - 1} weights b_2..b_n"
                )
            object.__setattr__(self, "b", tuple(Fraction(v) for v in self.b))
        elif self.b is not None:
            raise ValueError("weights are only allowed in explicit mode")

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
        """The scalar <w, b> for a numeric mode."""
        b = spec.numeric_b()
        return sum((c * v for c, v in zip(self.coeffs, b)), Fraction(0))


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
        if m.contains(spec.sigma(j)):
            c -= 1
        coeffs.append(c)
    return WeightVector(tuple(coeffs))


def weight_is_zero(spec: AlgebraSpec, m: Monomial) -> bool:
    return weight(spec, m).is_zero_for(spec)


class SymbolicForm:
    """A form whose coefficients are linear expressions in b_2..b_n.

    Used for the differential in generic mode: every coefficient in this
    complex is homogeneous of degree one in the b_j, so a vector of
    rationals per monomial suffices.
    """

    __slots__ = ("terms", "two_n")

    def __init__(self, terms, two_n):
        self.terms = {m: tuple(v) for m, v in dict(terms).items() if any(v)}
        self.two_n = two_n

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, SymbolicForm)
            and self.two_n == other.two_n
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{v}*{m}" for m, v in self.terms.items())


def differential(spec: AlgebraSpec, f: Form):
    """Exterior derivative of a form.

    Numeric modes return a Form; generic mode returns a SymbolicForm whose
    coefficients are weight vectors.  Satisfies d(d(f)) = 0 in every mode
    because the image is supported on monomials containing 2n.
    """
    if f.two_n != spec.two_n:
        raise ValueError(f"form ambient {f.two_n} does not match 2n={spec.two_n}")
    top = spec.two_n
    symbolic = spec.mode is Mode.GENERIC
    out = {}
    for m, c in f.terms.items():
        if m.contains(top):
            continue
        w = weight(spec, m)
        sign = -1 if m.degree % 2 == 0 else 1  # (-1)^(deg+1)
        target = Monomial(m.mask | (1 << (top - 1)), top)
        if symbolic:
            if not any(w.coeffs):
                continue
            scale = sign * c
            vec = tuple(scale * x for x in w.coeffs)
            old = out.get(target)
            out[target] = (
                vec if old is None else tuple(a + b for a, b in zip(old, vec))
            )
        else:
            value = w.value(spec)
            if value:
                out[target] = out.get(target, Fraction(0)) + sign * c * value
    if symbolic:
        return SymbolicForm(out, top)
    return Form(out, top)


def is_closed(spec: AlgebraSpec, f: Form) -> bool:
    d = differential(spec, f)
    return d.is_zero


# ---------------------------------------------------------------------------
# cohomology bases
#
# With the monomial-diagonal differential, the degree-k monomials of weight
# zero (under the mode) represent a basis of H^k: they are closed, they are
# never exact (the image of d is spanned by monomials of nonzero weight
# containing 2n), and dropping the exact monomials from any closed form is
# the projection onto their span.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CohomologyBasis:
    """Ordered basis of H^degree given by weight-zero monomials.

    ``signs[i]`` is the coefficient of ``elements[i]`` inside the product
    form the label describes (the gamma/theta products are not in ascending
    index order, so they may equal minus the normalized monomial).  The
    represented basis vector is signs[i] * elements[i].
    """

    degree: int
    elements: tuple
    labels: tuple
    signs: tuple

    def __len__(self):
        return len(self.elements)

    def forms(self):
        return [Form.from_monomial(m, s) for m, s in zip(self.elements, self.signs)]

    def index_of(self, mono: Monomial) -> int:
        return self.elements.index(mono)


def delta_form(spec: AlgebraSpec) -> Form:
    """delta = e^1 ^ e^{2n}."""
    return Form.from_monomial(
        Monomial.from_indices((1, spec.two_n), spec.two_n)
    )


def gamma_form(spec: AlgebraSpec, i: int) -> Form:
    """gamma_i = e^i ^ e^{s(i)}, a closed 2-form for every 2 <= i <= n."""
    return Form.from_monomial(
        Monomial.from_indices((i, spec.sigma(i)), spec.two_n)
    )


def theta_form(spec: AlgebraSpec, i: int, j: int) -> Form:
    """theta_{i|j} = e^i ^ e^{s(j)} with i != j."""
    if i == j:
        raise ValueError("theta_{i|j} requires i != j; use gamma_i instead")
    return Form.from_monomial(
        Monomial.from_indices((i, spec.sigma(j)), spec.two_n)
    )


def _idx_label(indices):
    return ",".join(str(i) for i in indices)


def _join(*parts):
    return "*".join(p for p in parts if p and p != "1") or "1"


def _kneser_blocks(spec, m):
    """The Kneser blocks of L_m in pinned basis order.

    Yields (half, p, R, S, ground, free) per block.  ``half`` is None for
    even m and "e1" or "e2n" for the two halves of odd m = 2k+1.  R and S
    are disjoint p-subsets of {2..n} naming the factor theta_{R|S}; generic
    mode (case I) is ones mode (case II) restricted to p = 0.  The classes
    of a block are indexed by the ``free``-subsets of ``ground`` in
    lexicographic order, and L_m acts on them as the adjacency matrix of
    K(len(ground), free), or as the identity when free = 0.
    """
    n = spec.n
    k, odd = divmod(m, 2)
    lowest = 2 if odd else 1
    top_p = k if spec.mode is Mode.ONES else 0
    for half in ("e1", "e2n") if odd else (None,):
        for p in range(top_p + 1):
            for r in combinations(range(2, n + 1), p):
                rest = [x for x in range(2, n + 1) if x not in r]
                for s in combinations(rest, p):
                    ground = tuple(
                        x for x in range(lowest, n + 1)
                        if x not in r and x not in s
                    )
                    yield half, p, r, s, ground, k - p


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


def _pinned_basis(spec, m, target):
    """Basis of H^m (source side) or of H^{2n-m} (target side) in block order.

    The class of a free subset I of a block is the product
    [e^1] gammabar_C theta_{R|S} [e^{2n}], where C = I on the source side
    and C = ground minus I on the target side, and gammabar_1 = delta.  Its
    sign is the parity of the inversion count of the factor index sequence.
    """
    two_n = spec.two_n
    elements, labels, signs = [], [], []
    for half, p, r, s, ground, free in _kneser_blocks(spec, m):
        thetas = [i for a, b in zip(r, s) for i in (a, spec.sigma(b))]
        theta = "theta_{%s|%s}" % (_idx_label(r), _idx_label(s)) if p else ""
        for idx in combinations(ground, free):
            gammas = [x for x in ground if x not in idx] if target else idx
            seq = [1] if half == "e1" else []
            for i in gammas:
                seq += (1, two_n) if i == 1 else (i, spec.sigma(i))
            seq += thetas
            if half == "e2n":
                seq.append(two_n)
            mask = inversions = 0
            for i in seq:
                inversions += (mask >> i).bit_count()
                mask |= 1 << (i - 1)
            elements.append(Monomial(mask, two_n))
            labels.append(_label(spec, half, target, idx, theta))
            signs.append(-1 if inversions & 1 else 1)
    degree = two_n - m if target else m
    return CohomologyBasis(degree, tuple(elements), tuple(labels), tuple(signs))


def _explicit_basis(spec, degree):
    """Weight-zero monomials in plain lexicographic order.

    Off the two hypotheses there is no distinguished gamma/theta structure,
    so elements are labelled by their covector indices directly.
    """
    builder_elements = []
    labels = []
    for m in all_monomials(spec.two_n, degree):
        if weight_is_zero(spec, m):
            builder_elements.append(m)
            labels.append(repr(m))
    return CohomologyBasis(
        degree,
        tuple(builder_elements),
        tuple(labels),
        tuple(1 for _ in builder_elements),
    )


def cohomology_basis(spec: AlgebraSpec, degree: int) -> CohomologyBasis:
    """Ordered monomial basis of H^degree.

    Degrees at most n use the gamma-bar ordering (the domain side of the
    Lefschetz operators); degrees above n use the complementary Gamma-bar
    ordering (the codomain side).
    """
    if not 0 <= degree <= spec.two_n:
        raise ValueError(f"degree {degree} outside [0, {spec.two_n}]")
    if spec.mode is Mode.EXPLICIT:
        return _explicit_basis(spec, degree)
    if degree <= spec.n:
        return _pinned_basis(spec, degree, False)
    return _pinned_basis(spec, spec.two_n - degree, True)


def lefschetz_target_basis(spec: AlgebraSpec, m: int) -> CohomologyBasis:
    """Basis of H^{2n-m} in codomain order (complement flavour).

    Coincides with cohomology_basis(spec, 2n - m) except when m = n, where
    the codomain keeps the complementary ordering so that the middle
    Lefschetz matrix matches its Kneser-graph description.
    """
    if not 0 <= m <= spec.n:
        raise ValueError(f"m must lie in [0, {spec.n}], got {m}")
    if spec.mode is Mode.EXPLICIT:
        return _explicit_basis(spec, spec.two_n - m)
    return _pinned_basis(spec, m, True)


def betti_closed_form(spec: AlgebraSpec, degree: int) -> int:
    """Betti number from the closed-form binomial expressions."""
    if not 0 <= degree <= spec.two_n:
        raise ValueError(f"degree {degree} outside [0, {spec.two_n}]")
    n = spec.n
    if spec.mode is Mode.GENERIC:
        if degree % 2 == 0:
            return comb(n, degree // 2)
        return 2 * comb(n - 1, (degree - 1) // 2)
    if spec.mode is Mode.ONES:
        if degree % 2 == 0:
            k = degree // 2
            return comb(n - 1, k) ** 2 + (comb(n - 1, k - 1) ** 2 if k else 0)
        return 2 * comb(n - 1, (degree - 1) // 2) ** 2
    raise UnsupportedModeError(
        "no closed-form Betti numbers in explicit mode; use betti_bruteforce"
    )


def _bruteforce_weights(spec):
    if spec.mode is Mode.GENERIC:
        # exact integer witness for the generic hypothesis: distinct powers
        # of three admit no nontrivial {-1,0,1} relation
        return tuple(
            Fraction(GENERIC_WITNESS_BASE ** j) for j in range(2, spec.n + 1)
        )
    return spec.numeric_b()


def _differential_rows(spec, degree, b):
    """Columns of d restricted to degree, as sparse rows of its transpose."""
    sources = all_monomials(spec.two_n, degree)
    targets = {m: i for i, m in enumerate(all_monomials(spec.two_n, degree + 1))}
    top_bit = 1 << (spec.two_n - 1)
    rows = []
    for m in sources:
        if m.mask & top_bit:
            continue
        value = sum(
            (c * v for c, v in zip(weight(spec, m).coeffs, b)), Fraction(0)
        )
        if value:
            sign = -1 if m.degree % 2 == 0 else 1
            target = Monomial(m.mask | top_bit, spec.two_n)
            rows.append({targets[target]: sign * value})
    return rows


def betti_bruteforce(spec: AlgebraSpec, degree: int) -> int:
    """Betti number as dim ker d_k - rank d_{k-1}, by exact elimination.

    Independent of the closed-form route: it builds the full differential
    matrices column by column and computes ranks by fraction-free Gaussian
    elimination.  Generic mode substitutes the power-of-three witness.
    """
    if spec.n > BRUTEFORCE_MAX_N:
        raise SizeLimitError(
            f"brute-force Betti numbers are limited to n <= {BRUTEFORCE_MAX_N}"
        )
    if not 0 <= degree <= spec.two_n:
        raise ValueError(f"degree {degree} outside [0, {spec.two_n}]")
    b = _bruteforce_weights(spec)
    dim_k = comb(spec.two_n, degree)
    rank_k = (
        exact_linalg.rank(_differential_rows(spec, degree, b))
        if degree < spec.two_n
        else 0
    )
    rank_prev = (
        exact_linalg.rank(_differential_rows(spec, degree - 1, b))
        if degree > 0
        else 0
    )
    return dim_k - rank_k - rank_prev


def betti_sequence(spec: AlgebraSpec, bruteforce: bool = False) -> list:
    fn = betti_bruteforce if bruteforce else betti_closed_form
    return [fn(spec, k) for k in range(spec.two_n + 1)]
