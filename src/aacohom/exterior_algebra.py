"""Exact sparse exterior algebra over a 2n-dimensional graded basis.

Covectors are indexed 1..2n.  A wedge monomial e^{i1} ^ ... ^ e^{ik} with
strictly increasing indices is stored as a bit mask over the 2n positions
(bit i-1 set iff index i occurs), so index collisions and inversion counts
become word operations.  A form is its sparse map {mask: coeff}, each
coefficient exact (``exact``: an int when integral, else a Fraction) and
never zero, and no value is ever mutated after construction.  Every kernel
reads and returns such maps: ``wedge`` is ``wedge_terms``, a sum is
``add_terms`` and a monomial map (mask -> (mask', coeff) or None) is
``map_terms``.  ``Monomial`` is the value type of labels and printing.
"""

from fractions import Fraction
from itertools import combinations

from .errors import DimensionMismatchError


class Monomial:
    """An ascending subset of {1, ..., 2n}, i.e. a basis wedge monomial.

    The empty monomial represents the scalar unit 1.
    """

    __slots__ = ("mask", "two_n")

    def __init__(self, mask: int, two_n: int):
        if two_n < 0 or mask < 0 or mask >> two_n:
            raise ValueError(f"mask {mask:#x} does not fit in {two_n} positions")
        self.mask = mask
        self.two_n = two_n

    @classmethod
    def from_indices(cls, indices, two_n: int) -> "Monomial":
        mask = 0
        for i in indices:
            if not 1 <= i <= two_n:
                raise ValueError(f"index {i} outside [1, {two_n}]")
            bit = 1 << (i - 1)
            if mask & bit:
                raise ValueError(f"repeated index {i}")
            mask |= bit
        return cls(mask, two_n)

    @property
    def indices(self) -> tuple:
        return tuple(i + 1 for i in range(self.two_n) if self.mask >> i & 1)

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    def contains(self, index: int) -> bool:
        return bool(self.mask >> (index - 1) & 1)

    def __eq__(self, other):
        return (
            isinstance(other, Monomial)
            and self.mask == other.mask
            and self.two_n == other.two_n
        )

    def __hash__(self):
        return hash((self.mask, self.two_n))

    def __lt__(self, other):
        # lexicographic on the ascending index tuples
        return self.indices < other.indices

    def __repr__(self):
        if not self.mask:
            return "1"
        return "e" + "".join(f"^{i}" for i in self.indices)


def below_parity(mask: int, width: int) -> int:
    """Bit p set iff an odd number of the bits of ``mask`` lie below p.

    For disjoint monomials a and b, a ^ b has the sign
    (-1)^((a & below_parity(b, width)).bit_count()), one bit count instead
    of a loop over the indices of a.
    """
    below = mask << 1
    shift = 1
    while shift < width:  # prefix XOR in log2(width) steps
        below ^= below << shift
        shift <<= 1
    return below


def exact(value, divisor: int = 1):
    """value / divisor as a coefficient: an int when integral, else a Fraction."""
    if type(value) is int and not value % divisor:
        return value // divisor
    q = Fraction(value) / divisor
    return q.numerator if q.denominator == 1 else q


def add_terms(a: dict, b: dict, scale: int = 1) -> dict:
    """a + scale * b of two {mask: coeff} forms, without zero coefficients."""
    out = dict(a)
    for mask, c in b.items():
        out[mask] = out.get(mask, 0) + scale * c
    return {mask: c for mask, c in out.items() if c}


def map_terms(image_of, terms: dict) -> dict:
    """A monomial map on a {mask: coeff} form, one that sends distinct
    monomials to distinct ones, so that no images need summing."""
    out = {}
    for mask, c in terms.items():
        image = image_of(mask)
        if image:
            out[image[0]] = image[1] * c
    return out


def wedge_terms(a: dict, b: dict, two_n: int) -> dict:
    """a ^ b of two {mask: coeff} forms, without zero coefficients.

    P ^ Q vanishes when the masks meet, and its sign is one bit count of P
    against ``below_parity`` of Q.  The terms of a are the outer loop.
    """
    b = [(q, below_parity(q, two_n), c) for q, c in b.items()]
    out = {}
    for p, pc in a.items():
        for q, below, qc in b:
            if not p & q:
                v = -pc * qc if (p & below).bit_count() & 1 else pc * qc
                out[p | q] = out.get(p | q, 0) + v
    return {mask: c for mask, c in out.items() if c}


def degree_masks(two_n: int, degree: int) -> list:
    """Masks of the degree-homogeneous monomials in lexicographic index order."""
    return [sum(c) for c in combinations([1 << i for i in range(two_n)], degree)]


class Form:
    """A sparse element of the exterior algebra with exact coefficients.

    ``terms`` maps the int mask of each monomial to its coefficient, an int
    when integral and a Fraction otherwise, and never stores a zero.
    """

    __slots__ = ("terms", "two_n")

    def __init__(self, terms, two_n: int):
        clean = {}
        for mask, coeff in dict(terms).items():
            if type(mask) is not int or mask < 0 or mask >> two_n:
                raise DimensionMismatchError(
                    f"{mask!r} is not a mask of {two_n} positions"
                )
            coeff = exact(coeff)
            if coeff:
                clean[mask] = coeff
        self.terms = clean
        self.two_n = two_n

    @classmethod
    def zero(cls, two_n: int) -> "Form":
        return cls({}, two_n)

    @classmethod
    def one(cls, two_n: int) -> "Form":
        return cls({0: 1}, two_n)

    @classmethod
    def covector(cls, i: int, two_n: int) -> "Form":
        return cls.from_monomial(Monomial.from_indices((i,), two_n))

    @classmethod
    def from_monomial(cls, mono: Monomial, coeff=1) -> "Form":
        return cls({mono.mask: coeff}, mono.two_n)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set:
        return {mask.bit_count() for mask in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def homogeneous_part(self, degree: int) -> "Form":
        return Form(
            {m: c for m, c in self.terms.items() if m.bit_count() == degree},
            self.two_n,
        )

    def _same_ambient(self, other: "Form") -> None:
        if self.two_n != other.two_n:
            raise DimensionMismatchError(
                f"ambient dimensions differ: {self.two_n} vs {other.two_n}"
            )

    def __add__(self, other: "Form") -> "Form":
        self._same_ambient(other)
        return Form(add_terms(self.terms, other.terms), self.two_n)

    def __neg__(self) -> "Form":
        return Form({m: -c for m, c in self.terms.items()}, self.two_n)

    def __sub__(self, other: "Form") -> "Form":
        self._same_ambient(other)
        return Form(add_terms(self.terms, other.terms, -1), self.two_n)

    def __mul__(self, scalar) -> "Form":
        scalar = exact(scalar)
        return Form({m: c * scalar for m, c in self.terms.items()}, self.two_n)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Form":
        return self * (Fraction(1) / Fraction(scalar))

    def __eq__(self, other):
        return (
            isinstance(other, Form)
            and self.two_n == other.two_n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.two_n, frozenset(self.terms.items())))

    def sorted_terms(self):
        """[(Monomial, coeff)] in lexicographic index order."""
        return sorted((Monomial(m, self.two_n), c) for m, c in self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{m}" for m, c in self.sorted_terms())


def wedge(a: Form, b: Form) -> Form:
    """Bilinear, associative, graded-anticommutative exterior product."""
    a._same_ambient(b)
    return Form(wedge_terms(a.terms, b.terms, a.two_n), a.two_n)


def coefficient(f: Form, m: Monomial):
    """Coefficient of ``m`` in ``f`` (zero when absent); a monomial of
    another ambient dimension raises DimensionMismatchError."""
    f._same_ambient(m)
    return f.terms.get(m.mask, 0)


def top_pairing(a: Form, b: Form):
    """Coefficient of the full monomial e^1 ^ ... ^ e^{2n} in a ^ b.

    Nondegenerate pairing of complementary degrees, read off ``wedge_terms``
    with its sign rule; pairs of terms whose degrees do not sum to 2n
    contribute nothing to the full monomial.
    """
    a._same_ambient(b)
    full = (1 << a.two_n) - 1
    return exact(wedge_terms(a.terms, b.terms, a.two_n).get(full, 0))
