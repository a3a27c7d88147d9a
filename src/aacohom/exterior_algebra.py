"""Exact sparse exterior algebra over a 2n-dimensional graded basis.

Covectors are indexed 1..2n.  A wedge monomial e^{i1} ^ ... ^ e^{ik} with
strictly increasing indices is stored as a bit mask over the 2n positions
(bit i-1 set iff index i occurs), so index collisions and inversion counts
become word operations.  A form is a sparse map monomial -> Fraction; all
arithmetic is exact and no value is ever mutated after construction.  The
mask kernels hold a form as {mask: coeff} (``Form.masks``) and multiply with
``wedge_terms``; ``wedge`` keeps its own loop, the tests' reference.
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
    """A sparse element of the exterior algebra with exact rational coefficients.

    ``terms`` maps Monomial -> Fraction and never stores a zero coefficient.
    """

    __slots__ = ("terms", "two_n")

    def __init__(self, terms, two_n: int):
        clean = {}
        for mono, coeff in dict(terms).items():
            if mono.two_n != two_n:
                raise DimensionMismatchError(
                    f"monomial ambient {mono.two_n} in form with ambient {two_n}"
                )
            coeff = Fraction(coeff)
            if coeff:
                clean[mono] = coeff
        self.terms = clean
        self.two_n = two_n

    @classmethod
    def zero(cls, two_n: int) -> "Form":
        return cls({}, two_n)

    @classmethod
    def one(cls, two_n: int) -> "Form":
        return cls({Monomial(0, two_n): Fraction(1)}, two_n)

    @classmethod
    def covector(cls, i: int, two_n: int) -> "Form":
        return cls({Monomial.from_indices((i,), two_n): Fraction(1)}, two_n)

    @classmethod
    def from_monomial(cls, mono: Monomial, coeff=1) -> "Form":
        return cls({mono: Fraction(coeff)}, mono.two_n)

    @classmethod
    def from_masks(cls, terms: dict, two_n: int) -> "Form":
        """The form of a {mask: coeff} map, as the mask kernels return it."""
        return cls({Monomial(mask, two_n): c for mask, c in terms.items()}, two_n)

    def masks(self) -> dict:
        """{mask: coeff}, an integral coefficient as an int, for the kernels."""
        return {
            m.mask: c.numerator if c.denominator == 1 else c
            for m, c in self.terms.items()
        }

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set:
        return {m.degree for m in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def homogeneous_part(self, degree: int) -> "Form":
        return Form(
            {m: c for m, c in self.terms.items() if m.degree == degree}, self.two_n
        )

    def __add__(self, other: "Form") -> "Form":
        if self.two_n != other.two_n:
            raise DimensionMismatchError(
                f"ambient dimensions differ: {self.two_n} vs {other.two_n}"
            )
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        return Form(terms, self.two_n)

    def __neg__(self) -> "Form":
        return Form({m: -c for m, c in self.terms.items()}, self.two_n)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __mul__(self, scalar) -> "Form":
        scalar = Fraction(scalar)
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

    def wedge(self, other: "Form") -> "Form":
        return wedge(self, other)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: item[0].indices)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{m}" for m, c in self.sorted_terms())


def wedge(a: Form, b: Form) -> Form:
    """Bilinear, associative, graded-anticommutative exterior product."""
    if a.two_n != b.two_n:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {a.two_n} vs {b.two_n}"
        )
    terms = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            sign, merged = wedge_monomials(ma, mb)
            if sign:
                terms[merged] = terms.get(merged, Fraction(0)) + sign * ca * cb
    return Form(terms, a.two_n)


def coefficient(f: Form, m: Monomial) -> Fraction:
    """Coefficient of ``m`` in ``f`` (zero when absent)."""
    return f.terms.get(m, Fraction(0))


def top_pairing(a: Form, b: Form) -> Fraction:
    """Coefficient of the full monomial e^1 ^ ... ^ e^{2n} in a ^ b.

    Nondegenerate pairing of complementary degrees; pairs of terms whose
    degrees do not sum to 2n contribute nothing.
    """
    if a.two_n != b.two_n:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {a.two_n} vs {b.two_n}"
        )
    full = (1 << a.two_n) - 1
    total = Fraction(0)
    for ma, ca in a.terms.items():
        needed = full ^ ma.mask
        cb = b.terms.get(Monomial(needed, b.two_n))
        if cb:
            sign, _ = wedge_monomials(ma, Monomial(needed, b.two_n))
            total += sign * ca * cb
    return total
