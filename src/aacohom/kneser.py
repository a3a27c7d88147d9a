"""Kneser graphs K(n, k): vertices, adjacency matrices and exact spectra.

Vertices are the k-subsets of {1, ..., n} in lexicographic order; two
vertices are adjacent iff the subsets are disjoint.  The eigenvalues are
the integers lambda_j = (-1)^j C(n-k-j, k-j) for 0 <= j <= k, all nonzero
when n >= 2k, which is what makes these graphs invertible; lambda_j has
multiplicity C(n, j) - C(n, j-1), so det A(K(n, k)) is their product
(Lovasz 1979; Godsil-Royle, Algebraic Graph Theory, section 9.4).
"""

from itertools import combinations
from math import comb, prod

from . import exact_linalg
from .errors import (
    InvalidParameterError,
    InvariantViolationError,
    Record,
    SizeLimitError,
)

# Limits, from whole CLI runs on 2 CPUs (Python 3.11.7).  The CLI lists every
# vertex and by default the adjacency matrix, rendered from the neighbour
# lists: K(12,6) (924 vertices, 9 MB of JSON) takes 0.3 s and 40 MB, K(13,6)
# (1716) 0.5 s and 85 MB, K(14,7) (3432, 130 MB of JSON) 1.0 s and 271 MB.
# --verify is held to about 1 s a run by ``certificate_work``, at 1.6 to 2.4
# ns a word operation, as its time grows with the degree and the number of
# distinct eigenvalues, not with the vertices alone: K(11,4) (15 M word
# operations) takes 0.11 to 0.19 s, K(11,5) (4 M) 0.09 to 0.16 s, K(12,5)
# (68 M) 0.21 to 0.39 s, and the heaviest admitted, K(740,1), K(34,2),
# K(16,3) and K(13,4) (334 to 399 M), 0.61 to 0.77 s (0.94 s at worst), at
# most 22 MB.  K(17,3) (664 M, 680 vertices) is the first one refused.
MAX_VERTICES = 924
VERIFY_MAX_WORK = 400_000_000


class KneserGraph(Record):
    n: int
    k: int

    def __init__(self, n, k):
        if n < 1:
            raise InvalidParameterError(f"n must be >= 1, got {n}")
        if not 0 <= k <= n:
            raise InvalidParameterError(f"k must lie in [0, {n}], got {k}")
        super().__init__(n, k)

    @property
    def vertices(self) -> list:
        """k-subsets of {1..n} in lexicographic order.

        In particular K(n, 0) has the single vertex () and no edges.
        """
        return list(combinations(range(1, self.n + 1), self.k))

    @property
    def vertex_count(self) -> int:
        return comb(self.n, self.k)

    @property
    def degree(self) -> int:
        """Common vertex degree C(n-k, k)."""
        return comb(self.n - self.k, self.k)


def comb_past(n: int, k: int, limit: int) -> int:
    """C(n, k), or a number past ``limit``: C(n, j) grows with j up to
    min(k, n - k), so the count stops at the first one past the limit."""
    count = 1 if 0 <= k <= n else 0
    for j in range(min(k, n - k)):
        count = count * (n - j) // (j + 1)
        if count > limit:
            break
    return count


def require_vertex_count(g: KneserGraph, limit: int) -> None:
    """Raise SizeLimitError if g has more than ``limit`` vertices, counted
    by ``comb_past`` so that a large C(n, k) is never formed."""
    if comb_past(g.n, g.k, limit) > limit:
        raise SizeLimitError(f"K({g.n},{g.k}) has more than {limit} vertices")


def adjacency(g: KneserGraph) -> list:
    """0/1 adjacency matrix; entry (I, J) is 1 iff I and J are disjoint."""
    verts = [frozenset(v) for v in g.vertices]
    return [
        [1 if i != j and not (vi & vj) else 0 for j, vj in enumerate(verts)]
        for i, vi in enumerate(verts)
    ]


def neighbours(g: KneserGraph) -> list:
    """For each vertex, the sorted indices of the vertices adjacent to it.

    The neighbours of I are the k-subsets of its complement; drawn from the
    sorted complement they come in lexicographic, hence index, order.
    K(n, 0) has the single vertex () and no loop.
    """
    if g.k == 0:
        return [[]]
    index = {v: i for i, v in enumerate(g.vertices)}
    ground = range(1, g.n + 1)
    return [
        [index[w] for w in combinations([x for x in ground if x not in v], g.k)]
        for v in index
    ]


def spectrum(g: KneserGraph) -> list:
    """Eigenvalues as (value, j) pairs for j = 0..k.

    Defined for k >= 1 and n >= 2k (below that the graph is empty or the
    single-vertex convention applies and the formula does not).
    """
    if g.k < 1:
        raise InvalidParameterError("the eigenvalue family needs k >= 1")
    if g.n < 2 * g.k:
        raise InvalidParameterError(
            f"eigenvalue formula needs n >= 2k; got n={g.n}, k={g.k}"
        )
    return [((-1) ** j * comb(g.n - g.k - j, g.k - j), j) for j in range(g.k + 1)]


def _multiplicity(n: int, j: int) -> int:
    """Multiplicity C(n, j) - C(n, j-1) of lambda_j."""
    return comb(n, j) - (comb(n, j - 1) if j else 0)


def determinant(g: KneserGraph) -> int:
    """det A(K(n, k)) in closed form: each lambda_j to its multiplicity."""
    det = 1
    for value, j in spectrum(g):
        det *= value ** _multiplicity(g.n, j)
    return det


class InvertibilityCertificate(Record):
    graph: KneserGraph
    determinant: int
    eigenvalues: tuple
    annihilator_vanishes: bool


def _annihilator_width(degree: int, values) -> int:
    """Packing width of prod_v (A - v I) for rows of at most ``degree`` ones."""
    return prod(degree + abs(v) for v in values).bit_length()


def _products(adjacent, width: int, values):
    """Packed rows of prod (A - v I) over each prefix of ``values``, in turn."""
    rows = [1 << (width * i) for i in range(len(adjacent))]
    for value in values:
        rows = [
            sum(rows[j] for j in columns) - value * row
            for row, columns in zip(rows, adjacent)
        ]
        yield rows


def certificate_work(g: KneserGraph) -> int:
    """Word operations of ``verify_invertible`` on g, read off binomials.

    Its r annihilator factors and r - 1 trace powers, r the number of
    distinct eigenvalues, each add V * d packed rows of at most ceil(V w / 64)
    64-bit words, w the annihilator's width.  Raises SizeLimitError past
    MAX_VERTICES, or past VERIFY_MAX_WORK, before any vertex is listed.
    """
    require_vertex_count(g, MAX_VERTICES)
    values = {v for v, _ in spectrum(g)}
    size, deg = g.vertex_count, g.degree
    words = -(-size * _annihilator_width(deg, values) // 64)
    work = (2 * len(values) - 1) * size * deg * words
    if work > VERIFY_MAX_WORK:
        raise SizeLimitError(
            f"certifying K({g.n},{g.k}) takes {work} word operations; "
            f"the budget is {VERIFY_MAX_WORK}"
        )
    return work


def verify_invertible(g: KneserGraph) -> InvertibilityCertificate:
    """Exact invertibility certificate, read from ``neighbours`` alone.

    1. Take the r distinct values v of ``spectrum``.  If prod_v (A - v I) = 0,
       the minimal polynomial of A is square-free, so A is diagonalisable and
       every eigenvalue is a v; no symmetry of the lists is assumed.
    2. Then tr(A^i) = sum_v mult_v v^i, and the traces for i < r fix the
       multiplicities by an r x r Vandermonde solve (``exact_linalg.rref``).
    3. Each mult_v must be the closed form C(n, j) - C(n, j-1), summed over
       the j with lambda_j = v, and det A = prod_v v^mult_v must be the
       closed form ``determinant``.  Any other outcome, a nonzero product
       included, is an InvariantViolationError.  ``certificate_work`` refuses
       a graph past the budget before any work.

    The factors and powers act from the left: row i of (A - v I) P is the
    sum of the rows of P at i's neighbours less v times row i.  Row i of P
    is one int, P[i][c] at bit w*c, a map linear over Z.  With d the longest
    neighbour list, no entry of a partial product exceeds B = prod_v (d + |v|),
    the factors' infinity norms.  As 2^w > B, a row whose lowest nonzero
    entry e sits at c packs to e*2^(wc) modulo 2^(w(c+1)), which is not 0: a
    packed row is 0 exactly when its entries are.  The entries of A^i lie in
    [0, d^i], so the powers pack at the bit length of d^(r-1) with no sign
    handling, and a diagonal entry is one shift and mask.
    """
    certificate_work(g)
    eigs = spectrum(g)
    expected = {}  # distinct value -> its closed-form multiplicity
    for value, j in eigs:
        expected[value] = expected.get(value, 0) + _multiplicity(g.n, j)
    values = list(expected)
    adjacent = neighbours(g)
    deg = max(map(len, adjacent))  # the lists read here, not g.degree
    for rows in _products(adjacent, _annihilator_width(deg, values), values):
        pass  # only the whole product is read, and no partial one is kept
    if any(rows):
        raise InvariantViolationError(
            f"annihilating polynomial of K({g.n},{g.k}) does not vanish"
        )
    r = len(values)
    width = (deg ** (r - 1)).bit_length()
    mask = (1 << width) - 1
    system = [[1] * r + [len(adjacent)]]  # row i: sum_v mult_v v^i = tr(A^i)
    for i, rows in enumerate(_products(adjacent, width, [0] * (r - 1)), 1):
        trace = sum(row >> (width * c) & mask for c, row in enumerate(rows))
        system.append([v**i for v in values] + [trace])
    det = 1
    for (value, want), row in zip(expected.items(), exact_linalg.rref(system)[0]):
        if row[-1] != want:
            raise InvariantViolationError(
                f"eigenvalue {value} of K({g.n},{g.k}) has multiplicity "
                f"{row[-1]}, not the closed form {want}"
            )
        det *= value**want
    if det != determinant(g):  # never 0, as ``spectrum`` took n >= 2k >= 2
        raise InvariantViolationError(
            f"adjacency of K({g.n},{g.k}) has determinant {det}, "
            f"not the closed form {determinant(g)}"
        )
    return InvertibilityCertificate(g, det, tuple(eigs), True)
