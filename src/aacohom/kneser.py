"""Kneser graphs K(n, k): vertices, adjacency matrices and exact spectra.

Vertices are the k-subsets of {1, ..., n} in lexicographic order; two
vertices are adjacent iff the subsets are disjoint.  The eigenvalues are
the integers lambda_j = (-1)^j C(n-k-j, k-j) for 0 <= j <= k, all nonzero
when n >= 2k, which is what makes these graphs invertible; lambda_j has
multiplicity C(n, j) - C(n, j-1), so det A(K(n, k)) is their product
(Lovasz 1979; Godsil-Royle, Algebraic Graph Theory, section 9.4).
"""

from itertools import combinations
from math import comb

from . import exact_linalg
from .errors import (
    InvalidParameterError,
    InvariantViolationError,
    Record,
    SizeLimitError,
)

# Vertex-count limits, from one run each of the whole CLI call with the
# limits lifted, on 2 CPUs (Python 3.11.7).  The CLI lists every vertex and
# by default the adjacency matrix, rendered from the neighbour lists:
# K(12,6) (924 vertices, 9 MB of JSON) takes 0.3 s and 40 MB, K(13,6)
# (1716) 0.5 s and 85 MB, K(14,7) (3432, 130 MB of JSON) 1.0 s and 271 MB.
# verify_invertible eliminates the dense adjacency and applies the
# annihilator through the neighbour lists: K(10,5) (252) takes 0.4 s,
# K(11,4) (330) 2.9 s and K(11,5) (462) 2.7 s, four fifths of it elimination.
MAX_VERTICES = 924
VERIFY_MAX_VERTICES = 252


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


def determinant(g: KneserGraph) -> int:
    """det A(K(n, k)) in closed form: each lambda_j to the C(n,j) - C(n,j-1)."""
    det = 1
    for value, j in spectrum(g):
        det *= value ** (comb(g.n, j) - (comb(g.n, j - 1) if j else 0))
    return det


class InvertibilityCertificate(Record):
    graph: KneserGraph
    determinant: int
    eigenvalues: tuple
    annihilator_vanishes: bool


def verify_invertible(g: KneserGraph) -> InvertibilityCertificate:
    """Exact invertibility certificate.

    Reads A from ``neighbours``, computes det(A) by fraction-free
    elimination of its dense rows, checks it against the closed form
    ``determinant`` and checks, through the neighbour lists, that the
    annihilating polynomial prod_j (A - lambda_j I) vanishes.  A zero
    determinant or one other than the closed form would contradict the
    spectral description and is reported as an invariant violation.  Graphs
    above VERIFY_MAX_VERTICES raise SizeLimitError before any work.
    """
    require_vertex_count(g, VERIFY_MAX_VERTICES)
    eigs = spectrum(g)
    adjacent = neighbours(g)
    size = len(adjacent)
    a = [[0] * size for _ in range(size)]
    for row, columns in zip(a, adjacent):
        for j in columns:
            row[j] = 1
    det = exact_linalg.det_bareiss(a)
    if det != determinant(g):  # never 0, as ``spectrum`` took n >= 2k >= 2
        raise InvariantViolationError(
            f"adjacency of K({g.n},{g.k}) has determinant {det}, "
            f"not the closed form {determinant(g)}"
        )
    # the factors are polynomials in A, so they commute and each can act from
    # the left: row i of (A - lambda I) P is the sum of the rows of P at i's
    # neighbours less lambda times row i (zipped with row i first, so that
    # an isolated vertex keeps its row)
    product = [[int(i == j) for j in range(size)] for i in range(size)]
    for value, _ in eigs:
        shift = value + 1
        product = [
            [
                sum(cells) - shift * cells[0]
                for cells in zip(row, *[product[j] for j in columns])
            ]
            for row, columns in zip(product, adjacent)
        ]
    vanishes = not any(map(any, product))
    if not vanishes:
        raise InvariantViolationError(
            f"annihilating polynomial of K({g.n},{g.k}) does not vanish"
        )
    return InvertibilityCertificate(g, det, tuple(eigs), vanishes)
