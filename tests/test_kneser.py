"""Kneser graphs: the printed K(5,2) matrix, spectra and invertibility."""

import pytest

from aacohom.errors import (
    InvalidParameterError,
    InvariantViolationError,
    SizeLimitError,
)
from aacohom.exact_linalg import det_bareiss
from aacohom.kneser import (
    KneserGraph,
    adjacency,
    comb_past,
    determinant,
    neighbours,
    spectrum,
    verify_invertible,
)

from oracles import dense_annihilator

K52_PRINTED = [
    [0, 0, 0, 0, 0, 0, 0, 1, 1, 1],
    [0, 0, 0, 0, 0, 1, 1, 0, 0, 1],
    [0, 0, 0, 0, 1, 0, 1, 0, 1, 0],
    [0, 0, 0, 0, 1, 1, 0, 1, 0, 0],
    [0, 0, 1, 1, 0, 0, 0, 0, 0, 1],
    [0, 1, 0, 1, 0, 0, 0, 0, 1, 0],
    [0, 1, 1, 0, 0, 0, 0, 1, 0, 0],
    [1, 0, 0, 1, 0, 0, 1, 0, 0, 0],
    [1, 0, 1, 0, 0, 1, 0, 0, 0, 0],
    [1, 1, 0, 0, 1, 0, 0, 0, 0, 0],
]


def test_k52_matches_printed_matrix():
    g = KneserGraph(5, 2)
    assert adjacency(g) == K52_PRINTED
    assert g.vertices == [
        (1, 2), (1, 3), (1, 4), (1, 5), (2, 3),
        (2, 4), (2, 5), (3, 4), (3, 5), (4, 5),
    ]


def test_k21_swap_matrix():
    assert adjacency(KneserGraph(2, 1)) == [[0, 1], [1, 0]]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_kn1_is_complete_graph(n):
    a = adjacency(KneserGraph(n, 1))
    assert a == [[0 if i == j else 1 for j in range(n)] for i in range(n)]


def _dense_lists(g):
    """Neighbour lists read off the dense adjacency, not ``neighbours``."""
    return [[j for j, v in enumerate(row) if v] for row in adjacency(g)]


@pytest.mark.parametrize("n", range(1, 11))
def test_neighbours_are_the_ones_of_adjacency(n):
    # every k, so k = 0 (one vertex, no loop) and the edgeless n < 2k too
    for k in range(n + 1):
        g = KneserGraph(n, k)
        assert neighbours(g) == _dense_lists(g), (n, k)


def test_kn0_single_vertex_convention():
    g = KneserGraph(4, 0)
    assert g.vertices == [()]
    assert adjacency(g) == [[0]]
    with pytest.raises(InvalidParameterError):
        spectrum(g)


def test_spectrum_examples():
    assert [v for v, _ in spectrum(KneserGraph(5, 2))] == [3, -2, 1]
    assert [v for v, _ in spectrum(KneserGraph(7, 1))] == [6, -1]
    assert [v for v, _ in spectrum(KneserGraph(4, 2))] == [1, -1, 1]


def test_spectrum_rejects_sparse_side():
    with pytest.raises(InvalidParameterError):
        spectrum(KneserGraph(3, 2))


def test_verify_invertible_examples():
    cert = verify_invertible(KneserGraph(5, 2))
    assert cert.determinant != 0
    assert cert.annihilator_vanishes

    assert verify_invertible(KneserGraph(2, 1)).determinant == -1
    assert verify_invertible(KneserGraph(6, 3)).determinant != 0


@pytest.mark.parametrize("n", range(2, 11))
def test_closed_form_determinant_matches_elimination(n):
    for k in range(1, n // 2 + 1):
        g = KneserGraph(n, k)
        assert determinant(g) == det_bareiss(adjacency(g)), (n, k)


def test_closed_form_examples():
    # K(5,2) is the Petersen graph: 3^1 (-2)^4 1^5 = 48
    assert determinant(KneserGraph(5, 2)) == 48
    assert determinant(KneserGraph(2, 1)) == -1
    assert determinant(KneserGraph(7, 1)) == 6 * (-1) ** 6
    with pytest.raises(InvalidParameterError):
        determinant(KneserGraph(3, 2))


def test_certificate_cross_checks_the_closed_form(monkeypatch):
    import aacohom.kneser as kn

    monkeypatch.setattr(kn, "determinant", lambda g: 47)
    with pytest.raises(InvariantViolationError, match="not the closed form 47"):
        kn.verify_invertible(KneserGraph(5, 2))


def test_empty_graph_rejected():
    # no disjoint pairs at all: outside the spectral theorem's range
    with pytest.raises(InvalidParameterError):
        verify_invertible(KneserGraph(3, 2))
    assert adjacency(KneserGraph(3, 2)) == [[0, 0, 0]] * 3


def test_size_limits_checked_before_enumeration(monkeypatch):
    import aacohom.kneser as kn

    def enumerated(g):
        raise AssertionError("enumerated a graph above the limit")

    monkeypatch.setattr(kn, "adjacency", enumerated)
    monkeypatch.setattr(kn, "neighbours", enumerated)
    # K(17, 3), 680 vertices, is the first graph that the work count refuses:
    # every K(n, k) with n < 17 and at most 924 vertices is admitted
    for n in range(2, 17):
        for k in range(1, n // 2 + 1):
            if comb_past(n, k, kn.MAX_VERTICES) <= kn.MAX_VERTICES:
                assert kn.certificate_work(KneserGraph(n, k)) <= kn.VERIFY_MAX_WORK
    assert kn.certificate_work(KneserGraph(16, 3)) == 334093760
    big = KneserGraph(17, 3)
    assert big.vertex_count == 680
    with pytest.raises(SizeLimitError, match="takes 663601120 word operations"):
        kn.verify_invertible(big)
    kn.require_vertex_count(KneserGraph(12, 6), kn.MAX_VERTICES)
    with pytest.raises(SizeLimitError, match="more than 924 vertices"):
        kn.require_vertex_count(KneserGraph(13, 6), kn.MAX_VERTICES)
    with pytest.raises(SizeLimitError, match="more than 924 vertices"):
        kn.verify_invertible(KneserGraph(13, 6))


def test_zero_determinant_violation(monkeypatch):
    import aacohom.kneser as kn

    # the certificate reads A from the neighbour lists: two isolated vertices
    monkeypatch.setattr(kn, "neighbours", lambda g: [[], []])
    with pytest.raises(InvariantViolationError):
        kn.verify_invertible(KneserGraph(2, 1))


def test_wrong_spectrum_fails_the_annihilator(monkeypatch):
    import aacohom.kneser as kn

    # K(5,2) has eigenvalues 3, -2, 1; with 2 for 1 the product cannot vanish
    monkeypatch.setattr(kn, "spectrum", lambda g: [(3, 0), (-2, 1), (2, 2)])
    monkeypatch.setattr(kn, "determinant", lambda g: 48)
    with pytest.raises(InvariantViolationError, match="does not vanish"):
        kn.verify_invertible(KneserGraph(5, 2))


def test_packed_annihilator_matches_the_dense_oracle():
    # every K(n, k), k >= 1, n >= 2k, with at most 252 vertices, except the
    # complete graphs K(n, 1) for 22 < n < 252: the dense product costs n^3
    # each, 21 s for all of them.  Elimination is checked by the tests above.
    graphs = [
        KneserGraph(n, k)
        for k in range(1, 6)
        for n in range(2 * k, 23 if k == 1 else 253)
        if comb_past(n, k, 252) <= 252
    ]
    graphs.append(KneserGraph(252, 1))
    assert len(graphs) == 52
    for g in graphs:
        values = {v for v, _ in spectrum(g)}  # the square-free product
        assert not any(map(any, dense_annihilator(_dense_lists(g), values)))
        assert verify_invertible(g).annihilator_vanishes, (g.n, g.k)


@pytest.mark.parametrize("n", range(2, 9))
def test_shifted_eigenvalue_fails_packed_and_dense(n, monkeypatch):
    import aacohom.kneser as kn

    # prod_j (A - mu_j I) vanishes exactly when every eigenvalue of A is a
    # mu_j, as A is diagonalisable and each lambda_j has a positive
    # multiplicity.  K(2k, k) repeats a lambda_j, so moving one copy of it
    # leaves a product that still vanishes, and the certificate fails on the
    # multiplicities; moving a lone lambda_j, even onto another one, leaves a
    # product that does not vanish.
    graphs = [KneserGraph(n, k) for k in range(1, n // 2 + 1)]
    cases = [(g, spectrum(g), determinant(g)) for g in graphs]
    for g, eigs, det in cases:
        lists = _dense_lists(g)
        monkeypatch.setattr(kn, "determinant", lambda g, d=det: d)
        for j in range(len(eigs)):
            for step in (1, -1):
                shifted = [(v + step * (i == j), i) for v, i in eigs]
                values = [v for v, _ in shifted]
                vanishes = {v for v, _ in eigs} <= set(values)
                dense = dense_annihilator(lists, values)
                assert (not any(map(any, dense))) == vanishes, (g, j, step)
                monkeypatch.setattr(kn, "spectrum", lambda g, s=shifted: s)
                reason = "multiplicity" if vanishes else "does not vanish"
                with pytest.raises(InvariantViolationError, match=reason):
                    kn.verify_invertible(g)


def test_moved_copy_of_a_repeated_eigenvalue_fails_on_its_multiplicity(monkeypatch):
    import aacohom.kneser as kn

    # K(4, 2) is a perfect matching on 6 vertices: 1 and -1, three times each.
    # Moving lambda_0 = 1 to 2 keeps every eigenvalue in {2, -1, 1}, so the
    # annihilator vanishes, but 2 is no eigenvalue, while its closed form is 1
    lists = _dense_lists(KneserGraph(4, 2))
    assert lists == [[5], [4], [3], [2], [1], [0]]
    assert not any(map(any, dense_annihilator(lists, [2, -1, 1])))
    assert det_bareiss(adjacency(KneserGraph(4, 2))) == -1
    monkeypatch.setattr(kn, "spectrum", lambda g: [(2, 0), (-1, 1), (1, 2)])
    monkeypatch.setattr(kn, "determinant", lambda g: -1)
    with pytest.raises(
        InvariantViolationError,
        match=r"eigenvalue 2 of K\(4,2\) has multiplicity 0, not the closed form 1",
    ):
        kn.verify_invertible(KneserGraph(4, 2))


def test_shifted_lone_eigenvalue_fails_the_annihilator(monkeypatch):
    import aacohom.kneser as kn

    # K(6, 2) has eigenvalues 6, -3, 1, each lone; -3 shifted to -2 leaves the
    # eigenvalue -3 outside {6, -2, 1}, whatever the determinant
    g = KneserGraph(6, 2)
    assert [v for v, _ in spectrum(g)] == [6, -3, 1]
    assert any(map(any, dense_annihilator(_dense_lists(g), [6, -2, 1])))
    det = det_bareiss(adjacency(g))
    monkeypatch.setattr(kn, "spectrum", lambda g: [(6, 0), (-2, 1), (1, 2)])
    monkeypatch.setattr(kn, "determinant", lambda g: det)
    with pytest.raises(InvariantViolationError, match="does not vanish"):
        kn.verify_invertible(g)


def test_non_diagonalisable_lists_fail_the_square_free_annihilator(monkeypatch):
    import aacohom.kneser as kn

    # A = [[1, 1], [0, 1]] is a Jordan block: (A - I)^2 = 0 but A - I != 0.
    # Its trace 2 and det 1 match the one value 1 taken twice, so only the
    # square-free product refuses it
    lists = [[0, 1], [1]]
    assert dense_annihilator(lists, [1]) == [[0, 1], [0, 0]]
    assert dense_annihilator(lists, [1, 1]) == [[0, 0], [0, 0]]
    assert det_bareiss([[1, 1], [0, 1]]) == 1
    monkeypatch.setattr(kn, "neighbours", lambda g: lists)
    monkeypatch.setattr(kn, "spectrum", lambda g: [(1, 0), (1, 1)])
    monkeypatch.setattr(kn, "determinant", lambda g: 1)
    with pytest.raises(InvariantViolationError, match="does not vanish"):
        kn.verify_invertible(KneserGraph(2, 1))


@pytest.mark.parametrize("e", [1, 2, 5, 16])
def test_trace_rows_do_not_carry_into_the_diagonal(e, monkeypatch):
    import aacohom.kneser as kn

    # each vertex is joined 2^e times to the other: A = [[0, 2^e], [2^e, 0]],
    # with eigenvalues 2^e and -2^e once each and det -4^e.  Row 1 of A holds
    # 2^e at column 0, which a width of e bits would carry into its diagonal
    lists = [[1] * 2**e, [0] * 2**e]
    a = [[0, 2**e], [2**e, 0]]
    assert not any(map(any, dense_annihilator(lists, [2**e, -(2**e)])))
    monkeypatch.setattr(kn, "neighbours", lambda g: lists)
    monkeypatch.setattr(kn, "spectrum", lambda g: [(2**e, 0), (-(2**e), 1)])
    monkeypatch.setattr(kn, "determinant", lambda g: det_bareiss(a))
    assert kn.verify_invertible(KneserGraph(2, 1)).determinant == -(4**e)


def test_verify_eliminates_nothing_on_a(monkeypatch):
    import aacohom.exact_linalg as el

    def eliminated(*args):
        raise AssertionError("eliminated on the adjacency matrix")

    for name in ("det_bareiss", "det_sparse", "rank"):
        monkeypatch.setattr(el, name, eliminated)
    rref, solved = el.rref, []

    def recorded(matrix):
        solved.append((len(matrix), len(matrix[0])))
        return rref(matrix)

    monkeypatch.setattr(el, "rref", recorded)
    # K(11, 4) has 330 vertices and 5 distinct eigenvalues; K(12, 6) has 2
    assert verify_invertible(KneserGraph(11, 4)).determinant == determinant(
        KneserGraph(11, 4)
    )
    verify_invertible(KneserGraph(12, 6))
    assert solved == [(5, 6), (2, 3)]


@pytest.mark.parametrize("e", range(17))
def test_packed_rows_do_not_carry_into_zero(e, monkeypatch):
    import aacohom.kneser as kn

    # vertex 0 has a loop and vertex 1 is joined 2^e times to vertex 0, so
    # with the one eigenvalue 1 the product is [[0, 0], [2^e, -1]]: its row
    # 1 packs to 0 at width e, and only the longest list, not a degree of
    # 1, puts the width past it
    lists = [[0], [0] * 2**e]
    monkeypatch.setattr(kn, "neighbours", lambda g: lists)
    monkeypatch.setattr(kn, "spectrum", lambda g: [(1, 0)])
    monkeypatch.setattr(kn, "determinant", lambda g: 0)  # of [[1, 0], [1, 0]]
    assert dense_annihilator(lists, [1]) == [[0, 0], [2**e, -1]]
    with pytest.raises(InvariantViolationError, match="does not vanish"):
        kn.verify_invertible(KneserGraph(2, 1))


@pytest.mark.parametrize("n", range(2, 9))
def test_invariants_up_to_n8(n):
    for k in range(1, n // 2 + 1):
        g = KneserGraph(n, k)
        a = adjacency(g)
        size = len(a)
        assert size == g.vertex_count
        for i in range(size):
            assert a[i][i] == 0
            assert sum(a[i]) == g.degree
            for j in range(size):
                assert a[i][j] == a[j][i]
        cert = verify_invertible(g)  # exact det != 0 and annihilator == 0
        assert cert.determinant == det_bareiss(a)
        assert all(v != 0 for v, _ in cert.eigenvalues)


def test_comb_past_is_exact_up_to_its_limit():
    from math import comb

    from aacohom.kneser import comb_past

    for n in range(0, 14):
        for k in range(-1, n + 2):
            exact = comb(n, k) if k >= 0 else 0
            got = comb_past(n, k, 100)
            assert got == exact if exact <= 100 else got > 100, (n, k)
    # stops at C(n, 2), far below C(10**6, 5 * 10**5)
    assert comb_past(10**6, 5 * 10**5, 1000) < 10**12
