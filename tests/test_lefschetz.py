"""Lefschetz matrices: powers of the form, the golden matrix, block
structure, hard-Lefschetz verdicts."""

import inspect
import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from aacohom import lefschetz
from aacohom.ce_complex import (
    AlgebraSpec,
    Mode,
    betti_closed_form,
    cohomology_basis,
    delta_form,
    gamma_form,
    lefschetz_target_basis,
    theta_form,
)
from aacohom.errors import (
    InvalidSymplecticFormError,
    InvariantViolationError,
    NotACocycleError,
    SizeLimitError,
    StructureViolationError,
    UnsupportedModeError,
)
from aacohom.exact_linalg import det_sparse
from aacohom.exterior_algebra import (
    Form,
    Monomial,
    below_parity,
    wedge,
)
from aacohom.kneser import KneserGraph, adjacency
from aacohom.lefschetz import (
    SymplecticForm,
    check_structure,
    hard_lefschetz_report,
    lefschetz_matrix,
    omega_power,
    project_to_cohomology,
    standard_omega,
    structure,
)

from oracles import monomial_wedge, replace, wedge_monomials, whole_matrix
from test_kneser import K52_PRINTED


# ---------------------------------------------------------------------------
# powers of the standard form
# ---------------------------------------------------------------------------


def test_omega_power_top_n2():
    spec = AlgebraSpec.generic(2)
    expected = 2 * monomial_wedge(delta_form(spec), gamma_form(spec, 2))
    assert omega_power(spec, 2) == expected


def test_omega_power_zero():
    spec = AlgebraSpec.generic(4)
    assert omega_power(spec, 0) == Form.one(8)


def test_omega_power_n5_square():
    # w^2 = 2 [ delta ^ sum gamma_l + sum_{i<j} gamma_ij ]: one term per
    # 2-subset of {1..5}, so 10 monomials with coefficient +-2
    spec = AlgebraSpec.generic(5)
    power = omega_power(spec, 2)
    expected = Form.zero(10)
    for l in range(2, 6):
        expected = expected + monomial_wedge(delta_form(spec), gamma_form(spec, l))
    for i, j in combinations(range(2, 6), 2):
        expected = expected + monomial_wedge(gamma_form(spec, i), gamma_form(spec, j))
    assert power == 2 * expected
    assert len(power.terms) == 10
    assert all(abs(c) == 2 for c in power.terms.values())


def wedge_power_chain(form, top):
    """Oracle: [form^k / k! for k = 0..top] by repeated Monomial wedges."""
    chain = [Form.one(form.two_n)]
    for k in range(1, top + 1):
        chain.append(monomial_wedge(chain[-1], form) / k)
    return [power.terms for power in chain]


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("maker", [AlgebraSpec.generic, AlgebraSpec.ones])
def test_mask_chain_matches_wedge_oracle_standard_form(n, maker):
    spec = maker(n)
    form = standard_omega(spec)
    chain = lefschetz._mask_power_chain(form, n)
    assert list(chain) == wedge_power_chain(form, n)
    # the k-fold products of the n pairs, each with coefficient +-1
    for k, power in enumerate(chain):
        assert len(power) == math.comb(n, k)
        assert all(type(c) is int and abs(c) == 1 for c in power.values())


@pytest.mark.parametrize("n, seed", [(3, 0), (4, 1), (5, 2), (6, 3), (7, 4)])
def test_mask_chain_matches_wedge_oracle_user_forms(n, seed):
    spec = AlgebraSpec.ones(n)
    form = _seeded_user_form(spec, seed)
    assert any(c.denominator > 1 for c in form.terms.values())
    chain = lefschetz._mask_power_chain(form, n)
    assert list(chain) == wedge_power_chain(form, n)
    # integral coefficients come out as ints, the rest as proper Fractions
    for power in chain:
        for c in power.values():
            assert type(c) is int or c.denominator > 1


def test_mask_chain_matches_wedge_oracle_mixed_degrees():
    # int coefficients on terms of degree 0..3: odd terms do not commute,
    # and the scalar term makes form^k / k! non-integral
    rng = random.Random(8)
    for _ in range(20):
        two_n = rng.choice((4, 6))
        form = Form.zero(two_n)
        for _ in range(rng.randint(1, 5)):
            mask = sum(rng.sample([1 << i for i in range(two_n)], rng.randint(0, 3)))
            form = form + Form.from_monomial(Monomial(mask, two_n), rng.randint(-3, 3))
        top = rng.randint(1, 4)
        assert list(lefschetz._mask_power_chain(form, top)) == wedge_power_chain(
            form, top
        )


def test_mask_chain_is_cached_per_form():
    spec = AlgebraSpec.ones(4)
    omega = standard_omega(spec)
    chain = lefschetz._mask_power_chain(omega, spec.n)
    assert lefschetz._mask_power_chain(omega * 1, spec.n) is chain  # equal form
    doubled = lefschetz._mask_power_chain(2 * omega, spec.n)
    assert doubled is not chain
    assert doubled[1] == {mask: 2 * c for mask, c in chain[1].items()}
    assert doubled[spec.n] == {
        mask: 2 ** spec.n * c for mask, c in chain[spec.n].items()
    }


def test_omega_power_top_is_factorial_times_volume():
    for n in (2, 3, 4):
        spec = AlgebraSpec.generic(n)
        top = omega_power(spec, n)
        vol_product = delta_form(spec)
        for i in range(2, n + 1):
            vol_product = monomial_wedge(vol_product, gamma_form(spec, i))
        import math

        assert top == math.factorial(n) * vol_product


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_project_keeps_gamma():
    spec = AlgebraSpec.generic(3)
    g = gamma_form(spec, 2)
    assert project_to_cohomology(spec, g) == g


def test_project_drops_exact_monomial():
    spec = AlgebraSpec.generic(2)
    exact = Form.from_monomial(Monomial.from_indices((2, 4), 4))
    assert project_to_cohomology(spec, exact).is_zero


def test_project_mode_dependence():
    # theta_{2|3} ^ e^{2n} is closed in every mode, exact only when the
    # weights separate it from the cocycles
    from aacohom.ce_complex import theta_form
    from aacohom.exterior_algebra import Form as F

    ones = AlgebraSpec.ones(3)
    gen = AlgebraSpec.generic(3)
    theta_top = wedge(theta_form(ones, 2, 3), F.covector(6, 6))
    assert project_to_cohomology(ones, theta_top) == theta_top
    assert project_to_cohomology(gen, theta_top).is_zero


def test_project_zero():
    spec = AlgebraSpec.generic(2)
    assert project_to_cohomology(spec, Form.zero(4)).is_zero


def test_project_rejects_non_cocycle():
    spec = AlgebraSpec.generic(2)
    with pytest.raises(NotACocycleError):
        project_to_cohomology(spec, Form.covector(2, 4))


# ---------------------------------------------------------------------------
# the matrices
# ---------------------------------------------------------------------------


def test_golden_matrix_n5_m4():
    rows = lefschetz_matrix(AlgebraSpec.generic(5), 4).rows_as_lists()
    assert rows == K52_PRINTED
    assert all(rows[i][j] == 0 for i in range(4) for j in range(4))


def test_the_power_comes_only_from_the_mask_chain():
    # no caller hands in w^{n-m} / (n-m)! as a Form any more
    assert "power" not in inspect.signature(lefschetz_matrix).parameters
    assert "power" not in inspect.signature(
        lefschetz._operator_columns
    ).parameters
    assert not hasattr(lefschetz, "_divided_powers")
    spec = AlgebraSpec.generic(4)
    with pytest.raises(TypeError):
        lefschetz_matrix(spec, 2, power=omega_power(spec, 2) / 2)


def test_m0_is_identity():
    for spec in (AlgebraSpec.generic(4), AlgebraSpec.ones(3)):
        mat = lefschetz_matrix(spec, 0)
        assert mat.rows_as_lists() == [[1]]


def test_odd_matrix_splits_into_smaller_even():
    spec = AlgebraSpec.generic(5)
    mat = lefschetz_matrix(spec, 5)
    half = mat.size // 2
    rows = mat.rows_as_lists()
    smaller = lefschetz_matrix(AlgebraSpec.generic(4), 4).rows_as_lists()
    assert [r[:half] for r in rows[:half]] == smaller
    assert [r[half:] for r in rows[half:]] == smaller
    assert all(v == 0 for r in rows[:half] for v in r[half:])
    assert all(v == 0 for r in rows[half:] for v in r[:half])


def test_middle_matrix_even_n_is_kneser():
    # m = n with n even: the matrix is the perfect-matching adjacency
    mat = lefschetz_matrix(AlgebraSpec.generic(4), 4)
    assert mat.rows_as_lists() == adjacency(KneserGraph(4, 2))


def test_requires_hypothesis_mode():
    with pytest.raises(UnsupportedModeError):
        lefschetz_matrix(AlgebraSpec.explicit([3, 9]), 2)


def test_image_outside_target_basis_raises(monkeypatch):
    full = lefschetz._pinned_bases

    def truncated(spec, m, labelled, sides, *blocks):
        bases, walk = full(spec, m, labelled, sides, *blocks)
        bases = [
            replace(b, elements=b.elements[:-1], signs=b.signs[:-1])
            if target else b
            for b, target in zip(bases, sides)
        ]
        return bases, walk

    monkeypatch.setattr(lefschetz, "_pinned_bases", truncated)
    spec = AlgebraSpec.generic(3)
    with pytest.raises(InvariantViolationError, match="outside the cohomology"):
        lefschetz._operator_columns(spec, 2, standard_omega(spec))


def test_entry_other_than_one_raises(monkeypatch):
    monkeypatch.setattr(
        lefschetz, "standard_omega", lambda spec: 2 * standard_omega(spec)
    )
    # check_structure compares every column with its pattern of ones
    with pytest.raises(StructureViolationError) as err:
        lefschetz_matrix(AlgebraSpec.generic(3), 2)
    assert (err.value.expected, err.value.got) == (1, 2)
    # the --hl route shares the check; L_0 = (2w)^3 / 3! has entries 8
    with pytest.raises(StructureViolationError) as err:
        hard_lefschetz_report(AlgebraSpec.generic(3))
    assert (err.value.expected, err.value.got) == (1, 8)


# ---------------------------------------------------------------------------
# the monomial-product kernel against the projection route
# ---------------------------------------------------------------------------


def operator_columns_by_projection(spec, m, omega_form):
    """Oracle: wedge each basis form with the power, project the image to
    cohomology and read its terms off the target basis."""
    source = cohomology_basis(spec, m)
    target = lefschetz_target_basis(spec, m)
    power = Form.one(spec.two_n) / math.factorial(spec.n - m)
    for _ in range(spec.n - m):
        power = monomial_wedge(power, omega_form)
    rows = {
        mono.mask: (i, sign)
        for i, (mono, sign) in enumerate(zip(target.elements, target.signs))
    }
    columns = []
    for vec in source.forms():
        image = project_to_cohomology(spec, monomial_wedge(power, vec))
        column = {}
        for mono, c in image.terms.items():
            i, sign = rows[mono]
            column[i] = c * sign
        columns.append(column)
    return columns


def test_below_parity_gives_the_wedge_sign():
    rng = random.Random(5)
    for width in (4, 9, 16, 33, 70):
        for _ in range(200):
            a, b = rng.getrandbits(width), rng.getrandbits(width)
            a &= ~b
            sign, _ = wedge_monomials(Monomial(a, width), Monomial(b, width))
            parity = (a & below_parity(b, width)).bit_count() & 1
            assert sign == (-1 if parity else 1)


def _assert_kernel_matches_oracle(spec, form):
    for m in range(spec.n + 1):
        columns = lefschetz._operator_columns(spec, m, form)[2]
        assert columns == operator_columns_by_projection(spec, m, form), m


def _seeded_user_form(spec, seed, thetas=3):
    """delta, every gamma_i and a few theta_{i|j} with random rational
    coefficients, redrawn until the form is symplectic."""
    rng = random.Random(seed)
    n = spec.n
    pairs = [(i, j) for i in range(2, n + 1) for j in range(2, n + 1) if i != j]

    def coeff():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))

    while True:
        form = delta_form(spec) * coeff()
        for i in range(2, n + 1):
            form = form + gamma_form(spec, i) * coeff()
        for i, j in rng.sample(pairs, min(thetas, len(pairs))):
            form = form + theta_form(spec, i, j) * coeff()
        try:
            return SymplecticForm.validated(spec, form).form
        except InvalidSymplecticFormError:
            continue


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("maker", [AlgebraSpec.generic, AlgebraSpec.ones])
def test_kernel_matches_projection_standard_form(n, maker):
    spec = maker(n)
    _assert_kernel_matches_oracle(spec, standard_omega(spec))


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("seed", range(6))
def test_kernel_matches_projection_user_forms(n, seed):
    spec = AlgebraSpec.ones(n)
    _assert_kernel_matches_oracle(spec, _seeded_user_form(spec, seed))


@pytest.mark.parametrize("b", [(1, 2), (1, 1, 2), (1, 2, 3)])
def test_kernel_matches_projection_explicit_weights(b):
    # no block tree in explicit mode: the bases are plain weight-zero monomials
    spec = AlgebraSpec.explicit(b)
    _assert_kernel_matches_oracle(spec, standard_omega(spec))
    assert lefschetz._operator_columns(spec, 1, standard_omega(spec))[3] is None


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("maker", [AlgebraSpec.generic, AlgebraSpec.ones])
def test_kernel_drops_exact_terms(n, maker):
    # e^i ^ e^{2n} is exact for i != 1; the products it gives are dropped
    spec = maker(n)
    two_n = spec.two_n
    exact = Form.zero(two_n)
    for i, c in ((2, 3), (n, Fraction(-1, 2)), (two_n - 1, 5)):
        exact = exact + Form.from_monomial(
            Monomial.from_indices((i, two_n), two_n), c
        )
    bases = [standard_omega(spec)]
    if spec.mode is Mode.ONES:
        bases.append(_seeded_user_form(spec, 0))
    for base in bases:
        form = SymplecticForm.validated(spec, base + exact).form
        _assert_kernel_matches_oracle(spec, form)


def test_non_closed_form_raises():
    # e^1 ^ e^3 (ones n = 3) has weight (0, 1): its product with gamma_2 is
    # e^{1234}, neither a basis monomial nor exact; likewise e^2 ^ e^3 with
    # e^1 ^ gamma_4 at n = 4
    for n, pair, m in ((3, (1, 3), 2), (4, (2, 3), 3)):
        spec = AlgebraSpec.ones(n)
        form = Form.from_monomial(Monomial.from_indices(pair, spec.two_n))
        with pytest.raises(InvariantViolationError, match="outside the cohomology"):
            lefschetz._operator_columns(spec, m, form)


# ---------------------------------------------------------------------------
# size limits
# ---------------------------------------------------------------------------


def test_size_limits_admit_documented_runs():
    sizes = lefschetz.require_size(AlgebraSpec.ones(10), range(11))  # --hl
    assert sizes == [betti_closed_form(AlgebraSpec.ones(10), m) for m in range(11)]
    for n in (12, 13, 14):
        lefschetz.require_size(AlgebraSpec.generic(n), range(n + 1))
    for n in (11, 12):  # the --hl route of ones mode, one block per pattern
        lefschetz.require_size(AlgebraSpec.ones(n), range(n + 1))
    # the --m runs the whole-matrix model admitted in about 3 s
    for n, m in ((11, 7), (12, 6), (13, 5), (14, 4), (14, 5), (15, 4), (16, 4)):
        lefschetz.require_size(AlgebraSpec.ones(n), [m])
    for n, m in ((16, 7), (17, 6), (17, 7), (18, 0), (18, 5)):
        lefschetz.require_size(AlgebraSpec.generic(n), [m])
    # runs it refused, generic n = 16 `--m 11` just under the budget, and
    # the ones runs the first blocks of each pattern bring under it
    lefschetz.require_size(AlgebraSpec.generic(16), [11])
    for n, m in ((11, 9), (12, 7), (12, 12), (13, 6), (14, 6), (14, 7), (18, 5)):
        lefschetz.require_size(AlgebraSpec.ones(n), [m])
    assert lefschetz.require_size(AlgebraSpec.ones(9), [9]) == [9800]
    # the dense payloads of the pinned ones n = 7 jobs, and ones n = 8
    for n, m in ((7, 6), (7, 7), (8, 8)):
        size, = lefschetz.require_size(AlgebraSpec.ones(n), [m])
        assert size <= lefschetz.DENSE_MAX_DIMENSION
    assert lefschetz.DENSE_MAX_DIMENSION < 9800


def test_size_limits_raise():
    # the budget runs out at one L_m, and the message names only that one:
    # the --hl route at ones n = 13, the theta pass over 381625 ground
    # indices and the 913 k digits of the determinants, printed
    with pytest.raises(SizeLimitError, match="^L_11 at n = 13 brings the work "
                       "to 8597042 products"):
        lefschetz.require_size(AlgebraSpec.ones(13), range(14))
    # ones n = 16 `--m 7`: 1.0 M for the chain, 4.4 M for the theta pass
    # up to L_6 and 3.2 M for the first blocks of L_7 and its det
    with pytest.raises(SizeLimitError, match="^L_7 at n = 16 brings the work "
                       "to 8637884 products"):
        lefschetz.require_size(AlgebraSpec.ones(16), [7])
    with pytest.raises(SizeLimitError, match="^L_10 at n = 15 brings the work "
                       "to 9595638 products"):
        lefschetz.require_size(AlgebraSpec.generic(15), range(16))
    with pytest.raises(SizeLimitError, match="power chain at n = 19 alone"):
        lefschetz.require_size(AlgebraSpec.generic(19), [0])
    for spec, m in ((AlgebraSpec.ones(14), 10), (AlgebraSpec.generic(18), 16),
                    (AlgebraSpec.generic(18), 6), (AlgebraSpec.ones(17), 6)):
        with pytest.raises(SizeLimitError, match=f"^L_{m} at n = {spec.n}"):
            lefschetz.require_size(spec, [m])
    with pytest.raises(SizeLimitError):
        hard_lefschetz_report(AlgebraSpec.generic(15))
    with pytest.raises(SizeLimitError):
        lefschetz_matrix(AlgebraSpec.ones(40), 40)
    # a whole matrix only up to DENSE_MAX_DIMENSION rows, and a printed
    # block list only up to MAX_BLOCKS blocks
    with pytest.raises(SizeLimitError, match="^the dense matrix of L_9 has "
                       "9800 rows; the limit is 2450$"):
        lefschetz_matrix(AlgebraSpec.ones(9), 9)
    with pytest.raises(SizeLimitError, match="^L_10 prints 72865 blocks; "
                       "the limit is 60000$"):
        lefschetz.certified_blocks(AlgebraSpec.ones(13), 10)


def test_size_limit_refuses_a_huge_n_before_any_binomial(monkeypatch):
    def counted(*args):
        raise AssertionError("computed a Betti number past the chain's budget")

    monkeypatch.setattr(lefschetz, "betti_closed_form", counted)
    start = time.perf_counter()
    for spec in (AlgebraSpec.ones(100000), AlgebraSpec.generic(10 ** 12)):
        with pytest.raises(SizeLimitError, match="power chain"):
            hard_lefschetz_report(spec)
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# structure reports
# ---------------------------------------------------------------------------


def test_structure_case1_even():
    spec = AlgebraSpec.generic(5)
    mat = lefschetz_matrix(spec, 4)
    assert structure(mat.blocks) == "A(K(5,2))"
    assert [(b.kind, b.params) for b in mat.blocks] == [("kneser", (5, 2))]


def test_structure_case2_n3_m2():
    spec = AlgebraSpec.ones(3)
    mat = lefschetz_matrix(spec, 2)
    kinds = [(b.kind, b.size) for b in mat.blocks]
    assert kinds == [("kneser", 3), ("identity", 1), ("identity", 1)]
    assert sum(b.size for b in mat.blocks) == 5 == betti_closed_form(spec, 2)


def test_structure_case1_m1_identity_blocks():
    spec = AlgebraSpec.generic(2)
    mat = lefschetz_matrix(spec, 1)
    assert mat.rows_as_lists() == [[1, 0], [0, 1]]
    check_structure(mat)
    assert [b.kind for b in mat.blocks] == ["identity", "identity"]


def _tampered(mat, *flips):
    """A copy of ``mat`` with the entries at the (row, col) ``flips`` toggled."""
    columns = [dict(column) for column in mat.columns]
    for i, j in flips:
        if columns[j].pop(i, 0) == 0:
            columns[j][i] = 1
    return replace(mat, columns=tuple(columns))


def test_structure_violation_reports_first_entry():
    spec = AlgebraSpec.generic(3)
    mat = lefschetz_matrix(spec, 2)
    with pytest.raises(StructureViolationError) as err:
        check_structure(_tampered(mat, (0, 1)))
    assert (err.value.row, err.value.col) == (0, 1)
    # a value other than 1 on the expected row set is a mismatch too
    row = min(mat.columns[0])
    columns = ({**mat.columns[0], row: 2},) + mat.columns[1:]
    with pytest.raises(StructureViolationError) as err:
        check_structure(replace(mat, columns=columns))
    e = err.value
    assert (e.row, e.col, e.expected, e.got) == (row, 0, 1, 2)


def test_structure_violation_off_block_reports_row_major_first():
    # blocks K(3,1) + I1 + I1: both entries lie outside every block, and
    # (1, 3) comes first in row-major order although its column is later
    spec = AlgebraSpec.ones(3)
    tampered = _tampered(lefschetz_matrix(spec, 2), (4, 0), (1, 3))
    with pytest.raises(StructureViolationError) as err:
        check_structure(tampered)
    e = err.value
    assert (e.row, e.col, e.expected, e.got) == (1, 3, 0, 1)


def test_blocks_that_leave_out_the_last_raise():
    spec = AlgebraSpec.ones(3)
    mat = lefschetz_matrix(spec, 2)
    with pytest.raises(StructureViolationError) as err:
        check_structure(replace(mat, blocks=mat.blocks[:-1]))
    assert err.value.got == mat.size


def test_mutated_layout_raises():
    # blocks K(3,1) at 0, I1 at 3 and I1 at 4
    spec = AlgebraSpec.ones(3)
    mat = lefschetz_matrix(spec, 2)
    kneser, first, last = mat.blocks
    relaid = (
        replace(first, offset=0),
        replace(kneser, offset=1),
        last,
    )
    for blocks in (
        (first, kneser, last),  # two blocks swapped
        relaid,  # swapped, with the offsets laid out again
        (kneser, replace(first, offset=4), last),  # offset + 1
        (kneser, replace(first, offset=2), last),  # offset - 1
        (replace(kneser, size=2), first, last, last),
    ):
        with pytest.raises(StructureViolationError):
            check_structure(replace(mat, blocks=blocks))


def _counted_walks(monkeypatch):
    """[(m, patterns)] of every ``_block_walk`` call from here on."""
    import aacohom.ce_complex as ce

    walk = ce._block_walk
    calls = []

    def counted(spec, m, patterns=None):
        calls.append((m, patterns))
        return walk(spec, m, patterns)

    monkeypatch.setattr(ce, "_block_walk", counted)
    monkeypatch.setattr(lefschetz, "_block_walk", counted)
    return calls


def test_hl_report_walks_the_block_tree_once(monkeypatch):
    # one unrestricted walk per report, at m = 2 floor(n/2), for the thetas;
    # every other walk stops at the first block of one pattern
    calls = _counted_walks(monkeypatch)
    for n in (5, 6):
        calls.clear()
        assert hard_lefschetz_report(AlgebraSpec.ones(n)).hard_lefschetz
        assert [m for m, patterns in calls if patterns is None] == [n - n % 2]
        assert all(len(patterns) == 1 for _, patterns in calls if patterns)


def test_certified_blocks_walk_the_block_tree_once(monkeypatch):
    # --m --check-kneser checks the thetas on the one walk of L_m that it
    # lays out, odd m included
    calls = _counted_walks(monkeypatch)
    for n in (5, 6):
        for m in (4, 5):
            calls.clear()
            lefschetz.certified_blocks(AlgebraSpec.ones(n), m)
            assert [m_ for m_, patterns in calls if patterns is None] == [m]
            assert all(len(patterns) == 1 for _, patterns in calls if patterns)


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("maker", [AlgebraSpec.generic, AlgebraSpec.ones])
def test_top_even_walk_holds_every_theta_index(n, maker):
    # each (R, S, i) of every L_m's walk lies in the top even walk, the one
    # ``_check_thetas`` reads
    import aacohom.ce_complex as ce

    spec = maker(n)
    top = {(r, s, i) for _, _, r, s, ground, _ in ce._block_walk(spec, n - n % 2)
           for i in ground}
    for m in range(n + 1):
        for _, _, r, s, ground, _ in ce._block_walk(spec, m):
            assert {(r, s, i) for i in ground} <= top, (m, r, s)


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("maker", [AlgebraSpec.generic, AlgebraSpec.ones])
def test_pattern_counts_match_the_walk(n, maker):
    # the closed-form counts, ground sizes and frees of the patterns are
    # those of the full walk, in its order, and they tile H^m
    import aacohom.ce_complex as ce

    spec = maker(n)
    for m in range(n + 1):
        patterns = ce._patterns(spec, m)
        walk = list(ce._block_walk(spec, m))
        assert list(dict.fromkeys(block[:2] for block in walk)) == [
            pattern[:2] for pattern in patterns]
        walked = Counter((half, p, len(ground), free)
                         for half, p, _, _, ground, free in walk)
        assert walked == {(half, p, ground, free): count
                          for half, p, count, ground, free in patterns}
        assert sum(math.comb(len(ground), free) for *_, ground, free in walk) == sum(
            count * math.comb(ground, free) for *_, count, ground, free in patterns
        ) == betti_closed_form(spec, m)


def test_pattern_counts_that_miss_h_m_are_no_certificate(monkeypatch):
    # a count one too large at p = 1 leaves L_2 one 1x1 block over dim H^2
    import aacohom.ce_complex as ce

    theta_count = ce._theta_count

    def miscounted(n, p):
        return theta_count(n, p) + (p == 1)

    monkeypatch.setattr(ce, "_theta_count", miscounted)
    with pytest.raises(InvariantViolationError,
                       match=r"^the patterns of L_2 tile 11 rows, not dim H\^2 = 10"):
        hard_lefschetz_report(AlgebraSpec.ones(4))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("maker", [AlgebraSpec.generic, AlgebraSpec.ones])
def test_structure_and_binary_invariants(n, maker):
    spec = maker(n)
    for m in range(n + 1):
        mat = lefschetz_matrix(spec, m)
        rows = mat.rows_as_lists()
        assert len(rows) == mat.size == betti_closed_form(spec, m)
        for column in mat.columns:
            for v in column.values():
                assert v == 1
        for row in rows:
            for v in row:
                assert v in (0, 1)
        if m % 2 == 0 and m:
            # even matrices are symmetric; strict zero diagonal holds in
            # the generic case (unit weights have identity blocks)
            for i in range(mat.size):
                if spec.mode is not Mode.ONES:
                    assert rows[i][i] == 0
                for j in range(mat.size):
                    assert rows[i][j] == rows[j][i]
        check_structure(mat)
        assert sum(b.size for b in mat.blocks) == betti_closed_form(spec, m)
        assert mat.determinant() == det_sparse(mat.columns) != 0


@pytest.mark.parametrize("n", range(2, 10))
@pytest.mark.parametrize("maker", [AlgebraSpec.generic, AlgebraSpec.ones])
def test_certified_blocks_match_the_whole_matrix(n, maker):
    # the --m --check-kneser route builds no whole L_m; the verified whole
    # matrix is the oracle for its layout and det
    spec = maker(n)
    for m in range(n + 1):
        blocks, det = lefschetz.certified_blocks(spec, m)
        matrix = whole_matrix(spec, m)
        assert (blocks, det) == (matrix.blocks, matrix.determinant())


@pytest.mark.parametrize("n", range(2, 10))
@pytest.mark.parametrize("maker", [AlgebraSpec.generic, AlgebraSpec.ones])
def test_certified_determinant_matches_elimination(n, maker):
    # the report builds no whole L_m; the verified whole matrix is the oracle
    spec = maker(n)
    report = hard_lefschetz_report(spec)
    for op in report.operators:
        matrix = whole_matrix(spec, op.m)
        assert (op.size, op.determinant) == (matrix.size, matrix.determinant())
        if n <= 8:
            assert op.determinant == det_sparse(matrix.columns) != 0, op.m
    assert report.hard_lefschetz is all(op.determinant for op in report.operators)


def test_hl_report_builds_one_block_per_pattern(monkeypatch):
    # ones n = 7: 882 blocks and 2248 rows, but 30 patterns holding 199 rows
    kernel = lefschetz._operator_columns
    built = []

    def counted(spec, m, *args):
        source, target, columns, walk = kernel(spec, m, *args)
        built.extend(walk)
        return source, target, columns, walk

    monkeypatch.setattr(lefschetz, "_operator_columns", counted)
    report = hard_lefschetz_report(AlgebraSpec.ones(7))
    assert sum(op.size for op in report.operators) == 2248
    assert len(built) == 30
    assert sum(math.comb(len(ground), free) for *_, ground, free in built) == 199


@pytest.mark.parametrize("n", [4, 5, 6])
def test_corrupt_theta_data_on_a_later_block_is_no_certificate(monkeypatch, n):
    import aacohom.ce_complex as ce

    # theta_{n|n-1} is no pattern's first block, which for p = 1 is
    # theta_{2|3}, so only the theta pass sees it; it must name it
    spec = AlgebraSpec.ones(n)
    r, s = (n,), (n - 1,)
    blocks = list(ce._block_walk(spec, 2))
    at = next(i for i, b in enumerate(blocks) if b[2:4] == (r, s))
    flip = 1 << (blocks[at][4][-1] - 1)  # one end of a gamma pair of it
    theta_data = ce._theta_data

    def corrupt(spec, r_, s_):
        thetas, inversions, crossings = theta_data(spec, r_, s_)
        return thetas, inversions, crossings ^ (flip if (r_, s_) == (r, s) else 0)

    monkeypatch.setattr(ce, "_theta_data", corrupt)
    monkeypatch.setattr(lefschetz, "_theta_data", corrupt)
    i = blocks[at][4][-1]
    # m = 3 checks the theta only on the "e1" half of L_3, whose ground is
    # that of L_2 less 1
    for certify in (hard_lefschetz_report,
                    lambda spec: lefschetz.certified_blocks(spec, 2),
                    lambda spec: lefschetz.certified_blocks(spec, 3)):
        with pytest.raises(InvariantViolationError, match=(
            rf"^the signs of theta_\{{{n}\|{n - 1}\}} miss its theta parity "
            rf"on the pair of {i}$"
        )):
            certify(spec)
    # the whole-matrix route sees the flipped signs in its entries
    with pytest.raises(StructureViolationError):
        lefschetz_matrix(spec, 2)


def _flip_one_entry(monkeypatch, at_m):
    """Make the kernel toggle the entry (0, 0) of L_{at_m}, keeping 0/1 values."""
    kernel = lefschetz._operator_columns

    def flipped(spec, m, *args):
        source, target, columns, walk = kernel(spec, m, *args)
        if m == at_m:
            first = dict(columns[0])
            if first.pop(0, None) is None:
                first[0] = 1
            columns = [first] + columns[1:]
        return source, target, columns, walk

    monkeypatch.setattr(lefschetz, "_operator_columns", flipped)


@pytest.mark.parametrize("at_m", range(5))
def test_flipped_entry_is_no_certificate(monkeypatch, at_m):
    spec = AlgebraSpec.ones(4)
    _flip_one_entry(monkeypatch, at_m)
    for build in (hard_lefschetz_report, lambda s: lefschetz_matrix(s, at_m)):
        with pytest.raises(StructureViolationError) as err:
            build(spec)
        assert (err.value.row, err.value.col) == (0, 0)


def test_flipped_entry_of_a_later_pattern_is_reported_at_its_offset(monkeypatch):
    # ones n = 5, L_4: the p = 0 pattern is one K(5,2) of 10 rows, so the
    # first block of p = 1, a K(3,1), starts at row 10
    kernel = lefschetz._operator_columns

    def flipped(spec, m, omega_form, labels=False, blocks=None):
        source, target, columns, walk = kernel(spec, m, omega_form, labels, blocks)
        if m == 4 and blocks and blocks[0][1] == 1:
            first = dict(columns[0])
            if first.pop(0, None) is None:
                first[0] = 1
            columns = [first] + columns[1:]
        return source, target, columns, walk

    monkeypatch.setattr(lefschetz, "_operator_columns", flipped)
    with pytest.raises(StructureViolationError) as err:
        hard_lefschetz_report(AlgebraSpec.ones(5))
    assert (err.value.row, err.value.col) == (10, 10)


def test_hl_report_builds_no_labels(monkeypatch):
    import aacohom.ce_complex as ce

    def labelled(*args):
        raise AssertionError("built labels nobody prints")

    monkeypatch.setattr(ce, "_label", labelled)
    spec = AlgebraSpec.ones(4)
    assert hard_lefschetz_report(spec).hard_lefschetz
    assert hard_lefschetz_report(spec, _seeded_user_form(spec, 0)).hard_lefschetz
    assert lefschetz_matrix(spec, 2).row_basis.labels is None
    with pytest.raises(AssertionError, match="labels nobody prints"):
        cohomology_basis(spec, 4)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_odd_blocks_commute_with_index_shift(n):
    """Each odd diagonal block equals the even matrix one dimension down."""
    spec = AlgebraSpec.generic(n)
    for k in range((n - 1) // 2 + 1):
        m = 2 * k + 1
        if m > n:
            continue
        mat = lefschetz_matrix(spec, m).rows_as_lists()
        half = len(mat) // 2
        smaller = lefschetz_matrix(AlgebraSpec.generic(n - 1), 2 * k)
        assert [r[:half] for r in mat[:half]] == smaller.rows_as_lists()


# ---------------------------------------------------------------------------
# hard-Lefschetz verdicts
# ---------------------------------------------------------------------------


def test_hl_generic_n5():
    report = hard_lefschetz_report(AlgebraSpec.generic(5))
    assert report.hard_lefschetz
    assert len(report.operators) == 6
    assert all(op.determinant != 0 for op in report.operators)


def test_hl_ones_n3():
    assert hard_lefschetz_report(AlgebraSpec.ones(3)).hard_lefschetz


def test_hl_scaled_user_form():
    spec = AlgebraSpec.generic(2)
    base = hard_lefschetz_report(spec)
    scaled_form = SymplecticForm.validated(spec, 5 * standard_omega(spec))
    scaled = hard_lefschetz_report(spec, scaled_form)
    assert scaled.hard_lefschetz
    for op_base, op_scaled in zip(base.operators, scaled.operators):
        factor = Fraction(5) ** ((spec.n - op_base.m) * op_base.size)
        assert op_scaled.determinant == factor * op_base.determinant


def test_hl_user_form_with_exact_junk():
    # adding an exact 2-form does not change the cohomology operators
    spec = AlgebraSpec.explicit([3, 9])
    ones_like = AlgebraSpec.generic(3)
    junk = Form.from_monomial(Monomial.from_indices((2, 6), 6))  # e^2 ^ e^{2n}
    form = SymplecticForm.validated(ones_like, standard_omega(ones_like) + junk)
    report = hard_lefschetz_report(ones_like, form)
    base = hard_lefschetz_report(ones_like)
    assert [op.determinant for op in report.operators] == [
        op.determinant for op in base.operators
    ]


def test_hl_holds_for_deformed_symplectic_form():
    # the verdict is claimed for every symplectic form, not just the
    # standard one; theta-deformations stay symplectic in ones mode
    from aacohom.ce_complex import theta_form

    spec = AlgebraSpec.ones(3)
    deformed = SymplecticForm.validated(
        spec, standard_omega(spec) + theta_form(spec, 2, 3)
    )
    assert hard_lefschetz_report(spec, deformed).hard_lefschetz


def test_hl_rational_scaling():
    spec = AlgebraSpec.generic(2)
    scaled = SymplecticForm.validated(
        spec, standard_omega(spec) * Fraction(3, 2)
    )
    report = hard_lefschetz_report(spec, scaled)
    assert report.hard_lefschetz
    assert report.operators[0].determinant == Fraction(9, 4)


def test_user_form_validation():
    spec = AlgebraSpec.generic(3)
    with pytest.raises(InvalidSymplecticFormError):
        SymplecticForm.validated(spec, Form.covector(2, 6))  # not a 2-form
    with pytest.raises(InvalidSymplecticFormError):
        # theta_{2|3} has nonzero generic weight: not closed
        SymplecticForm.validated(
            spec, Form.from_monomial(Monomial.from_indices((2, spec.sigma(3)), 6))
        )
    with pytest.raises(InvalidSymplecticFormError):
        SymplecticForm.validated(spec, gamma_form(spec, 2))  # degenerate


def _closed_two_form(spec, rng):
    """a delta + sum M_ij e^i ^ e^{s(j)} plus an exact term, seeded: entries
    in {-1, 0, 1, 2}, so a = 0 and singular M occur (M diagonal if generic)."""
    n, two_n = spec.n, spec.two_n
    form = delta_form(spec) * rng.choice((0, 1, -2, Fraction(1, 3)))
    for i in range(2, n + 1):
        for j in range(2, n + 1):
            if i == j or spec.mode is Mode.ONES:
                c = rng.choice((-1, 0, 1, 1, 2))
                form = form + Form.from_monomial(
                    Monomial.from_indices((i, spec.sigma(j)), two_n), c
                )
    exact = Monomial.from_indices((rng.randint(2, two_n - 1), two_n), two_n)
    return form + Form.from_monomial(exact, rng.choice((0, 5)))


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("maker", [AlgebraSpec.generic, AlgebraSpec.ones])
def test_nondegeneracy_from_the_class_matches_the_power_chain(n, maker):
    spec = maker(n)
    rng = random.Random(n)
    verdicts = set()
    for _ in range(40):
        form = _closed_two_form(spec, rng)
        chain = bool(lefschetz._mask_power_chain(form, n)[-1])  # w^n != 0
        try:
            SymplecticForm.validated(spec, form)
            accepted = True
        except InvalidSymplecticFormError:
            accepted = False
        assert accepted == chain, form
        verdicts.add(chain)
    assert verdicts == {True, False}
    # a = 1 with M_22 = 0, and a = 0 with M = 1
    no_gamma_2 = delta_form(spec) + sum(
        (gamma_form(spec, i) for i in range(3, n + 1)), Form.zero(spec.two_n)
    )
    for form in (no_gamma_2, standard_omega(spec) - delta_form(spec)):
        assert not lefschetz._mask_power_chain(form, n)[-1]
        with pytest.raises(InvalidSymplecticFormError, match="degenerate"):
            SymplecticForm.validated(spec, form)


def test_standard_form_is_symplectic():
    for spec in (AlgebraSpec.generic(4), AlgebraSpec.ones(3)):
        sf = SymplecticForm.standard(spec)
        assert len(sf.form.terms) == spec.n


# ---------------------------------------------------------------------------
# the pull-back certificate of a user form
# ---------------------------------------------------------------------------


def _certificate_cases(spec):
    """Seeded user forms (thetas only where they are closed), one with exact
    junk added and one scaled standard form."""
    thetas = 3 if spec.mode is Mode.ONES else 0
    forms = [_seeded_user_form(spec, seed, thetas) for seed in range(6)]
    two_n = spec.two_n
    junk = Form.from_monomial(Monomial.from_indices((2, two_n), two_n), 7)
    forms.append(forms[0] + junk)  # e^2 ^ e^{2n} is exact
    forms.append(standard_omega(spec) * Fraction(-5, 3))
    return forms


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("maker", [AlgebraSpec.generic, AlgebraSpec.ones])
def test_pull_back_determinants_match_elimination(n, maker):
    spec = maker(n)
    for form in _certificate_cases(spec):
        report = hard_lefschetz_report(spec, form)
        for op in report.operators:
            columns = lefschetz._operator_columns(spec, op.m, form)[2]
            assert op.determinant == det_sparse(columns) != 0, op.m
        assert report.hard_lefschetz


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("maker", [AlgebraSpec.generic, AlgebraSpec.ones])
def test_character_counts_match_the_basis(n, maker):
    spec = maker(n)
    for p in range(spec.two_n + 1):
        elements = cohomology_basis(spec, p, labels=False).elements
        with_e1 = sum(mono.contains(1) for mono in elements)
        with_s2 = sum(mono.contains(spec.sigma(2)) for mono in elements)
        assert lefschetz._character_counts(spec, p) == (with_e1, with_s2), p


def test_certificate_rejects_phi_that_does_not_commute_with_d(monkeypatch):
    # generic weights differ, so moving M_22 to M_23 mixes e^{s(2)} with
    # e^{s(3)}: phi is then no automorphism, which the certificate finds
    # before validation could call the moved, singular M degenerate
    spec = AlgebraSpec.generic(4)
    form = SymplecticForm(_seeded_user_form(spec, 1, thetas=0))
    read = lefschetz._read_class

    def moved(spec, cls):
        a, rows = read(spec, cls)
        rows[0][1], rows[0][0] = rows[0][0], 0
        return a, rows

    monkeypatch.setattr(lefschetz, "_read_class", moved)
    with pytest.raises(InvariantViolationError, match="phi\\* and d differ"):
        hard_lefschetz_report(spec, form)


@pytest.mark.parametrize("forge", [
    lambda a, rows: (2 * a, rows),
    lambda a, rows: (a, [list(r) for r in zip(*rows)]),  # M transposed
])
def test_certificate_rejects_a_forged_reading(monkeypatch, forge):
    spec = AlgebraSpec.ones(4)
    form = _seeded_user_form(spec, 2)
    read = lefschetz._read_class
    monkeypatch.setattr(lefschetz, "_read_class",
                        lambda spec, cls: forge(*read(spec, cls)))
    with pytest.raises(InvariantViolationError, match="differs from the class"):
        hard_lefschetz_report(spec, form)


def test_certificate_rejects_a_monomial_outside_delta_and_m():
    spec = AlgebraSpec.ones(3)
    e12 = Monomial.from_indices((1, 2), spec.two_n).mask
    with pytest.raises(InvariantViolationError, match="e\\^1\\^2"):
        lefschetz._read_class(spec, {e12: 1})


def test_user_form_report_eliminates_only_m(monkeypatch):
    from aacohom import exact_linalg

    det = exact_linalg.det_sparse
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return det(rows)

    spec = AlgebraSpec.ones(5)
    form = _seeded_user_form(spec, 3)
    monkeypatch.setattr(exact_linalg, "det_sparse", counted)
    # a validated form: the certificate eliminates M, and no L_m is eliminated
    assert hard_lefschetz_report(spec, SymplecticForm(form)).hard_lefschetz
    assert calls == [spec.n - 1]
    # a bare form: validated on the way, with the one elimination of M
    assert hard_lefschetz_report(spec, form).hard_lefschetz
    assert calls == [spec.n - 1] * 2


def test_bare_user_form_is_close_checked_and_projected_once(monkeypatch):
    spec = AlgebraSpec.ones(5)
    form = _seeded_user_form(spec, 3)
    calls = []
    for name in ("is_closed", "project_to_cohomology"):
        def counted(*args, _name=name, _step=getattr(lefschetz, name)):
            calls.append(_name)
            return _step(*args)

        monkeypatch.setattr(lefschetz, name, counted)
    assert hard_lefschetz_report(spec, form).hard_lefschetz
    assert sorted(calls) == ["is_closed", "project_to_cohomology"]
    # the checks of the validation still hold on the same route, and a form
    # wrapped in a SymplecticForm without validation skips none of them
    e23 = Form.from_monomial(Monomial.from_indices((2, 3), spec.two_n))  # d != 0
    for form, reason in ((Form.covector(2, spec.two_n), "2-form"),
                         (standard_omega(spec) + e23, "not closed"),
                         (gamma_form(spec, 2), "degenerate"),
                         (delta_form(spec) + gamma_form(spec, 2), "degenerate")):
        for user_form in (form, SymplecticForm(form)):
            with pytest.raises(InvalidSymplecticFormError, match=reason):
                hard_lefschetz_report(spec, user_form)
