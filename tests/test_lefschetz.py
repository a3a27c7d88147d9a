"""Lefschetz matrices: powers of the form, the golden matrix, block
structure, hard-Lefschetz verdicts."""

import dataclasses
from fractions import Fraction
from itertools import combinations

import pytest

from aacohom import lefschetz
from aacohom.ce_complex import (
    AlgebraSpec,
    Mode,
    betti_closed_form,
    delta_form,
    gamma_form,
)
from aacohom.errors import (
    InvalidSymplecticFormError,
    InvariantViolationError,
    NotACocycleError,
    StructureViolationError,
    UnsupportedModeError,
)
from aacohom.exterior_algebra import Form, Monomial, wedge
from aacohom.kneser import KneserGraph, adjacency
from aacohom.lefschetz import (
    LefschetzMatrix,
    SymplecticForm,
    check_structure,
    hard_lefschetz_report,
    lefschetz_matrix,
    omega_power,
    project_to_cohomology,
    standard_omega,
)

from test_kneser import K52_PRINTED


# ---------------------------------------------------------------------------
# powers of the standard form
# ---------------------------------------------------------------------------


def test_omega_power_top_n2():
    spec = AlgebraSpec.generic(2)
    expected = 2 * wedge(delta_form(spec), gamma_form(spec, 2))
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
        expected = expected + wedge(delta_form(spec), gamma_form(spec, l))
    for i, j in combinations(range(2, 6), 2):
        expected = expected + wedge(gamma_form(spec, i), gamma_form(spec, j))
    assert power == 2 * expected
    assert len(power.terms) == 10
    assert all(abs(c) == 2 for c in power.terms.values())


def test_omega_power_top_is_factorial_times_volume():
    for n in (2, 3, 4):
        spec = AlgebraSpec.generic(n)
        top = omega_power(spec, n)
        vol_product = delta_form(spec)
        for i in range(2, n + 1):
            vol_product = wedge(vol_product, gamma_form(spec, i))
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
    mat = lefschetz_matrix(AlgebraSpec.generic(5), 4)
    assert mat.rows_as_lists() == K52_PRINTED
    assert all(mat.entries[i][j] == 0 for i in range(4) for j in range(4))


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
    full = lefschetz.lefschetz_target_basis

    def truncated(spec, m):
        basis = full(spec, m)
        return dataclasses.replace(
            basis,
            elements=basis.elements[:-1],
            labels=basis.labels[:-1],
            signs=basis.signs[:-1],
        )

    monkeypatch.setattr(lefschetz, "lefschetz_target_basis", truncated)
    spec = AlgebraSpec.generic(3)
    with pytest.raises(InvariantViolationError, match="outside the cohomology"):
        lefschetz._operator_columns(spec, 2, standard_omega(spec))


def test_entry_other_than_one_raises(monkeypatch):
    monkeypatch.setattr(
        lefschetz, "standard_omega", lambda spec: 2 * standard_omega(spec)
    )
    with pytest.raises(InvariantViolationError, match="entry 2 outside"):
        lefschetz_matrix(AlgebraSpec.generic(3), 2)


# ---------------------------------------------------------------------------
# structure reports
# ---------------------------------------------------------------------------


def test_structure_case1_even():
    spec = AlgebraSpec.generic(5)
    report = check_structure(spec, lefschetz_matrix(spec, 4))
    assert report.case == "I"
    assert [(b.kind, b.params) for b in report.blocks] == [("kneser", (5, 2))]


def test_structure_case2_n3_m2():
    spec = AlgebraSpec.ones(3)
    report = check_structure(spec, lefschetz_matrix(spec, 2))
    kinds = [(b.kind, b.size) for b in report.blocks]
    assert kinds == [("kneser", 3), ("identity", 1), ("identity", 1)]
    assert report.total_size == 5 == betti_closed_form(spec, 2)


def test_structure_case1_m1_identity_blocks():
    spec = AlgebraSpec.generic(2)
    mat = lefschetz_matrix(spec, 1)
    assert mat.rows_as_lists() == [[1, 0], [0, 1]]
    report = check_structure(spec, mat)
    assert [b.kind for b in report.blocks] == ["identity", "identity"]


def test_structure_violation_reports_first_entry():
    spec = AlgebraSpec.generic(3)
    mat = lefschetz_matrix(spec, 2)
    rows = [list(r) for r in mat.entries]
    rows[0][1] ^= 1
    tampered = LefschetzMatrix(
        mat.n, mat.m, tuple(tuple(r) for r in rows), mat.row_basis, mat.col_basis
    )
    with pytest.raises(StructureViolationError) as err:
        check_structure(spec, tampered)
    assert (err.value.row, err.value.col) == (0, 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("maker", [AlgebraSpec.generic, AlgebraSpec.ones])
def test_structure_and_binary_invariants(n, maker):
    spec = maker(n)
    for m in range(n + 1):
        mat = lefschetz_matrix(spec, m)
        assert len(mat.entries) == betti_closed_form(spec, m)
        for row in mat.entries:
            for v in row:
                assert v in (0, 1)
        if m % 2 == 0 and m:
            # even matrices are symmetric; strict zero diagonal holds in
            # the generic case (unit weights have identity blocks)
            for i in range(mat.size):
                if spec.mode is not Mode.ONES:
                    assert mat.entries[i][i] == 0
                for j in range(mat.size):
                    assert mat.entries[i][j] == mat.entries[j][i]
        report = check_structure(spec, mat)
        assert report.total_size == betti_closed_form(spec, m)
        assert mat.determinant() != 0


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


def test_standard_form_is_symplectic():
    for spec in (AlgebraSpec.generic(4), AlgebraSpec.ones(3)):
        sf = SymplecticForm.standard(spec)
        assert sf.closed and sf.nondegenerate
        assert len(sf.form.terms) == spec.n
