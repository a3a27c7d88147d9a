"""Star operator, d^c, the sl(2) triple, harmonic forms and the dd^c lemma."""

import math
import random
from fractions import Fraction

import pytest

from aacohom import exact_linalg
from aacohom.ce_complex import (
    AlgebraSpec,
    cohomology_basis,
    differential,
    gamma_form,
    is_closed,
)
from aacohom.errors import (
    NotACocycleError,
    SizeLimitError,
    UnsupportedModeError,
)
from aacohom.exterior_algebra import Form, all_monomials, wedge
from aacohom.lefschetz import hard_lefschetz_report, omega_power
from aacohom.symplectic_hodge import (
    _star_columns,
    dc,
    dc_as_commutator,
    ddc_lemma_check,
    harmonic_representative,
    lambda_and_h,
    lefschetz_l,
    omega_inverse,
    operator_matrix,
    star,
)

EXPLICIT = {
    2: AlgebraSpec.explicit([3]),
    3: AlgebraSpec.explicit([3, 9]),
}


def volume(spec):
    return omega_power(spec, spec.n) / math.factorial(spec.n)


def test_star_of_unit_is_volume():
    for n in (2, 3):
        spec = EXPLICIT[n]
        assert star(spec, Form.one(spec.two_n)) == volume(spec)


def test_star_of_volume_is_unit():
    for n in (2, 3):
        spec = EXPLICIT[n]
        assert star(spec, volume(spec)) == Form.one(spec.two_n)


@pytest.mark.parametrize("n", [2, 3])
def test_star_involution_exhaustive(n):
    spec = EXPLICIT[n]
    for degree in range(spec.two_n + 1):
        for m in all_monomials(spec.two_n, degree):
            f = Form.from_monomial(m)
            assert star(spec, star(spec, f)) == f


def test_star_involution_n4():
    # star never touches the weights, so a generic spec is fine here
    spec = AlgebraSpec.generic(4)
    for degree in range(9):
        for m in all_monomials(8, degree):
            f = Form.from_monomial(m)
            assert star(spec, star(spec, f)) == f


def test_star_involution_random_forms():
    spec = EXPLICIT[3]
    rng = random.Random(23)
    pool = [m for k in range(7) for m in all_monomials(6, k)]
    for _ in range(25):
        f = Form(
            {m: Fraction(rng.randint(-5, 5)) for m in rng.sample(pool, 5)}, 6
        )
        assert star(spec, star(spec, f)) == f


@pytest.mark.parametrize("n", [2, 3, 4])
def test_star_defining_identity(n):
    """alpha ^ star(beta) = w^{-1}(alpha, beta) vol on monomial pairs.

    The identity has exactly one solution, so this is the oracle for the
    closed-form star.  Star ignores the weights: n = 4 uses a generic spec.
    """
    spec = EXPLICIT.get(n) or AlgebraSpec.generic(n)
    vol = volume(spec)
    for degree in range(spec.two_n + 1):
        columns = _star_columns(spec.two_n, degree)
        assert all(
            type(v) is int for col in columns.values() for v in col.values()
        )
        monos = all_monomials(spec.two_n, degree)
        for beta in monos:
            star_beta = star(spec, Form.from_monomial(beta))
            for alpha in monos:
                lhs = wedge(Form.from_monomial(alpha), star_beta)
                rhs = omega_inverse(alpha, beta) * vol
                assert lhs == rhs


def test_dc_on_scalars_vanishes():
    spec = EXPLICIT[2]
    assert dc(spec, Form.one(4)).is_zero


def test_dc_drops_degree_by_one():
    spec = EXPLICIT[3]
    for degree in range(1, 7):
        for m in all_monomials(6, degree):
            image = dc(spec, Form.from_monomial(m))
            assert image.degrees() <= {degree - 1}


@pytest.mark.parametrize("n", [2, 3])
def test_dc_identities_as_matrices(n):
    spec = EXPLICIT[n]
    two_n = spec.two_n
    for k in range(two_n + 1):
        dc_k = operator_matrix(spec, lambda f: dc(spec, f), k, max(k - 1, 0))
        comm_k = operator_matrix(
            spec, lambda f: dc_as_commutator(spec, f), k, max(k - 1, 0)
        )
        assert dc_k == comm_k
        if k >= 2:
            dcdc = operator_matrix(
                spec, lambda f: dc(spec, dc(spec, f)), k, k - 2
            )
            assert all(v == 0 for row in dcdc.entries for v in row)
        anti = operator_matrix(
            spec,
            lambda f: differential(spec, dc(spec, f))
            + dc(spec, differential(spec, f)),
            k,
            k,
        )
        assert all(v == 0 for row in anti.entries for v in row)


def test_dc_requires_numeric_mode():
    with pytest.raises(UnsupportedModeError):
        dc(AlgebraSpec.generic(2), Form.one(4))


def test_lambda_and_h_degree_bookkeeping():
    spec = EXPLICIT[3]
    lam, _ = lambda_and_h(spec, Form.one(6))
    assert lam.is_zero
    omega = omega_power(spec, 1)
    lam_o, h_o = lambda_and_h(spec, omega)
    assert h_o.degrees() <= {2}
    # H via explicit matrix composition agrees with the direct definition
    for k in range(7):
        h_direct = operator_matrix(
            spec, lambda f: lambda_and_h(spec, f)[1], k, k
        )
        l_in = operator_matrix(spec, lambda f: lefschetz_l(spec, f), k, min(k + 2, 6)) \
            if k + 2 <= 6 else None
        lam_k = operator_matrix(
            spec, lambda f: lambda_and_h(spec, f)[0], k, max(k - 2, 0)
        )
        # [L, Lambda] = L o Lambda - Lambda o L from the separate matrices
        composed = [[Fraction(0)] * len(h_direct.entries[0])
                    for _ in h_direct.entries]
        if k >= 2:
            l_down = operator_matrix(
                spec, lambda f: lefschetz_l(spec, f), k - 2, k
            )
            first = exact_linalg.matmul_int(
                [list(r) for r in l_down.entries], [list(r) for r in lam_k.entries]
            )
            for i in range(len(composed)):
                for j in range(len(composed[0])):
                    composed[i][j] += first[i][j]
        if k + 2 <= 6:
            lam_up = operator_matrix(
                spec, lambda f: lambda_and_h(spec, f)[0], k + 2, k
            )
            second = exact_linalg.matmul_int(
                [list(r) for r in lam_up.entries], [list(r) for r in l_in.entries]
            )
            for i in range(len(composed)):
                for j in range(len(composed[0])):
                    composed[i][j] -= second[i][j]
        assert tuple(tuple(r) for r in composed) == h_direct.entries


# ---------------------------------------------------------------------------
# harmonic representatives
# ---------------------------------------------------------------------------


def test_harmonic_scalar_class():
    spec = EXPLICIT[2]
    one = Form.one(4)
    assert harmonic_representative(spec, one) == one


def test_harmonic_gamma_class_ones_n2():
    spec = AlgebraSpec.ones(2)
    g2 = gamma_form(spec, 2)
    rep = harmonic_representative(spec, g2)
    assert is_closed(spec, rep)
    assert dc(spec, rep).is_zero
    # rep - g2 must be exact: solvable d x = rep - g2
    diff = rep - g2
    monos3 = all_monomials(4, 2)
    sources = all_monomials(4, 1)
    d_matrix = operator_matrix(spec, lambda f: differential(spec, f), 1, 2)
    rhs = [diff.terms.get(m, Fraction(0)) for m in monos3]
    x = exact_linalg.solve_particular([list(r) for r in d_matrix.entries], rhs)
    assert x is not None


def test_harmonic_top_class():
    spec = EXPLICIT[3]
    top = volume(spec)
    rep = harmonic_representative(spec, top)
    assert is_closed(spec, rep) and dc(spec, rep).is_zero


@pytest.mark.parametrize("n", [2, 3])
def test_every_basis_class_has_harmonic_representative(n):
    spec = EXPLICIT[n]
    for k in range(spec.two_n + 1):
        for vec in cohomology_basis(spec, k).forms():
            rep = harmonic_representative(spec, vec)
            assert is_closed(spec, rep)
            assert dc(spec, rep).is_zero


def test_harmonic_rejects_non_cocycle():
    spec = EXPLICIT[2]
    with pytest.raises(NotACocycleError):
        harmonic_representative(spec, Form.covector(2, 4))


# ---------------------------------------------------------------------------
# the dd^c lemma
# ---------------------------------------------------------------------------


def test_ddc_lemma_ones_n2_all_degrees():
    spec = AlgebraSpec.ones(2)
    assert all(ddc_lemma_check(spec, k) for k in range(5))


def test_ddc_lemma_explicit_n3_all_degrees():
    spec = EXPLICIT[3]
    assert all(ddc_lemma_check(spec, k) for k in range(7))


def test_ddc_degree_zero_vacuous():
    assert ddc_lemma_check(EXPLICIT[2], 0)


def test_ddc_size_guard():
    with pytest.raises(SizeLimitError):
        ddc_lemma_check(AlgebraSpec.ones(5), 2)


def test_ddc_requires_numeric():
    with pytest.raises(UnsupportedModeError):
        ddc_lemma_check(AlgebraSpec.generic(2), 1)


@pytest.mark.parametrize("n", [2, 3])
def test_equivalence_chain(n):
    """Hard-Lefschetz <=> dd^c lemma <=> harmonic representatives exist.

    The generic-mode verdict covers the explicit power-of-three weights,
    which satisfy the same no-relation hypothesis.
    """
    hl = hard_lefschetz_report(AlgebraSpec.generic(n)).hard_lefschetz
    spec = EXPLICIT[n]
    lemma = all(ddc_lemma_check(spec, k) for k in range(spec.two_n + 1))
    harmonic = True
    for k in range(spec.two_n + 1):
        for vec in cohomology_basis(spec, k).forms():
            rep = harmonic_representative(spec, vec)
            harmonic &= is_closed(spec, rep) and dc(spec, rep).is_zero
    assert hl == lemma == harmonic == True  # noqa: E712

    hl_ones = hard_lefschetz_report(AlgebraSpec.ones(n)).hard_lefschetz
    ones = AlgebraSpec.ones(n)
    lemma_ones = all(ddc_lemma_check(ones, k) for k in range(2 * n + 1))
    assert hl_ones == lemma_ones == True  # noqa: E712
