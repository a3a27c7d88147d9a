"""Exterior algebra: signs, products and pairings against a brute-force oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aacohom.errors import DimensionMismatchError
from aacohom.exterior_algebra import (
    Form,
    Monomial,
    coefficient,
    top_pairing,
    wedge,
    wedge_terms,
)

from oracles import all_monomials, monomial_wedge, sort_sign


def oracle_wedge_indices(*index_groups, two_n):
    """Wedge of covector lists evaluated purely by the sign oracle."""
    flat = [i for group in index_groups for i in group]
    sign, sorted_ix = sort_sign(flat)
    if sign == 0:
        return Form.zero(two_n)
    return Form.from_monomial(Monomial.from_indices(sorted_ix, two_n), sign)


def e(i, two_n=10):
    return Form.covector(i, two_n)


def test_wedge_ascending_pair():
    assert wedge(e(2), e(3)) == Form.from_monomial(
        Monomial.from_indices((2, 3), 10), 1
    )


def test_wedge_transposed_pair():
    assert wedge(e(3), e(2)) == Form.from_monomial(
        Monomial.from_indices((2, 3), 10), -1
    )


def test_wedge_collision_is_zero():
    assert wedge(e(2), e(2)).is_zero


def test_wedge_sign_against_oracle():
    lhs = wedge(wedge(e(2), e(4)), e(3))
    assert lhs == oracle_wedge_indices((2, 4), (3,), two_n=10)
    assert lhs == Form.from_monomial(Monomial.from_indices((2, 3, 4), 10), -1)


def test_coefficient_examples():
    f = Form.from_monomial(Monomial.from_indices((2, 3), 10), 1)
    assert coefficient(f, Monomial.from_indices((2, 3), 10)) == 1
    assert coefficient(f, Monomial.from_indices((2, 4), 10)) == 0
    g = Form(
        {
            Monomial.from_indices((2, 10), 10).mask: Fraction(3),
            Monomial.from_indices((3, 10), 10).mask: Fraction(5),
        },
        10,
    )
    assert coefficient(g, Monomial.from_indices((3, 10), 10)) == 5


def test_top_pairing_examples():
    # n = 2, ambient dimension 4
    a = oracle_wedge_indices((1,), (2,), (3,), two_n=4)
    assert top_pairing(a, e(4, 4)) == 1
    assert top_pairing(Form.one(4), Form.one(4)) == 0
    b = oracle_wedge_indices((2,), (3,), (4,), two_n=4)
    assert top_pairing(e(1, 4), b) == 1


def test_top_pairing_matches_full_wedge():
    rng = random.Random(7)
    two_n = 8
    for _ in range(50):
        a = random_form(rng, two_n)
        b = random_form(rng, two_n)
        full = Monomial.from_indices(range(1, two_n + 1), two_n)
        assert top_pairing(a, b) == coefficient(monomial_wedge(a, b), full)


def random_form(rng, two_n, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        degree = rng.randint(0, two_n)
        indices = tuple(sorted(rng.sample(range(1, two_n + 1), degree)))
        terms[Monomial.from_indices(indices, two_n).mask] = Fraction(
            rng.randint(-5, 5), rng.randint(1, 4)
        )
    return Form(terms, two_n)


def random_masks(rng, two_n, pool):
    """A {mask: coeff} form over a small pool of masks of mixed degrees, with
    int and Fraction coefficients, so that products overlap and may cancel."""
    terms = {}
    for mask in rng.sample(pool, rng.randint(0, min(5, len(pool)))):
        value = rng.choice([-2, -1, 1, 3])
        terms[mask] = value if rng.random() < 0.5 else Fraction(value, 2)
    return terms


def test_wedge_terms_matches_form_wedge():
    """The mask kernel against ``monomial_wedge``, which multiplies by
    ``wedge_monomials``: the same product, no zero coefficient, and int
    coefficients from int inputs."""
    rng = random.Random(21)
    cancelled = 0
    for two_n in (2, 4, 6, 8):
        pool = [rng.getrandbits(two_n) for _ in range(6)]
        for _ in range(60):
            a, b = random_masks(rng, two_n, pool), random_masks(rng, two_n, pool)
            got = wedge_terms(a, b, two_n)
            expected = monomial_wedge(Form(a, two_n), Form(b, two_n))
            assert Form(got, two_n) == expected
            assert Form(a, two_n).terms == a
            assert all(got.values())
            if all(type(c) is int for c in [*a.values(), *b.values()]):
                assert all(type(c) is int for c in got.values())
            hits = {p | q for p in a for q in b if not p & q}
            cancelled += len(hits - got.keys())
    assert cancelled  # some sums did cancel


def test_wedge_terms_of_a_one_form_with_itself_cancels():
    one_form = {1: 2, 2: Fraction(1, 3), 8: -1}
    assert wedge_terms(one_form, one_form, 4) == {}
    assert wedge_terms({1: 1, 2: 1}, {2: 1, 1: -1}, 2) == {3: 2}


def random_homogeneous(rng, two_n, degree, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        indices = tuple(sorted(rng.sample(range(1, two_n + 1), degree)))
        terms[Monomial.from_indices(indices, two_n).mask] = Fraction(
            rng.randint(-4, 4)
        )
    return Form(terms, two_n)


@given(st.integers(2, 5), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_graded_anticommutativity(n, rng):
    two_n = 2 * n
    p = rng.randint(0, two_n)
    q = rng.randint(0, two_n)
    a = random_homogeneous(rng, two_n, p)
    b = random_homogeneous(rng, two_n, q)
    sign = (-1) ** (p * q)
    assert wedge(a, b) == sign * wedge(b, a)


@given(st.integers(2, 5), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_associativity(n, rng):
    two_n = 2 * n
    a = random_form(rng, two_n)
    b = random_form(rng, two_n)
    c = random_form(rng, two_n)
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_nilpotency_every_monomial():
    for degree in range(0, 7):
        for m in all_monomials(6, degree):
            f = Form.from_monomial(m)
            if degree == 0:
                assert wedge(f, f) == f  # the scalar unit
            else:
                assert wedge(f, f).is_zero


def test_coefficients_are_int_when_integral():
    """Integral coefficients are ints, the others Fractions, and no zero is
    stored, whatever arithmetic made them."""
    assert Form.one(4).terms == {0: 1} and type(Form.one(4).terms[0]) is int
    halves = Form({1: Fraction(4, 2), 2: Fraction(1, 2)}, 4)
    assert halves.terms == {1: 2, 2: Fraction(1, 2)}
    assert type(halves.terms[1]) is int and type(halves.terms[2]) is Fraction
    product = wedge(e(2) * Fraction(3, 2), e(3) * 2)
    assert list(product.terms.values()) == [3]
    assert type(product.terms[0b110]) is int
    third = wedge(e(2) * Fraction(1, 3), e(3) * 2)
    assert third.terms == {0b110: Fraction(2, 3)}
    assert type(third.terms[0b110]) is Fraction
    assert type((halves * 2).terms[2]) is int
    assert type((halves / 4).terms[1]) is Fraction
    assert Form({1: 0, 2: Fraction(0), 4: 3}, 4).terms == {4: 3}
    assert (e(2) - e(2)).terms == {}
    assert wedge(e(2), e(2)).terms == {}


def test_form_keys_are_masks_that_fit():
    f = Form.from_monomial(Monomial.from_indices((2, 3), 4), 5)
    assert f.terms == {0b110: 5}
    assert all(type(mask) is int for mask in f.terms)
    with pytest.raises(DimensionMismatchError):
        Form({Monomial.from_indices((2, 3), 4): 1}, 4)
    with pytest.raises(DimensionMismatchError):
        Form({1 << 4: 1}, 4)
    with pytest.raises(DimensionMismatchError):
        Form({-1: 1}, 4)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        wedge(e(1, 4), e(1, 6))
    with pytest.raises(DimensionMismatchError):
        top_pairing(e(1, 4), e(1, 6))


def test_coefficient_of_another_width_raises():
    # e^{23} has the mask 0b110 at every width; only the form's own counts
    f = Form.from_monomial(Monomial.from_indices((2, 3), 4), 5)
    assert coefficient(f, Monomial.from_indices((2, 3), 4)) == 5
    for two_n in (6, 8):
        with pytest.raises(DimensionMismatchError, match=f"4 vs {two_n}"):
            coefficient(f, Monomial.from_indices((2, 3), two_n))


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial.from_indices((0,), 4)
    with pytest.raises(ValueError):
        Monomial.from_indices((5,), 4)
    with pytest.raises(ValueError):
        Monomial.from_indices((2, 2), 4)


def test_unit_and_degrees():
    one = Form.one(6)
    assert one.degrees() == {0}
    f = one + e(2, 6)
    assert not f.is_homogeneous()
    assert f.homogeneous_part(1) == e(2, 6)
