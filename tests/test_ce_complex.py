"""The complex: weights, the differential against a Leibniz oracle, bases,
Betti numbers both ways."""

import random
from fractions import Fraction

import pytest

from aacohom import ce_complex, exact_linalg
from aacohom.ce_complex import (
    AlgebraSpec,
    Mode,
    betti_bruteforce,
    betti_closed_form,
    betti_sequence,
    cohomology_basis,
    d_monomial,
    delta_form,
    differential,
    gamma_form,
    is_closed,
    lefschetz_target_basis,
    partners,
    weight_is_zero,
)
from aacohom.errors import SizeLimitError, UnsupportedModeError
from aacohom.exterior_algebra import Form, Monomial, wedge
from aacohom.lefschetz import standard_omega

from oracles import (
    all_monomials,
    leibniz_differential,
    literal_omega,
    literal_partner,
    weight,
)


def mono(indices, two_n):
    return Monomial.from_indices(indices, two_n)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def test_partners_is_the_literal_pairing():
    """The one pairing table is s(i) = i + n - 1 and 1 <-> 2n as written out
    in the oracles, a fixed-point-free involution, and the pairing that
    ``sigma`` and ``standard_omega`` read."""
    for n in range(2, 13):
        two_n, spec = 2 * n, AlgebraSpec.generic(n)
        table = partners(two_n)
        indices = range(1, two_n + 1)
        assert table[1:] == tuple(literal_partner(i, two_n) for i in indices)
        assert all(table[table[i]] == i != table[i] for i in indices)
        assert [spec.sigma(i) for i in range(2, n + 1)] == list(table[2:n + 1])
        assert standard_omega(spec).terms == literal_omega(two_n).terms


def test_weight_single_low_index():
    spec = AlgebraSpec.generic(5)
    assert weight(spec, mono((2,), 10)).coeffs == (1, 0, 0, 0)


def test_weight_single_high_index():
    spec = AlgebraSpec.generic(5)
    # 7 = sigma(3)
    assert weight(spec, mono((7,), 10)).coeffs == (0, -1, 0, 0)


def test_weight_gamma_is_zero():
    spec = AlgebraSpec.generic(5)
    assert weight(spec, mono((2, 6), 10)).coeffs == (0, 0, 0, 0)


def test_weight_theta():
    spec = AlgebraSpec.generic(5)
    assert weight(spec, mono((2, 7), 10)).coeffs == (1, -1, 0, 0)


def test_weight_ignores_extreme_indices():
    spec = AlgebraSpec.generic(3)
    assert weight(spec, mono((1, 6), 6)).coeffs == (0, 0)


@pytest.mark.parametrize(
    "spec, coeffs, zero",
    [
        (AlgebraSpec.generic(3), (1, -1), False),
        (AlgebraSpec.ones(3), (1, -1), True),
        (AlgebraSpec.explicit([2, 3]), (1, -1), False),
        (AlgebraSpec.explicit([3, 3]), (1, -1), True),
    ],
)
def test_mode_dependent_zero_test(spec, coeffs, zero):
    m = mono((2, spec.sigma(3)), spec.two_n)  # theta_{2|3}
    assert weight(spec, m).coeffs == coeffs
    assert weight(spec, m).is_zero_for(spec) is zero


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mask_weight_table_matches_weight_vectors(n):
    """The per-bit table decides weight zero as WeightVector does, in every mode."""
    specs = [
        AlgebraSpec.generic(n),
        AlgebraSpec.ones(n),
        AlgebraSpec.explicit([Fraction(j, j + 1) for j in range(2, n + 1)]),
        AlgebraSpec.explicit([1] * (n - 2) + [2]),
    ]
    for spec in specs:
        for degree in range(spec.two_n + 1):
            for m in all_monomials(spec.two_n, degree):
                assert weight_is_zero(spec, m.mask) == weight(spec, m).is_zero_for(spec)


def test_d_monomial_coefficient_is_int_unless_a_weight_is_not():
    integral = AlgebraSpec.explicit([3, 9])
    rational = AlgebraSpec.explicit([Fraction(9, 5), 9])
    theta = mono((2, 5), 6).mask  # theta_{2|3}: <w, b> = b_2 - b_3, degree 2
    assert d_monomial(integral, theta) == (theta | 1 << 5, 6)
    assert type(d_monomial(integral, theta)[1]) is int
    assert d_monomial(rational, theta) == (theta | 1 << 5, Fraction(36, 5))
    assert d_monomial(rational, mono((2, 4), 6).mask) is None  # gamma_2
    assert d_monomial(rational, mono((3, 6), 6).mask) is None  # contains 2n


# ---------------------------------------------------------------------------
# the differential and its Leibniz-expansion oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_differential_matches_leibniz_oracle_exhaustive(n):
    spec = AlgebraSpec.explicit([Fraction(3) ** j for j in range(1, n)])
    for degree in range(2 * n + 1):
        for m in all_monomials(2 * n, degree):
            assert differential(spec, Form.from_monomial(m)) == leibniz_differential(
                spec, m
            )


def test_differential_matches_leibniz_oracle_sampled_n5():
    spec = AlgebraSpec.explicit([3, 9, 27, 81])
    rng = random.Random(5)
    pool = [m for k in range(11) for m in all_monomials(10, k)]
    for m in rng.sample(pool, 120):
        assert differential(spec, Form.from_monomial(m)) == leibniz_differential(
            spec, m
        )


def test_differential_pinned_examples():
    spec = AlgebraSpec.explicit([3, 5, 7, 11])  # n = 5, b_2 = 3
    d = differential(spec, Form.covector(2, 10))
    assert d == Form.from_monomial(mono((2, 10), 10), 3)

    d23 = differential(spec, Form.from_monomial(mono((2, 3), 10)))
    assert d23 == Form.from_monomial(mono((2, 3, 10), 10), -(3 + 5))

    ones = AlgebraSpec.ones(5)
    assert differential(ones, gamma_form(ones, 2)).is_zero
    generic = AlgebraSpec.generic(5)
    assert is_closed(generic, gamma_form(generic, 2))

    # anything containing e^{2n} is killed
    assert differential(spec, Form.from_monomial(mono((4, 10), 10))).is_zero


def test_differential_generic_is_unsupported():
    spec = AlgebraSpec.generic(3)
    with pytest.raises(UnsupportedModeError):
        differential(spec, Form.covector(2, 6))
    assert not is_closed(spec, Form.covector(2, 6))
    assert is_closed(spec, gamma_form(spec, 2))


@pytest.mark.parametrize("n", range(2, 7))
def test_d_squared_is_zero_exhaustive(n):
    specs = [
        AlgebraSpec.ones(n),
        AlgebraSpec.explicit([Fraction(3) ** j for j in range(1, n)]),
    ]
    generic = AlgebraSpec.generic(n)
    top = 2 * n
    for degree in range(top + 1):
        for m in all_monomials(top, degree):
            f = Form.from_monomial(m)
            for spec in specs:
                assert differential(spec, differential(spec, f)).is_zero
            # generic mode: the image consists of monomials containing 2n,
            # each of which is closed
            if not is_closed(generic, f):
                target = Monomial(m.mask | 1 << (top - 1), top)
                assert is_closed(generic, Form.from_monomial(target))


def _numeric_specs(n):
    return [
        AlgebraSpec.ones(n),
        AlgebraSpec.explicit([Fraction(3) ** j for j in range(1, n)]),
        # a {-1,0,1} relation (b_2 + b_3 = b_4 from n = 4 on) closes more forms
        AlgebraSpec.explicit([1, 2, 3][: n - 1] + [5] * (n - 4)),
    ]


def _monomial_forms(two_n):
    return [
        Form.from_monomial(m)
        for k in range(two_n + 1)
        for m in all_monomials(two_n, k)
    ]


def _seeded_forms(two_n, rng, count=60):
    """Multi-term forms of one degree: random sums of monomials."""
    forms = []
    for _ in range(count):
        pool = all_monomials(two_n, rng.randint(0, two_n))
        picked = rng.sample(pool, rng.randint(1, min(4, len(pool))))
        forms.append(
            Form({m.mask: rng.choice((-2, -1, 1, 3)) for m in picked}, two_n)
        )
    return forms


@pytest.mark.parametrize("n", [2, 3, 4])
def test_is_closed_matches_differential(n):
    rng = random.Random(n)
    monomial_forms = _monomial_forms(2 * n)
    for spec in _numeric_specs(n):
        # a sum of basis classes plus an exact form is closed
        closed_sums = [
            sum(cohomology_basis(spec, k).forms(), Form.zero(2 * n))
            + differential(spec, rng.choice(monomial_forms))
            for k in range(2 * n + 1)
        ]
        forms = monomial_forms + _seeded_forms(2 * n, rng) + closed_sums
        closed = [is_closed(spec, f) for f in forms]
        assert closed == [differential(spec, f).is_zero for f in forms]
        assert any(closed) and not all(closed)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generic_is_closed_matches_the_witness(n):
    generic = AlgebraSpec.generic(n)
    witness = AlgebraSpec.explicit([3 ** j for j in range(2, n + 1)])
    rng = random.Random(10 + n)
    for f in _monomial_forms(2 * n) + _seeded_forms(2 * n, rng):
        assert is_closed(generic, f) == differential(witness, f).is_zero


# ---------------------------------------------------------------------------
# cohomology bases
# ---------------------------------------------------------------------------


def test_basis_example_n5_degree4():
    spec = AlgebraSpec.generic(5)
    basis = cohomology_basis(spec, 4)
    assert basis.labels == (
        "delta*gamma_{2}",
        "delta*gamma_{3}",
        "delta*gamma_{4}",
        "delta*gamma_{5}",
        "gamma_{2,3}",
        "gamma_{2,4}",
        "gamma_{2,5}",
        "gamma_{3,4}",
        "gamma_{3,5}",
        "gamma_{4,5}",
    )
    delta = delta_form(spec)
    expected_first = wedge(delta, gamma_form(spec, 2))
    assert basis.forms()[0] == expected_first


@pytest.mark.parametrize(
    "spec",
    [AlgebraSpec.generic(4), AlgebraSpec.ones(4), AlgebraSpec.explicit([3, 9, 27])],
)
def test_basis_degree_one_and_top(spec):
    two_n = spec.two_n
    b1 = cohomology_basis(spec, 1)
    assert [m.indices for m in b1.elements] == [(1,), (two_n,)]
    btop = cohomology_basis(spec, two_n)
    assert len(btop) == 1
    assert btop.elements[0].indices == tuple(range(1, two_n + 1))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("maker", [AlgebraSpec.generic, AlgebraSpec.ones])
def test_basis_is_exactly_the_weight_zero_monomials(n, maker):
    spec = maker(n)
    for degree in range(2 * n + 1):
        basis = cohomology_basis(spec, degree)
        assert len(set(basis.elements)) == len(basis.elements)
        expected = {
            m for m in all_monomials(2 * n, degree) if weight_is_zero(spec, m.mask)
        }
        assert set(basis.elements) == expected
        assert len(basis) == betti_closed_form(spec, degree)
        for sign in basis.signs:
            assert sign in (1, -1)


def test_explicit_basis_off_hypothesis():
    spec = AlgebraSpec.explicit([1, -1])  # e^2^e^3 becomes closed
    basis = cohomology_basis(spec, 2)
    assert mono((2, 3), 6) in basis.elements
    for m in basis.elements:
        assert is_closed(spec, Form.from_monomial(m))


# ---------------------------------------------------------------------------
# Betti numbers
# ---------------------------------------------------------------------------


def test_betti_closed_form_sequences():
    assert betti_sequence(AlgebraSpec.generic(5)) == [1, 2, 5, 8, 10, 12, 10, 8, 5, 2, 1]
    assert betti_sequence(AlgebraSpec.ones(3)) == [1, 2, 5, 8, 5, 2, 1]
    assert betti_closed_form(AlgebraSpec.generic(4), 0) == 1
    assert betti_closed_form(AlgebraSpec.ones(4), 0) == 1


def test_betti_closed_form_rejects_explicit():
    with pytest.raises(UnsupportedModeError):
        betti_closed_form(AlgebraSpec.explicit([3, 9]), 2)


def test_betti_bruteforce_examples():
    assert betti_bruteforce(AlgebraSpec.generic(5), 4) == 10
    assert betti_bruteforce(AlgebraSpec.ones(3), 2) == 5
    assert betti_bruteforce(AlgebraSpec.ones(2), 0) == 1
    assert betti_bruteforce(AlgebraSpec.explicit([3, 9]), 0) == 1


def test_betti_sequence_builds_each_d_once(monkeypatch):
    calls = []
    rank = exact_linalg.rank

    def counted(rows):
        calls.append(rows)
        return rank(rows)

    ce_complex._rank_of_d.cache_clear()
    monkeypatch.setattr(exact_linalg, "rank", counted)
    spec = AlgebraSpec.explicit([1, 2])
    assert betti_sequence(spec, bruteforce=True) == [1, 2, 3, 4, 3, 2, 1]
    assert len(calls) == spec.two_n  # one rank per degree 0..2n-1


def test_betti_bruteforce_size_guard():
    with pytest.raises(SizeLimitError):
        betti_bruteforce(AlgebraSpec.generic(8), 3)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("maker", [AlgebraSpec.generic, AlgebraSpec.ones])
def test_betti_closed_form_equals_bruteforce(n, maker):
    spec = maker(n)
    assert betti_sequence(spec) == betti_sequence(spec, bruteforce=True)


def test_betti_bruteforce_explicit_rational_weights():
    spec = AlgebraSpec.explicit([Fraction(1, 2), Fraction(1, 3)])
    seq = betti_sequence(spec, bruteforce=True)
    # these weights satisfy the no-relation hypothesis, so the generic
    # closed forms apply
    assert seq == betti_sequence(AlgebraSpec.generic(3))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_euler_characteristic_vanishes(n):
    for maker in (AlgebraSpec.generic, AlgebraSpec.ones):
        seq = betti_sequence(maker(n), bruteforce=True)
        assert sum((-1) ** k * v for k, v in enumerate(seq)) == 0


@pytest.mark.parametrize("n", range(2, 9))
def test_betti_symmetry(n):
    for maker in (AlgebraSpec.generic, AlgebraSpec.ones):
        spec = maker(n)
        for k in range(2 * n + 1):
            assert betti_closed_form(spec, k) == betti_closed_form(spec, 2 * n - k)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("maker", [AlgebraSpec.generic, AlgebraSpec.ones])
def test_basis_spans_cohomology(n, maker):
    """Every basis element is closed; none lies in the image of d."""
    spec = maker(n)
    numeric = (
        spec
        if spec.mode is Mode.ONES
        else AlgebraSpec.explicit([Fraction(3) ** j for j in range(1, n)])
    )
    two_n = 2 * n
    for degree in range(two_n + 1):
        basis = cohomology_basis(spec, degree)
        assert len(basis) == betti_bruteforce(numeric, degree)
        monos = all_monomials(two_n, degree)
        index = {m.mask: i for i, m in enumerate(monos)}
        image_rows = []
        if degree:
            for m in all_monomials(two_n, degree - 1):
                img = differential(numeric, Form.from_monomial(m))
                if not img.is_zero:
                    image_rows.append(
                        {index[t]: c for t, c in img.terms.items()}
                    )
        basis_rows = []
        for vec in basis.forms():
            assert is_closed(numeric, vec)
            basis_rows.append({index[t]: c for t, c in vec.terms.items()})
        image_rank = exact_linalg.rank(image_rows)
        assert (
            exact_linalg.rank(image_rows + basis_rows)
            == image_rank + len(basis_rows)
        )


def test_spec_validation():
    with pytest.raises(ValueError):
        AlgebraSpec.generic(1)
    with pytest.raises(ValueError):
        AlgebraSpec(3, Mode.EXPLICIT, (1,))
    with pytest.raises(ValueError):
        AlgebraSpec(3, Mode.GENERIC, (1, 2))
    with pytest.raises(UnsupportedModeError):
        AlgebraSpec.generic(3).numeric_b()
    assert AlgebraSpec.ones(3).numeric_b() == (1, 1)
    with pytest.raises(UnsupportedModeError):
        Mode.parse("diagonal")
    for m in (-1, 4, 7):  # L_m needs 0 <= m <= n
        with pytest.raises(ValueError):
            lefschetz_target_basis(AlgebraSpec.ones(3), m)


@pytest.mark.parametrize("spec, degree", [
    (AlgebraSpec.ones(2000), 2000),
    (AlgebraSpec.generic(2000), 2000),
    (AlgebraSpec.explicit(range(1, 2000)), 2000),
])
def test_basis_refusal_is_short(spec, degree):
    with pytest.raises(SizeLimitError) as err:
        cohomology_basis(spec, degree)
    assert str(err.value) == (
        f"a basis of H^{degree} at n = 2000 means more than "
        f"{ce_complex.BASIS_MAX_SIZE} candidates"
    )


@pytest.mark.parametrize("maker", [AlgebraSpec.generic, AlgebraSpec.ones])
def test_capped_betti_passes_a_limit_exactly_when_the_betti_number_does(maker):
    from functools import partial

    from aacohom.kneser import comb_past

    for limit in (10, 400, ce_complex.BASIS_MAX_SIZE):
        binom = partial(comb_past, limit=limit)
        for n in range(2, 15):
            spec = maker(n)
            for degree in range(spec.two_n + 1):
                exact = betti_closed_form(spec, degree)
                capped = betti_closed_form(spec, degree, binom)
                assert capped == exact if exact <= limit else capped > limit
