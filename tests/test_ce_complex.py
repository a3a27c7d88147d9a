"""The complex: weights, the differential against a Leibniz oracle, bases,
Betti numbers both ways."""

import random
from fractions import Fraction

import pytest

from aacohom import exact_linalg
from aacohom.ce_complex import (
    AlgebraSpec,
    Mode,
    SymbolicForm,
    betti_bruteforce,
    betti_closed_form,
    betti_sequence,
    cohomology_basis,
    delta_form,
    differential,
    gamma_form,
    is_closed,
    lefschetz_target_basis,
    weight,
    weight_is_zero,
)
from aacohom.errors import SizeLimitError, UnsupportedModeError
from aacohom.exterior_algebra import Form, Monomial, all_monomials, wedge

from test_exterior import sort_sign


def mono(indices, two_n):
    return Monomial.from_indices(indices, two_n)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# the differential and its Leibniz-expansion oracle
# ---------------------------------------------------------------------------


def leibniz_differential(spec, m):
    """Independent oracle: expand d over the covector factors one at a time.

    Uses only the rules de^1 = de^{2n} = 0, de^i = b_i e^i ^ e^{2n},
    de^{s(i)} = -b_i e^{s(i)} ^ e^{2n}, plus the permutation-sign oracle to
    normalize each resulting index sequence.
    """
    b = dict(zip(range(2, spec.n + 1), spec.numeric_b()))
    indices = m.indices
    total = Form.zero(spec.two_n)
    for pos, idx in enumerate(indices):
        if idx == 1 or idx == spec.two_n:
            continue
        if 2 <= idx <= spec.n:
            scale = b[idx]
        else:
            scale = -b[idx - spec.n + 1]
        # replace e^idx by e^idx ^ e^{2n} in place, then normalize
        seq = list(indices[: pos + 1]) + [spec.two_n] + list(indices[pos + 1 :])
        sign, sorted_ix = sort_sign(seq)
        if sign == 0:
            continue
        leibniz_sign = (-1) ** pos
        total = total + Form.from_monomial(
            mono(sorted_ix, spec.two_n), leibniz_sign * sign * scale
        )
    return total


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

    for make in (AlgebraSpec.generic, AlgebraSpec.ones):
        s = make(5)
        assert differential(s, gamma_form(s, 2)).is_zero

    # anything containing e^{2n} is killed
    assert differential(spec, Form.from_monomial(mono((4, 10), 10))).is_zero


def test_differential_generic_is_symbolic():
    spec = AlgebraSpec.generic(3)
    d = differential(spec, Form.covector(2, 6))
    assert isinstance(d, SymbolicForm)
    assert d.terms == {mono((2, 6), 6): (Fraction(1), Fraction(0))}
    assert differential(spec, gamma_form(spec, 2)).is_zero


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
            # each of which is symbolically closed
            image = differential(generic, f)
            for target in image.terms:
                assert target.contains(top)
                assert differential(
                    generic, Form.from_monomial(target)
                ).is_zero


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
            m for m in all_monomials(2 * n, degree) if weight_is_zero(spec, m)
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
        index = {m: i for i, m in enumerate(monos)}
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
