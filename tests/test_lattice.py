"""Pell equations, independence certificates and lattice packages."""

import hashlib
import random
import time
from math import gcd, isqrt

import pytest
from mpmath import mp, mpf

from aacohom.errors import (
    CertificateFailureError,
    InvariantViolationError,
    InvalidParameterError,
    SizeLimitError,
)
from aacohom import lattice
from aacohom.exact_linalg import det_bareiss, det_sparse
from aacohom.lattice import (
    LATTICE_MAX_N,
    DEFAULT_DPS,
    PellSolution,
    alt_remark_params,
    build_lattice,
    case1_params,
    companion_matrix_sl,
    first_primes,
    hypothesis1_certificate,
    is_squarefree,
    lattice_failures,
    pell_min_solution,
    squarefree_part,
    subset_sum_gap,
    t_value,
)
from oracles import replace


# ---------------------------------------------------------------------------
# Pell solutions
# ---------------------------------------------------------------------------


def assert_minimal(sol: PellSolution, cap: int = 10 ** 6) -> None:
    """Exhaustively confirm no smaller positive solution exists (k below cap)."""
    bound = min(sol.k, cap)
    for y in range(1, bound):
        a2 = sol.d * y * y + 4
        a = isqrt(a2)
        if a * a == a2:
            raise InvariantViolationError(
                f"smaller Pell solution ({a}, {y}) exists for d={sol.d}"
            )


@pytest.mark.parametrize(
    "d, expected", [(2, (6, 4)), (3, (4, 2)), (5, (3, 1)), (7, (16, 6))]
)
def test_pell_reproduces_reference_values(d, expected):
    sol = pell_min_solution(d)
    assert (sol.m, sol.k) == expected
    assert sol.m ** 2 - d * sol.k ** 2 == 4
    assert_minimal(sol)


@pytest.mark.parametrize("d", [6, 10, 11, 13, 21, 29, 53, 61, 101])
def test_pell_minimality_by_scan(d):
    sol = pell_min_solution(d)
    assert sol.m ** 2 - d * sol.k ** 2 == 4
    assert_minimal(sol)


def test_pell_hard_half_unit_case():
    # d = 61 has the famously large unit; the odd half-solution is tiny
    sol = pell_min_solution(61)
    assert (sol.m, sol.k) == (1523, 195)


def test_pell_rejects_bad_moduli():
    with pytest.raises(InvalidParameterError):
        pell_min_solution(4)
    with pytest.raises(InvalidParameterError):
        pell_min_solution(12)
    with pytest.raises(InvalidParameterError):
        pell_min_solution(1)


def test_pell_solution_validation():
    with pytest.raises(InvalidParameterError):
        PellSolution(2, 5, 3)
    with pytest.raises(InvalidParameterError):
        PellSolution(2, 2, 0)


def test_squarefree_helpers():
    assert is_squarefree(30)
    assert not is_squarefree(12)
    assert squarefree_part(12) == 3
    assert squarefree_part(1) == 1
    assert first_primes(4) == [2, 3, 5, 7]


def _naive_factors(x):
    factors, p = {}, 2
    while x > 1:
        while x % p == 0:
            factors[p] = factors.get(p, 0) + 1
            x //= p
        p += 1
    return factors


def test_factorize_is_exact_below_the_bound_squared(monkeypatch):
    monkeypatch.setattr(lattice, "FACTOR_BOUND", 100)
    rng = random.Random(7)
    # 9973 is the largest prime below 100^2: no factor below 100, no break
    for x in [1, 2, 9973, 97 * 89, 2 ** 13, 99 * 101] + [
        rng.randrange(1, 10 ** 6) for _ in range(300)
    ]:
        cofactor = x
        for p in range(2, 100):
            while cofactor % p == 0:
                cofactor //= p
        if cofactor < 100 ** 2:
            assert lattice._factorize(x) == _naive_factors(x), x
        else:
            with pytest.raises(SizeLimitError, match="trial division stops"):
                lattice._factorize(x)
    with pytest.raises(SizeLimitError):
        lattice._factorize(101 * 103)


def test_case1_factors_each_modulus_once(monkeypatch):
    lattice.squarefree_part.cache_clear()
    calls = []
    factorize = lattice._factorize
    monkeypatch.setattr(
        lattice, "_factorize", lambda x: calls.append(x) or factorize(x)
    )
    package = build_lattice("I", 3, case1_params(3, [13, 29]))
    assert lattice_failures(package) == []
    assert sorted(calls) == [13, 29]


def test_case1_factors_each_modulus_once_at_large_n(monkeypatch):
    # the square-free cache holds every modulus of a family at the limit
    lattice.squarefree_part.cache_clear()
    calls = []
    factorize = lattice._factorize
    monkeypatch.setattr(
        lattice, "_factorize", lambda x: calls.append(x) or factorize(x)
    )
    package = build_lattice("I", 400, case1_params(400))
    assert lattice_failures(package) == []
    assert sorted(calls) == first_primes(399)


# m - 2 and m + 2 are both prime, each trial-divided up to FACTOR_BOUND
TWIN_PRIME_M = 281474976710565


def test_trial_division_counts_the_cofactor_past_small_divisors(monkeypatch):
    # 5 * 29 * 1117 * 747075257 and 41 * 2951221658537: together their square
    # roots pass the budget, but the cofactors left by the divisors below
    # 2^10 do not
    pair = [121000044000005, 121000088000017]
    with monkeypatch.context() as patch:
        patch.setattr(lattice, "_factorize", lambda x: pytest.fail("factored"))
        lattice.require_trial_division(pair)
    cert = hypothesis1_certificate(case1_params(3, pair))
    assert cert.d_list == tuple(pair)


def test_case2_budgets_trial_division_before_factoring(monkeypatch):
    monkeypatch.setattr(lattice, "_factorize", lambda x: pytest.fail("factored"))
    with pytest.raises(SizeLimitError, match="trial divisions"):
        build_lattice("II", 2, TWIN_PRIME_M)


def test_case1_budgets_trial_division_before_factoring(monkeypatch):
    def factoring(x):
        raise AssertionError("factored past the trial-division budget")

    monkeypatch.setattr(lattice, "_factorize", factoring)
    big = [2 ** 48 - 59, 2 ** 48 - 65]  # primes, each trial-divided to the bound
    with pytest.raises(SizeLimitError, match="trial divisions"):
        case1_params(3, big)
    lattice.require_trial_division(big[:1])  # one modulus at the bound passes


def test_case1_budgets_precision_during_pell(monkeypatch):
    pell = lattice.pell_min_solution
    calls = []
    monkeypatch.setattr(lattice, "pell_min_solution",
                        lambda d: calls.append(d) or pell(d))
    # the four blocks of [2, 3, 5, 7] run at DEFAULT_DPS
    monkeypatch.setattr(lattice, "MAX_PRECISION_WORK", 4 * DEFAULT_DPS ** 2)
    assert len(case1_params(5, [2, 3, 5, 7])) == 4
    calls.clear()
    monkeypatch.setattr(lattice, "MAX_PRECISION_WORK", 4 * DEFAULT_DPS ** 2 - 1)
    with pytest.raises(SizeLimitError, match="precision budget"):
        case1_params(5, [2, 3, 5, 7])
    assert calls == [2]  # refused at the first solution, before the rest


def test_case1_size_limit():
    with pytest.raises(SizeLimitError, match="case I is limited to n <= 1225"):
        case1_params(LATTICE_MAX_N + 1)


def test_pell_solution_is_bounded_in_bits(monkeypatch):
    sol = pell_min_solution(991)
    monkeypatch.setattr(lattice, "PELL_MAX_BITS", sol.m.bit_length())
    assert pell_min_solution(991) == sol
    monkeypatch.setattr(lattice, "PELL_MAX_BITS", 50)
    with pytest.raises(SizeLimitError, match="more than 50 bits"):
        pell_min_solution(991)


def test_pell_digest_over_squarefree_moduli():
    # (d, m, k) rows of every square-free d in [2, 3000), pinned from a
    # second route: the doubled x^2 - d y^2 = 1 unit and, for d = 5 mod 8,
    # the odd solution whose cube it is
    digest = hashlib.sha256()
    for d in range(2, 3000):
        if is_squarefree(d):
            sol = pell_min_solution(d)
            digest.update(f"{d},{sol.m},{sol.k}\n".encode())
    assert digest.hexdigest() == (
        "b257ff3737412efa3db245d5115b2fbbd932b391c15693dce9a9cadd5ce1eb42"
    )


def test_pell_odd_solution_below_the_bound_is_found_fast():
    # d = 5 mod 8: the odd minimal solution has 5702 bits, its cube (the
    # x^2 - d y^2 = 1 unit, doubled) passes PELL_MAX_BITS
    start = time.perf_counter()
    sol = pell_min_solution(10000813)
    assert time.perf_counter() - start < 1
    assert sol.m.bit_length() == 5702 and sol.m % 2 == 1


def test_pell_refusal_is_fast():
    lattice.squarefree_part(10 ** 12 + 39)  # factor d outside the timing
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="more than 16384 bits"):
        pell_min_solution(10 ** 12 + 39)
    assert time.perf_counter() - start < 0.5


def test_pell_is_one_expansion():
    assert not hasattr(lattice, "_pell_unit")
    assert not hasattr(lattice, "_icbrt")


def test_precision_grows_with_m():
    # the 30-digit m of d = 991 needs more than 40 digits for its trace
    sol = pell_min_solution(991)
    assert lattice._dps([3, 16]) == DEFAULT_DPS < lattice._dps([sol.m])
    package = build_lattice("I", 2, [sol])
    assert lattice_failures(package) == []


def test_trace_identity():
    for m in (3, 4, 6, 16):
        t = t_value(m)
        with mp.workdps(40):
            assert abs(mp.exp(t) + mp.exp(-t) - m) < mpf("1e-30")


# ---------------------------------------------------------------------------
# parameter selection
# ---------------------------------------------------------------------------


def test_case1_reference_parameters():
    sols = case1_params(5, [2, 3, 5, 7])
    assert [s.m for s in sols] == [6, 4, 3, 16]
    assert [s.k for s in sols] == [4, 2, 1, 6]


def test_case1_default_uses_primes():
    sols = case1_params(3)
    assert [s.d for s in sols] == [2, 3]


def test_case1_single_modulus():
    (sol,) = case1_params(2, [2])
    assert sol.m == 6


def test_case1_rejects_non_squarefree():
    with pytest.raises(InvalidParameterError):
        case1_params(3, [4, 5])


def test_case1_rejects_shared_factor():
    with pytest.raises(InvalidParameterError):
        case1_params(3, [6, 10])


# ---------------------------------------------------------------------------
# independence certificates
# ---------------------------------------------------------------------------


def test_certificate_for_reference_parameters():
    cert = hypothesis1_certificate(case1_params(5, [2, 3, 5, 7]))
    assert cert.m_list == (6, 4, 3, 16)
    assert cert.d_list == (2, 3, 5, 7)


def test_certificate_fails_on_repeated_modulus():
    with pytest.raises(CertificateFailureError) as err:
        hypothesis1_certificate([6, 6])
    assert err.value.prime == 2


def test_certificate_numeric_tier_for_cosh_parameters():
    with pytest.raises(CertificateFailureError) as err:
        hypothesis1_certificate([4, 8, 55, 2981])
    assert err.value.prime == 3  # 4 and 55 both contribute the prime 3
    gap, ok = subset_sum_gap([4, 8, 55, 2981])
    assert ok
    assert gap > mpf("1e-6")


def test_certificate_default_parameters_scale():
    for n in (2, 8, 13, 200):
        cert = hypothesis1_certificate(case1_params(n))
        assert cert.d_list == tuple(first_primes(n - 1))


def test_certificate_size_guard(monkeypatch):
    def factoring(x):
        raise AssertionError("factored past the trial-division budget")

    monkeypatch.setattr(lattice, "_factorize", factoring)
    # m -+ 2 of an m near 2^48, both prime, need more trial division than
    # one value at the bound
    with pytest.raises(SizeLimitError, match="trial divisions"):
        hypothesis1_certificate([TWIN_PRIME_M])
    with pytest.raises(SizeLimitError):
        subset_sum_gap([3] * 13)


def _sign_search_min(ms):
    """min |sum eps_j t_j| over every nonzero eps in {-1,0,1}^k.

    All 3^k signed sums are built level by level, one value at a time; the
    all-zero vector is the one whose every choice is 0, the middle entry.
    """
    t_values = [t_value(m) for m in ms]
    with mp.workdps(DEFAULT_DPS):
        sums = [mpf(0)]
        for t in t_values:
            sums = [s + e for s in sums for e in (-t, 0, t)]
        del sums[len(sums) // 2]  # eps = (0, ..., 0)
        return min(map(abs, sums))


# the moduli the `lattice` benchmark workload draws for seeds 0-2
WORKLOAD_MODULI = (
    [3, 11, 19, 43, 47, 53, 59, 61, 71, 73, 97],
    [5, 7, 11, 17, 23, 31, 43, 47, 59, 79, 89],
    [5, 7, 13, 23, 29, 37, 43, 53, 61, 71, 83],
)


@pytest.mark.parametrize(
    "ms",
    [[s.m for s in case1_params(n)] for n in range(2, 13)]
    + [[4, 8, 55, 2981], [3, 7, 18], [3, 3]]
    + [[s.m for s in case1_params(12, d)] for d in WORKLOAD_MODULI],
)
def test_subset_sum_gap_matches_sign_search(ms):
    gap, _ = subset_sum_gap(ms)
    assert abs(gap - _sign_search_min(ms)) < mpf("1e-35")


@pytest.mark.parametrize("ms", [[3, 7, 18], [3, 3]])
def test_numeric_tier_rejects_a_relation(ms):
    # t_18 = t_3 + t_7, since (3 + sqrt 5)/2 (7 + sqrt 45)/2 = (18 + sqrt 320)/2
    gap, ok = subset_sum_gap(ms)
    assert not ok
    assert gap < mpf("1e-30")


def test_structural_tier_rejects_the_relation():
    with pytest.raises(CertificateFailureError) as err:
        hypothesis1_certificate([3, 7, 18])
    assert err.value.prime == 5


@pytest.mark.parametrize("ms, prime", [
    ([3, 7, 18], 5), ([6, 6], 2), ([3, 3], 5), ([4, 8, 55, 2981], 3),
])
def test_shared_prime_families_name_the_prime(ms, prime):
    with pytest.raises(CertificateFailureError, match=f"share the prime {prime}$"):
        hypothesis1_certificate(ms)


def _coprime_squarefree_moduli(rng, count):
    moduli = []
    while len(moduli) < count:
        d = rng.randrange(2, 500)
        if is_squarefree(d) and all(gcd(d, e) == 1 for e in moduli):
            moduli.append(d)
    return moduli


_RNG = random.Random(29)
COPRIME_FAMILIES = (
    [first_primes(n - 1) for n in range(2, 14)]
    + list(WORKLOAD_MODULI)
    + [_coprime_squarefree_moduli(_RNG, _RNG.randrange(1, 13)) for _ in range(12)]
)


@pytest.mark.parametrize("moduli", COPRIME_FAMILIES)
def test_exact_verdict_matches_the_subset_sum_gap(moduli):
    solutions = case1_params(len(moduli) + 1, moduli)
    cert = hypothesis1_certificate(solutions)
    assert cert.d_list == tuple(moduli)
    assert cert.m_list == tuple(s.m for s in solutions)
    _, ok = subset_sum_gap(cert.m_list)
    assert ok


def test_coprime_family_below_the_float_tolerance_is_certified():
    # d = a^2 + 1 for a = 5000002, 5000004: the units are near 4a^2, so the
    # t-values differ by about 8e-7, under NUMERIC_TOLERANCE, and the float
    # gap calls them dependent though their fields are distinct
    solutions = case1_params(3, [25000020000005, 25000040000017])
    gap, ok = subset_sum_gap([s.m for s in solutions])
    assert not ok and mpf("7e-7") < gap < mpf("9e-7")
    cert = hypothesis1_certificate(solutions)
    assert cert.d_list == (25000020000005, 25000040000017)
    assert lattice_failures(build_lattice("I", 3, solutions)) == []


def test_certified_bare_families_have_no_relation():
    # a certificate is a proof: no seeded family it certifies has a
    # {-1,0,1} relation, and every family with one is refused
    rng = random.Random(5)
    certified = refused = 0
    for _ in range(150):
        ms = [rng.randrange(3, 80) for _ in range(rng.randrange(2, 6))]
        gap, ok = subset_sum_gap(ms)
        try:
            hypothesis1_certificate(ms)
        except CertificateFailureError:
            refused += 1
            continue
        certified += 1
        assert ok, ms
    assert certified >= 10 and refused >= 10
    for ms in ([3, 7, 18], [3, 3], [6, 6]):
        assert subset_sum_gap(ms)[0] < mpf("1e-30")
        with pytest.raises(CertificateFailureError):
            hypothesis1_certificate(ms)


def test_certificate_of_no_values_is_refused():
    with pytest.raises(InvalidParameterError, match="at least one value"):
        hypothesis1_certificate([])
    gap, ok = subset_sum_gap([])
    assert gap is None and not ok


# ---------------------------------------------------------------------------
# lattice packages
# ---------------------------------------------------------------------------


def test_case2_package_m3():
    for n in (2, 3, 4, 5):
        pkg = build_lattice("II", n, 3)
        assert det_bareiss([list(r) for r in pkg.E]) == 1
        assert pkg.E[0][0] == 1
        for j in range(n - 1):
            o = 1 + 2 * j
            assert [pkg.E[o][o], pkg.E[o][o + 1]] == [0, -1]
            assert [pkg.E[o + 1][o], pkg.E[o + 1][o + 1]] == [1, 3]
        assert pkg.residual < mpf("1e-9")
        assert pkg.trace_residual < mpf("1e-12")
        with mp.workdps(40):
            expected_t = mp.log((3 + mp.sqrt(5)) / 2)
            assert abs(pkg.t0 - expected_t) < mpf("1e-30")


@pytest.mark.parametrize("n", range(2, 21))
def test_case2_sparse_determinant_matches_bareiss(n):
    e_matrix = companion_matrix_sl([3] * (n - 1), 2 * n - 1)
    assert det_sparse(e_matrix) == det_bareiss(e_matrix) == 1


def test_case2_size_limit():
    build_lattice("II", LATTICE_MAX_N, 3)
    with pytest.raises(SizeLimitError):
        build_lattice("II", LATTICE_MAX_N + 1, 3)


def test_case1_reference_package():
    pkg = build_lattice("I", 5, case1_params(5, [2, 3, 5, 7]))
    blocks = [pkg.E[1 + 2 * j + 1][1 + 2 * j + 1] for j in range(4)]
    assert blocks == [6, 4, 3, 16]
    assert det_bareiss([list(r) for r in pkg.E]) == 1
    assert pkg.residual < mpf("1e-9")
    assert pkg.trace_residual < mpf("1e-12")
    assert pkg.certificate.d_list == (2, 3, 5, 7)
    assert pkg.t0 == 1


def test_build_and_certify_compute_det_e_once(monkeypatch):
    calls = []
    det = lattice.exact_linalg.det_sparse
    monkeypatch.setattr(
        lattice.exact_linalg, "det_sparse", lambda rows: calls.append(1) or det(rows)
    )
    pkg = build_lattice("II", 5, 7)
    assert lattice_failures(pkg) == []
    assert len(calls) == 1


def test_build_lattice_evaluates_each_distinct_block_once(monkeypatch):
    calls = []
    mat2 = lattice._mat2
    monkeypatch.setattr(lattice, "_mat2", lambda a, b: calls.append(1) or mat2(a, b))
    pkg = build_lattice("II", 50, 3)
    # V (diag V^-1) once for the one m, not once for each of the 49 blocks
    assert len(calls) == 2
    assert lattice_failures(pkg) == []


def test_lattice_failures_names_each_broken_field():
    pkg = build_lattice("I", 5, case1_params(5, [2, 3, 5, 7]))
    assert lattice_failures(pkg) == []
    bad_e = tuple((2,) + row[1:] if i == 0 else row for i, row in enumerate(pkg.E))
    cases = (
        ({"E": bad_e}, "det E != 1"),
        ({"residual": mpf("1e-9")}, "conjugacy residual too large"),
        ({"trace_residual": mpf("1e-12")}, "trace identity violated"),
    )
    for change, reason in cases:
        assert lattice_failures(replace(pkg, **change)) == [reason]


def test_package_serialization_round_trip():
    import json

    pkg = build_lattice("II", 2, 3)
    payload = pkg.to_json_dict()
    text = json.dumps(payload, sort_keys=True)
    back = json.loads(text)
    assert back["case"] == "II"
    assert back["m_list"] == ["3"]
    assert len(back["t_values"]) == 1
    assert back["E"] == [[1, 0, 0], [0, 0, -1], [0, 1, 3]]


def test_build_lattice_validation():
    with pytest.raises(InvalidParameterError):
        build_lattice("II", 3, 2)  # m < 3
    with pytest.raises(InvalidParameterError):
        build_lattice("I", 3, [pell_min_solution(2)])  # wrong count
    with pytest.raises(InvalidParameterError):
        build_lattice("III", 3, 3)


# ---------------------------------------------------------------------------
# the cosh-interval alternative
# ---------------------------------------------------------------------------


def test_alt_remark_reference_values():
    assert alt_remark_params(5, (1, 2, 3, 4)) == [4, 8, 55, 2981]


def test_alt_remark_small_case():
    assert alt_remark_params(2, (1,)) == [4]


def test_alt_remark_validation():
    with pytest.raises(InvalidParameterError):
        alt_remark_params(3, (2, 1))
    with pytest.raises(InvalidParameterError):
        alt_remark_params(3, (0, 1))
    with pytest.raises(InvalidParameterError):
        alt_remark_params(4, (1, 2))
    with pytest.raises(SizeLimitError):
        alt_remark_params(2, (25,))
    with pytest.raises(SizeLimitError):
        alt_remark_params(3, (16, 17))


def test_alt_remark_values_sit_in_their_intervals():
    for k, m in zip((1, 2, 3, 4), alt_remark_params(5, (1, 2, 3, 4))):
        with mp.workdps(30):
            lo = 2 * mp.cosh(mpf(2) ** (k - 1))
            hi = 2 * mp.cosh(mpf(2) ** k)
            assert lo <= m < hi
            assert m - 1 < lo  # minimality in the interval
