"""Pell equations, independence certificates and lattice packages."""

import dataclasses
import itertools

import pytest
from mpmath import mp, mpf

from aacohom.errors import (
    CertificateFailureError,
    InvalidParameterError,
    SizeLimitError,
)
from aacohom.exact_linalg import det_bareiss, det_sparse
from aacohom.lattice import (
    CASE2_MAX_N,
    DEFAULT_DPS,
    PellSolution,
    alt_remark_params,
    assert_minimal,
    build_lattice,
    case1_params,
    companion_matrix_sl,
    first_primes,
    hypothesis1_certificate,
    is_squarefree,
    lattice_failures,
    pell_min_solution,
    squarefree_part,
    t_value,
)


# ---------------------------------------------------------------------------
# Pell solutions
# ---------------------------------------------------------------------------


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
    assert cert.certified
    assert cert.d_list == (2, 3, 5, 7)
    assert cert.numeric_min > mpf("1e-6")


def test_certificate_fails_on_repeated_modulus():
    with pytest.raises(CertificateFailureError) as err:
        hypothesis1_certificate([6, 6])
    assert err.value.prime == 2


def test_certificate_numeric_tier_for_cosh_parameters():
    cert = hypothesis1_certificate(
        [4, 8, 55, 2981], require_structural=False
    )
    assert not cert.structural_ok  # 4 and 55 both contribute the prime 3
    assert cert.numeric_ok
    assert cert.numeric_min > mpf("1e-6")


def test_certificate_default_parameters_scale():
    for n in range(2, 9):
        cert = hypothesis1_certificate(case1_params(n))
        assert cert.certified


def test_certificate_size_guard():
    with pytest.raises(SizeLimitError):
        hypothesis1_certificate([3] * 13, require_structural=False)


def _sign_search_min(ms):
    """min |sum eps_j t_j| over every nonzero eps in {-1,0,1}^k, one by one."""
    t_values = [t_value(m) for m in ms]
    with mp.workdps(DEFAULT_DPS):
        numeric_min = None
        for eps in itertools.product((-1, 0, 1), repeat=len(ms)):
            if not any(eps):
                continue
            total = abs(mp.fsum(e * t for e, t in zip(eps, t_values) if e))
            if numeric_min is None or total < numeric_min:
                numeric_min = total
        return numeric_min


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
    cert = hypothesis1_certificate(ms, require_structural=False)
    assert abs(cert.numeric_min - _sign_search_min(ms)) < mpf("1e-35")


@pytest.mark.parametrize("ms", [[3, 7, 18], [3, 3]])
def test_numeric_tier_rejects_a_relation(ms):
    # t_18 = t_3 + t_7, since (3 + sqrt 5)/2 (7 + sqrt 45)/2 = (18 + sqrt 320)/2
    cert = hypothesis1_certificate(ms, require_structural=False)
    assert not cert.numeric_ok
    assert not cert.certified


def test_structural_tier_rejects_the_relation():
    with pytest.raises(CertificateFailureError) as err:
        hypothesis1_certificate([3, 7, 18])
    assert err.value.prime == 5


def test_certificate_of_no_values_has_no_minimum():
    cert = hypothesis1_certificate([])
    assert cert.numeric_min is None
    assert not cert.numeric_ok


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
    build_lattice("II", CASE2_MAX_N, 3)
    with pytest.raises(SizeLimitError):
        build_lattice("II", CASE2_MAX_N + 1, 3)


def test_case1_reference_package():
    pkg = build_lattice("I", 5, case1_params(5, [2, 3, 5, 7]))
    blocks = [pkg.E[1 + 2 * j + 1][1 + 2 * j + 1] for j in range(4)]
    assert blocks == [6, 4, 3, 16]
    assert det_bareiss([list(r) for r in pkg.E]) == 1
    assert pkg.residual < mpf("1e-9")
    assert pkg.trace_residual < mpf("1e-12")
    assert pkg.certificate is not None and pkg.certificate.certified
    assert pkg.t0 == 1


def test_lattice_failures_names_each_broken_field():
    pkg = build_lattice("I", 5, case1_params(5, [2, 3, 5, 7]))
    assert lattice_failures(pkg) == []
    bad_e = tuple((2,) + row[1:] if i == 0 else row for i, row in enumerate(pkg.E))
    uncertified = dataclasses.replace(pkg.certificate, numeric_ok=False)
    cases = (
        ({"E": bad_e}, "det E != 1"),
        ({"residual": mpf("1e-9")}, "conjugacy residual too large"),
        ({"trace_residual": mpf("1e-12")}, "trace identity violated"),
        ({"certificate": uncertified}, "hypothesis certificate failed"),
    )
    for change, reason in cases:
        assert lattice_failures(dataclasses.replace(pkg, **change)) == [reason]


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


def test_conjugator_blocks_are_inverse_eigenvector_matrices():
    pkg = build_lattice("II", 2, 3)
    with mp.workdps(40):
        lam = mp.exp(pkg.t0)
        # P block times (1, -lambda) eigenvector matrix is the identity
        v = [[mpf(1), mpf(1)], [-lam, -1 / lam]]
        p = [[pkg.P[1][1], pkg.P[1][2]], [pkg.P[2][1], pkg.P[2][2]]]
        prod = [
            [sum(p[i][k] * v[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]
        assert abs(prod[0][0] - 1) < mpf("1e-30")
        assert abs(prod[1][1] - 1) < mpf("1e-30")
        assert abs(prod[0][1]) < mpf("1e-30")
        assert abs(prod[1][0]) < mpf("1e-30")


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
        alt_remark_params(3, (6, 7))


def test_alt_remark_values_sit_in_their_intervals():
    for k, m in zip((1, 2, 3, 4), alt_remark_params(5, (1, 2, 3, 4))):
        with mp.workdps(30):
            lo = 2 * mp.cosh(mpf(2) ** (k - 1))
            hi = 2 * mp.cosh(mpf(2) ** k)
            assert lo <= m < hi
            assert m - 1 < lo  # minimality in the interval
