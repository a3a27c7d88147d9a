"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS line once its assertions hold, so running
``pytest tests/test_acceptance.py -s`` gives one line per criterion.
"""

import json
import time
from fractions import Fraction

from mpmath import mpf

import aacohom.cli as cli
from aacohom.ce_complex import (
    AlgebraSpec,
    betti_bruteforce,
    betti_closed_form,
    cohomology_basis,
    differential,
    is_closed,
)
from aacohom.kneser import KneserGraph, adjacency, spectrum, verify_invertible
from aacohom.lattice import (
    alt_remark_params,
    build_lattice,
    case1_params,
    pell_min_solution,
)
from aacohom.lefschetz import (
    check_structure,
    hard_lefschetz_report,
    lefschetz_matrix,
)
from aacohom.symplectic_hodge import (
    dc,
    ddc_lemma_check,
    harmonic_representative,
    star,
)
from aacohom.errors import InvariantViolationError
from aacohom.exact_linalg import det_bareiss

from oracles import dc_as_commutator, operator_matrix

GOLDEN_M4_5 = [
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


def report(number, text):
    print(f"ACCEPTANCE {number:>2}: PASS - {text}")


def test_criterion_01_golden_matrix(capsys):
    started = time.monotonic()
    code = cli.main(
        ["lefschetz", "--n", "5", "--m", "4", "--mode", "generic",
         "--emit-matrix"]
    )
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["matrix"] == GOLDEN_M4_5
    rows = lefschetz_matrix(AlgebraSpec.generic(5), 4).rows_as_lists()
    assert rows == GOLDEN_M4_5
    assert all(rows[i][j] == 0 for i in range(4) for j in range(4))
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, f"M_4 for n=5 matches the printed matrix ({elapsed:.3f}s)")


def test_criterion_02_betti_case1(capsys):
    started = time.monotonic()
    for n in range(2, 7):
        spec = AlgebraSpec.generic(n)
        for k in range(2 * n + 1):
            assert betti_closed_form(spec, k) == betti_bruteforce(spec, k)
    spec5 = AlgebraSpec.generic(5)
    assert [betti_closed_form(spec5, k) for k in range(11)] == [
        1, 2, 5, 8, 10, 12, 10, 8, 5, 2, 1,
    ]
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    with capsys.disabled():
        report(2, f"generic Betti numbers, n=2..6, closed == brute ({elapsed:.2f}s)")


def test_criterion_03_betti_case2(capsys):
    started = time.monotonic()
    for n in range(2, 6):
        spec = AlgebraSpec.ones(n)
        for k in range(2 * n + 1):
            assert betti_closed_form(spec, k) == betti_bruteforce(spec, k)
    spec3 = AlgebraSpec.ones(3)
    assert [betti_closed_form(spec3, k) for k in range(7)] == [1, 2, 5, 8, 5, 2, 1]
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    with capsys.disabled():
        report(3, f"unit-weight Betti numbers, n=2..5 ({elapsed:.2f}s)")


def test_criterion_04_hard_lefschetz(capsys):
    started = time.monotonic()
    for n in range(2, 7):
        for spec in (AlgebraSpec.generic(n), AlgebraSpec.ones(n)):
            rep = hard_lefschetz_report(spec)
            assert rep.hard_lefschetz
            assert len(rep.operators) == n + 1
            for op in rep.operators:
                assert op.determinant != 0
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    with capsys.disabled():
        report(4, f"det(L_m) != 0 for n=2..6, both modes ({elapsed:.2f}s)")


def test_criterion_05_kneser_structure(capsys):
    started = time.monotonic()
    for n in range(2, 7):
        generic = AlgebraSpec.generic(n)
        for m in range(n + 1):
            mat = lefschetz_matrix(generic, m)
            rows = mat.rows_as_lists()
            if m % 2 == 0 and m >= 2:
                assert rows == adjacency(KneserGraph(n, m // 2))
            elif m % 2 == 1 and m >= 3:
                k = (m - 1) // 2
                half = mat.size // 2
                block = adjacency(KneserGraph(n - 1, k))
                assert [r[:half] for r in rows[:half]] == block
                assert [r[half:] for r in rows[half:]] == block
                assert all(v == 0 for r in rows[:half] for v in r[half:])
                assert all(v == 0 for r in rows[half:] for v in r[:half])
            check_structure(mat)
        ones = AlgebraSpec.ones(n)
        for m in range(n + 1):
            mat = lefschetz_matrix(ones, m)
            check_structure(mat)
            assert sum(b.size for b in mat.blocks) == betti_closed_form(ones, m)
    elapsed = time.monotonic() - started
    with capsys.disabled():
        report(5, f"Kneser block structure, n=2..6, both cases ({elapsed:.2f}s)")


def test_criterion_06_kneser_spectra(capsys):
    started = time.monotonic()
    for n in range(2, 9):
        for k in range(1, n // 2 + 1):
            g = KneserGraph(n, k)
            eigs = spectrum(g)
            from math import comb

            assert eigs == [
                ((-1) ** j * comb(n - k - j, k - j), j) for j in range(k + 1)
            ]
            cert = verify_invertible(g)  # includes the annihilator check
            assert cert.annihilator_vanishes
    elapsed = time.monotonic() - started
    with capsys.disabled():
        report(6, f"Kneser annihilating polynomials, n<=8 ({elapsed:.2f}s)")


def test_failed_kneser_certificate_fails_verify_all(capsys, monkeypatch):
    # verify_invertible raises on every failed check; criterion 6 records
    # the message for that (n, k) and verify-all exits 1
    from aacohom import acceptance

    verify = acceptance.verify_invertible

    def broken(g):
        if (g.n, g.k) == (6, 2):
            raise InvariantViolationError("forced failure of K(6,2)")
        return verify(g)

    monkeypatch.setattr(acceptance, "verify_invertible", broken)
    details = acceptance.criterion_kneser_spectra(2)["details"]
    assert details == {"checked": 15, "failures": [[6, 2, "forced failure of K(6,2)"]]}
    assert cli.main(["verify-all", "--max-n", "2"]) == 1
    criteria = json.loads(capsys.readouterr().out)["criteria"]
    assert [c["id"] for c in criteria if not c["passed"]] == [6]


def test_criterion_07_pell(capsys):
    expected = {2: (6, 4), 3: (4, 2), 5: (3, 1), 7: (16, 6)}
    for d, pair in expected.items():
        sol = pell_min_solution(d)
        assert (sol.m, sol.k) == pair
    with capsys.disabled():
        report(7, "minimal Pell solutions for d = 2, 3, 5, 7")


def test_criterion_08_lattices(capsys):
    started = time.monotonic()
    packages = [build_lattice("I", 5, case1_params(5, [2, 3, 5, 7]))]
    packages += [build_lattice("II", n, 3) for n in range(2, 6)]
    for pkg in packages:
        assert det_bareiss([list(r) for r in pkg.E]) == 1
        assert pkg.residual < mpf("1e-9")
        assert pkg.trace_residual < mpf("1e-12")
        if pkg.case == "I":
            assert pkg.certificate.d_list == (2, 3, 5, 7)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    with capsys.disabled():
        report(8, f"lattice certification, case I n=5 and case II n=2..5 ({elapsed:.2f}s)")


def test_criterion_09_alt_remark(capsys):
    assert alt_remark_params(5, (1, 2, 3, 4)) == [4, 8, 55, 2981]
    with capsys.disabled():
        report(9, "cosh-interval parameters (4, 8, 55, 2981)")


def test_criterion_10_operator_suite(capsys):
    started = time.monotonic()
    for n in (2, 3):
        spec = AlgebraSpec.explicit([Fraction(3) ** j for j in range(1, n)])
        two_n = spec.two_n
        for k in range(two_n + 1):
            star_sq = operator_matrix(
                spec, lambda f: star(spec, star(spec, f)), k, k
            )
            identity = tuple(
                tuple(Fraction(1 if i == j else 0) for j in range(len(star_sq.entries)))
                for i in range(len(star_sq.entries))
            )
            assert star_sq.entries == identity
            if k >= 2:
                dc2 = operator_matrix(
                    spec, lambda f: dc(spec, dc(spec, f)), k, k - 2
                )
                assert all(v == 0 for row in dc2.entries for v in row)
            anti = operator_matrix(
                spec,
                lambda f: differential(spec, dc(spec, f))
                + dc(spec, differential(spec, f)),
                k,
                k,
            )
            assert all(v == 0 for row in anti.entries for v in row)
            comm = operator_matrix(
                spec, lambda f: dc_as_commutator(spec, f), k, max(k - 1, 0)
            )
            direct = operator_matrix(
                spec, lambda f: dc(spec, f), k, max(k - 1, 0)
            )
            assert comm == direct
            assert ddc_lemma_check(spec, k)
            for vec in cohomology_basis(spec, k).forms():
                rep = harmonic_representative(spec, vec)
                assert is_closed(spec, rep)
                assert dc(spec, rep).is_zero
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    with capsys.disabled():
        report(10, f"operator suite identities and harmonic forms ({elapsed:.2f}s)")


def test_criterion_11_determinism(capsys):
    outputs = []
    for _ in range(2):
        code = cli.main(["verify-all", "--max-n", "5"])
        captured = capsys.readouterr()
        assert code == 0
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["all_passed"] is True
    with capsys.disabled():
        report(11, "verify-all --max-n 5 emits byte-identical JSON twice")


def test_verify_all_builds_each_standard_operator_once(monkeypatch):
    from aacohom import acceptance, lefschetz

    kernel = lefschetz._operator_columns
    calls = []

    def counted(spec, m, *args):
        calls.append((spec, m))
        return kernel(spec, m, *args)

    monkeypatch.setattr(lefschetz, "_operator_columns", counted)
    assert acceptance.verify_all(6)["all_passed"]
    # n = 2..6 in both modes, m = 0..n; criterion 1's L_4 at n = 5 is one
    assert len(calls) == len(set(calls)) == 2 * sum(n + 1 for n in range(2, 7))
    # nothing outlives the call: a second run builds every L_m again
    acceptance.verify_all(6)
    assert len(calls) == 100
