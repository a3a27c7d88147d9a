"""CLI: subcommand payloads, output formats, exit codes, determinism."""

import dataclasses
import json
import time

import pytest
from mpmath import mpf

import aacohom.cli as cli
from aacohom.errors import InvariantViolationError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_cohomology_betti_json(capsys):
    code, report = run_json(
        capsys, "cohomology", "--n", "5", "--mode", "generic", "--betti"
    )
    assert code == 0
    assert report["results"]["betti"] == [1, 2, 5, 8, 10, 12, 10, 8, 5, 2, 1]
    assert report["status"] == "ok"


def test_cohomology_brute_crosscheck(capsys):
    code, report = run_json(
        capsys, "cohomology", "--n", "3", "--mode", "ones", "--betti",
        "--check-brute",
    )
    assert code == 0
    assert report["results"]["betti"] == report["results"]["betti_bruteforce"]


@pytest.mark.parametrize(
    "argv",
    [
        "cohomology --n 3 --mode explicit --b 1,2 --check-brute",
        "cohomology --n 3 --mode ones --basis --degree 2 --check-brute",
    ],
)
def test_check_brute_catches_a_wrong_oracle(capsys, monkeypatch, argv):
    assert run(capsys, *argv.split())[0] == 0
    real = cli.betti_bruteforce
    monkeypatch.setattr(cli, "betti_bruteforce", lambda spec, k: real(spec, k) + 1)
    assert run(capsys, *argv.split())[0] == 1


def test_cohomology_explicit_weights(capsys):
    code, report = run_json(
        capsys, "cohomology", "--n", "3", "--mode", "explicit", "--b", "1/2,1/3"
    )
    assert code == 0
    # b = (1/2, 1/3) has no {-1,0,1} relation: the generic n = 3 numbers
    assert report["results"]["betti"] == [1, 2, 3, 4, 3, 2, 1]


def test_cohomology_basis_payload(capsys):
    code, report = run_json(
        capsys, "cohomology", "--n", "5", "--mode", "generic", "--basis",
        "--degree", "4",
    )
    assert code == 0
    assert report["results"]["labels"][0] == "delta*gamma_{2}"
    assert report["results"]["monomials"][0] == [1, 2, 6, 10]


def test_lefschetz_golden_text(capsys):
    code, out = run(
        capsys, "--format", "text", "lefschetz", "--n", "5", "--m", "4",
        "--mode", "generic", "--emit-matrix", "--check-kneser",
    )
    assert code == 0
    assert "structure: A(K(5,2))" in out
    assert "0 0 0 0 | 0 0 0 1 1 1" in out
    assert out.count("|") == 10  # one separator per row
    assert "-" * 21 in out


def test_lefschetz_json_matrix(capsys):
    code, report = run_json(
        capsys, "lefschetz", "--n", "5", "--m", "4", "--mode", "generic",
        "--emit-matrix", "--check-kneser",
    )
    assert code == 0
    assert report["results"]["structure"] == "A(K(5,2))"
    assert report["results"]["matrix"][0] == [0, 0, 0, 0, 0, 0, 0, 1, 1, 1]


def test_lefschetz_hl_report(capsys):
    code, report = run_json(
        capsys, "lefschetz", "--n", "4", "--mode", "ones", "--hl"
    )
    assert code == 0
    assert report["results"]["hard_lefschetz"] is True
    assert len(report["results"]["operators"]) == 5


def test_kneser_text_matrix(capsys):
    code, out = run(capsys, "--format", "text", "kneser", "--n", "2", "--k", "1")
    assert code == 0
    assert "0 1\n1 0" in out


def test_kneser_verify_payload(capsys):
    code, report = run_json(
        capsys, "kneser", "--n", "5", "--k", "2", "--spectrum", "--verify"
    )
    assert code == 0
    values = [e["value"] for e in report["results"]["eigenvalues"]]
    assert values == [3, -2, 1]
    assert report["results"]["annihilator_vanishes"] is True


def test_csv_identity_matrix(capsys):
    code, out = run(
        capsys, "--format", "csv", "lefschetz", "--n", "3", "--m", "0",
        "--mode", "generic", "--emit-matrix",
    )
    assert code == 0
    assert out == "1\n"


def test_csv_kneser(capsys):
    code, out = run(capsys, "--format", "csv", "kneser", "--n", "2", "--k", "1")
    assert code == 0
    assert out == "0,1\n1,0\n"


def test_csv_without_matrix_is_usage_error(capsys):
    code, _ = run(
        capsys, "--format", "csv", "cohomology", "--n", "3", "--mode", "generic"
    )
    assert code == 2


def test_hodge_checks(capsys):
    code, report = run_json(
        capsys, "hodge", "--n", "2", "--mode", "explicit", "--b", "3"
    )
    assert code == 0
    assert all(c["passed"] for c in report["results"]["checks"])


def test_hodge_size_limit(capsys):
    assert run(capsys, "hodge", "--n", "5", "--mode", "ones")[0] == 0
    assert run(capsys, "hodge", "--n", "7", "--mode", "ones")[0] == 2
    start = time.perf_counter()
    assert run(capsys, "hodge", "--n", "40", "--mode", "ones")[0] == 2
    assert time.perf_counter() - start < 5


def test_kneser_size_limit(capsys):
    # K(12,6) has 924 vertices, K(13,6) 1716, K(10,5) 252 and K(11,5) 462
    assert run(capsys, "kneser", "--n", "9", "--k", "4", "--verify")[0] == 0
    start = time.perf_counter()
    assert run(capsys, "kneser", "--n", "13", "--k", "6")[0] == 2
    assert run(capsys, "kneser", "--n", "13", "--k", "6", "--spectrum")[0] == 2
    assert run(capsys, "kneser", "--n", "11", "--k", "5", "--verify")[0] == 2
    assert run(capsys, "kneser", "--n", "40", "--k", "20", "--spectrum")[0] == 2
    assert time.perf_counter() - start < 5


def test_lefschetz_and_basis_size_limits(capsys, monkeypatch):
    import aacohom.ce_complex as ce
    import aacohom.lefschetz as lf

    def built(*args):
        raise AssertionError("built a basis beyond the limit")

    for module, name in ((ce, "_pinned_basis"), (ce, "_explicit_basis"),
                         (lf, "cohomology_basis"),
                         (lf, "lefschetz_target_basis")):
        monkeypatch.setattr(module, name, built)
    start = time.perf_counter()
    # dense payload of 9800^2 cells; HL with dimension 127008; HL with a
    # K(12,5) block of 792 vertices; 5.9 million basis classes; C(20,10)
    # explicit monomials
    for argv in (
        "lefschetz --n 9 --mode ones --m 9",
        "lefschetz --n 9 --mode ones --m 9 --emit-matrix --check-kneser",
        "lefschetz --n 11 --mode ones --hl",
        "lefschetz --n 13 --mode generic --hl",
        "lefschetz --n 40 --mode ones --m 40 --check-kneser",
        "cohomology --n 14 --mode ones --basis --degree 14",
        "cohomology --n 10 --mode explicit --b 1,2,3,4,5,6,7,8,9 --basis "
        "--degree 10",
    ):
        assert run(capsys, *argv.split())[0] == 2, argv
    assert time.perf_counter() - start < 5


def test_determinant_beyond_int_str_limit_prints_every_digit(
    capsys, monkeypatch
):
    import sys
    from fractions import Fraction

    from aacohom.ce_complex import AlgebraSpec
    from aacohom.lefschetz import HardLefschetzReport, OperatorSummary

    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    det = 7 ** 6000
    summary = OperatorSummary(0, 1, Fraction(det))
    report = HardLefschetzReport(
        AlgebraSpec.ones(2), "standard", (summary,), True
    )
    monkeypatch.setattr(cli, "hard_lefschetz_report", lambda spec: report)
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        digits = str(det)
        sys.set_int_max_str_digits(640)
        code, out = run(capsys, "lefschetz", "--n", "2", "--mode", "ones", "--hl")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(old)
    assert len(digits) > 5000
    assert code == 0
    assert json.loads(out)["results"]["operators"][0]["determinant"] == digits


def test_lattice_case1_payload(capsys):
    code, report = run_json(
        capsys, "lattice", "--case", "I", "--n", "5", "--d", "2,3,5,7"
    )
    assert code == 0
    res = report["results"]
    assert [s["m"] for s in res["pell_solutions"]] == ["6", "4", "3", "16"]
    assert res["E"][1][2] == -1 and res["E"][2][2] == 6
    assert res["hypothesis1_certified"] is True


def test_lattice_default_size_is_fast(capsys):
    started = time.monotonic()
    code, report = run_json(capsys, "lattice", "--case", "I", "--n", "13")
    assert code == 0
    assert report["results"]["hypothesis1_certified"] is True
    assert time.monotonic() - started < 5


def test_lattice_case2_payload(capsys):
    code, report = run_json(
        capsys, "lattice", "--case", "II", "--n", "3", "--m", "3"
    )
    assert code == 0
    assert report["results"]["m_list"] == ["3", "3"]


@pytest.mark.parametrize("n, expected", [("300", 0), ("1226", 2)])
def test_lattice_case2_is_fast_or_refused(capsys, n, expected):
    started = time.monotonic()
    code, _ = run(capsys, "lattice", "--case", "II", "--n", n, "--m", "3")
    assert code == expected
    assert time.monotonic() - started < 5


def test_lattice_alt_params(capsys):
    code, report = run_json(
        capsys, "lattice", "--n", "5", "--alt-k", "1,2,3,4"
    )
    assert code == 0
    assert report["results"]["alt_params"] == ["4", "8", "55", "2981"]


def test_lattice_bad_trace_residual_exits_1(capsys, monkeypatch):
    build = cli.build_lattice

    def off_trace(*args, **kwargs):
        return dataclasses.replace(build(*args, **kwargs), trace_residual=mpf(1))

    monkeypatch.setattr(cli, "build_lattice", off_trace)
    code, report = run_json(
        capsys, "lattice", "--case", "II", "--n", "3", "--m", "3"
    )
    assert code == 1
    assert report["status"] == "fail"


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "lattice", "--case", "I", "--n", "3", "--d", "4,5")[0] == 2
    assert run(capsys, "lattice", "--case", "II", "--n", "3")[0] == 2
    assert run(capsys, "cohomology", "--n", "3", "--mode", "explicit")[0] == 2
    assert run(capsys, "kneser", "--n", "3", "--k", "2", "--verify")[0] == 2
    assert run(capsys, "lattice", "--n", "3", "--alt-k", "6,7")[0] == 2
    assert run(
        capsys, "cohomology", "--n", "2", "--mode", "explicit", "--b", "1/0"
    )[0] == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["cohomology", "--n", "3", "--unknown-flag"])
    assert exc.value.code == 2


def test_check_failure_exits_1(capsys, monkeypatch):
    def broken(g):
        raise InvariantViolationError("forced failure for the exit-code test")

    monkeypatch.setattr(cli, "verify_invertible", broken)
    code, _ = run(capsys, "kneser", "--n", "5", "--k", "2", "--verify")
    assert code == 1


def test_failed_criterion_exits_1(capsys, monkeypatch):
    from aacohom import acceptance

    def failing(max_n):
        return {"id": 99, "name": "forced", "passed": False}

    monkeypatch.setattr(acceptance, "CRITERIA", (failing,))
    code, report = run_json(capsys, "verify-all", "--max-n", "2")
    assert code == 1
    assert report["status"] == "fail"


def test_verify_all_deterministic_bytes(capsys):
    _, first = run(capsys, "verify-all", "--max-n", "2")
    _, second = run(capsys, "verify-all", "--max-n", "2")
    assert first == second


def test_json_round_trips(capsys):
    code, out = run(capsys, "kneser", "--n", "4", "--k", "2")
    assert code == 0
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out
