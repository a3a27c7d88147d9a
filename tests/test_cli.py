"""CLI: subcommand payloads, output formats, exit codes, determinism."""

import ast
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from mpmath import mpf

import aacohom.cli as cli
from aacohom import ce_complex, errors, lefschetz, symplectic_hodge
from aacohom.ce_complex import AlgebraSpec, betti_closed_form
from oracles import replace
from test_symplectic_hodge import BROKEN_OPERATORS, KERNEL_PRIMITIVE


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
    real = ce_complex.betti_bruteforce
    monkeypatch.setattr(
        ce_complex, "betti_bruteforce", lambda spec, k: real(spec, k) + 1
    )
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


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
@pytest.mark.parametrize(
    "argv",
    [
        "lefschetz --n 5 --mode ones --m 4 --emit-matrix --check-kneser",
        "lefschetz --n 5 --mode generic --m 3 --emit-matrix",
        "kneser --n 5 --k 2 --emit-matrix",
        "kneser --n 6 --k 3",
    ],
)
def test_matrix_payloads_build_no_dense_rows(capsys, monkeypatch, fmt, argv):
    from aacohom import kneser, lefschetz

    def dense(*args):
        raise AssertionError("built a dense matrix for output")

    monkeypatch.setattr(lefschetz.LefschetzMatrix, "rows_as_lists", dense)
    for module in (cli, kneser, lefschetz):
        monkeypatch.setattr(module, "adjacency", dense, raising=False)
    code, out = run(capsys, "--format", fmt, *argv.split())
    assert code == 0
    assert "1" in out


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


# the printed name of each reason of the operator suite, written out apart
# from cli.HODGE_CHECKS
HODGE_NAMES = {
    "star not involutive": "star is an involution",
    "dc^2 != 0": "dc o dc = 0",
    "d dc != -dc d": "d dc = -dc d",
    "dc != [d, Lambda]": "dc = [d, Lambda]",
    "dd^c lemma fails": "dd^c lemma in every degree",
    "non-harmonic representative": "harmonic representative for every basis class",
}


@pytest.mark.parametrize("operator, broken, reason", BROKEN_OPERATORS)
def test_hodge_marks_each_failed_check(capsys, monkeypatch, operator, broken, reason):
    monkeypatch.setattr(symplectic_hodge, KERNEL_PRIMITIVE[operator], broken)
    spec = AlgebraSpec.ones(3)
    reasons = {r for _, r in symplectic_hodge.operator_suite_failures(spec)}
    code, report = run_json(capsys, "hodge", "--n", "3", "--mode", "ones")
    assert (code, report["status"]) == (1, "fail")
    checks = report["results"]["checks"]
    assert [c["name"] for c in checks] == list(HODGE_NAMES.values())
    failed = {c["name"] for c in checks if not c["passed"]}
    assert HODGE_NAMES[reason] in failed
    assert failed == {HODGE_NAMES[r] for r in reasons}


def test_hodge_size_limit(capsys):
    assert run(capsys, "hodge", "--n", "7", "--mode", "ones")[0] == 0
    start = time.perf_counter()
    assert run(capsys, "hodge", "--n", "9", "--mode", "ones")[0] == 2
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
        raise AssertionError("walked blocks or built a basis beyond the limit")

    for module, name in ((ce, "_pinned_bases"), (ce, "_explicit_basis"),
                         (lf, "_pinned_bases"), (lf, "_block_walk")):
        monkeypatch.setattr(module, name, built)
    start = time.perf_counter()
    # dense payload of 9800^2 cells; a block list of 77534 blocks; HL past
    # the budget at L_11 and L_10; 5.9 million basis classes; C(20,10)
    # explicit monomials
    for argv in (
        "lefschetz --n 9 --mode ones --m 9",
        "lefschetz --n 9 --mode ones --m 9 --emit-matrix --check-kneser",
        "lefschetz --n 14 --mode ones --m 7 --check-kneser",
        "lefschetz --n 13 --mode ones --hl",
        "lefschetz --n 15 --mode generic --hl",
        "lefschetz --n 40 --mode ones --m 40 --check-kneser",
        "cohomology --n 14 --mode ones --basis --degree 14",
        "cohomology --n 10 --mode explicit --b 1,2,3,4,5,6,7,8,9 --basis "
        "--degree 10",
    ):
        assert run(capsys, *argv.split())[0] == 2, argv
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("argv", ["--n 24 --mode generic --m 0",
                                  "--n 24 --mode ones --m 1",
                                  "--n 100000 --mode ones --hl",
                                  "--n 100000 --mode generic --hl"])
def test_lefschetz_power_chain_beyond_the_budget_is_refused(
    capsys, monkeypatch, argv
):
    import aacohom.ce_complex as ce
    import aacohom.lefschetz as lf

    def built(*args):
        raise AssertionError("built a power chain or basis beyond the budget")

    # the chain alone passes the budget, so not even a Betti number is needed
    for module, name in ((lf, "_mask_power_chain"), (lf, "_pinned_bases"),
                         (ce, "_pinned_bases"), (lf, "betti_closed_form")):
        monkeypatch.setattr(module, name, built)
    start = time.perf_counter()
    assert cli.main(["lefschetz", *argv.split()]) == 2
    assert time.perf_counter() - start < 5
    assert "power chain at n = " in capsys.readouterr().err


def test_lefschetz_generic_n13_hl_runs(capsys):
    # K(13,6) has 1716 vertices: refused by the old block limit, 0.7 s now
    start = time.perf_counter()
    code, report = run_json(capsys, "lefschetz", "--n", "13", "--hl")
    assert code == 0
    assert report["results"]["hard_lefschetz"] is True
    assert time.perf_counter() - start < 10


def test_determinant_beyond_int_str_limit_prints_every_digit(
    capsys, monkeypatch
):
    import sys
    from fractions import Fraction

    from aacohom.lefschetz import HardLefschetzReport, OperatorSummary

    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    det = 7 ** 6000
    summary = OperatorSummary(0, 1, Fraction(det))
    report = HardLefschetzReport(AlgebraSpec.ones(2), (summary,), True)
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


# the 12 primes just below 2^48: each is trial-divided up to FACTOR_BOUND
LARGE_MODULI = ",".join(map(str, (
    281474976710597, 281474976710591, 281474976710567, 281474976710563,
    281474976710509, 281474976710491, 281474976710467, 281474976710423,
    281474976710413, 281474976710399, 281474976710339, 281474976710327,
)))


def test_lattice_case1_certificate_needs_no_subset_sum(capsys, monkeypatch):
    from aacohom import lattice

    # every float t-value goes through t_value: one per printed block, and
    # none for a subset sum
    calls = []
    t_value = lattice.t_value
    monkeypatch.setattr(lattice, "t_value",
                        lambda m, *dps: calls.append(m) or t_value(m, *dps))
    for argv in ("--n 13", "--n 5 --d 2,3,5,7", "--n 40", "--n 4 --d 2,3,6"):
        calls.clear()
        code, report = run_json(capsys, "lattice", "--case", "I", *argv.split())
        assert code == 0
        assert report["results"]["hypothesis1_certified"] is True
        assert calls == [int(m) for m in report["results"]["m_list"]]


def test_lattice_case1_moduli_need_only_be_distinct(capsys):
    code, report = run_json(capsys, "lattice", "--case", "I", "--n", "4",
                            "--d", "2,3,6")
    assert code == 0
    assert report["results"]["hypothesis1_certified"] is True
    assert report["results"]["d_list"] == [2, 3, 6]
    assert cli.main(["lattice", "--case", "I", "--n", "3", "--d", "3,3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "usage error: modulus 3 is repeated"


def test_lattice_case1_large_moduli_are_refused_before_factoring(
        capsys, monkeypatch):
    from aacohom import lattice

    def factoring(x):
        raise AssertionError("factored past the trial-division budget")

    monkeypatch.setattr(lattice, "_factorize", factoring)
    assert cli.main(["lattice", "--case", "I", "--n", "13", "--d",
                     LARGE_MODULI]) == 2
    assert "trial divisions" in capsys.readouterr().err


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


def test_lattice_alt_params_factor_nothing(capsys, monkeypatch):
    from aacohom import lattice

    def factoring(*args):
        raise AssertionError("--alt-k factored an m_j")

    monkeypatch.setattr(lattice, "_factorize", factoring)
    monkeypatch.setattr(lattice, "_squarefree_part_m", factoring)
    code, report = run_json(capsys, "lattice", "--n", "5", "--alt-k", "1,2,3,4")
    assert code == 0
    assert report["results"]["numeric_independence"] is True


def test_lattice_alt_k_count_is_checked_before_any_cosh(capsys, monkeypatch):
    import mpmath

    def cosh(*args):
        raise AssertionError("--alt-k placed an m_j past a refused count")

    # the context object that lattice's function-local imports return
    monkeypatch.setattr(mpmath.mp, "cosh", cosh)
    ks = ",".join(str(k) for k in range(1, 16))
    assert cli.main(["lattice", "--n", "17", "--alt-k", ks]) == 2
    err = capsys.readouterr().err
    assert "expected 16 exponents for n=17, got 15" in err


def test_lattice_alt_k_refusal_exits_1(capsys, monkeypatch):
    # no admitted exponents place two units in one field, so patch them in
    monkeypatch.setattr(cli, "alt_remark_params", lambda n, ks: [3, 7, 18])
    assert cli.main(["lattice", "--n", "4", "--alt-k", "1,2,3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == (
        "check failed: the units of m = 3 and m = 7 lie in one quadratic field"
    )


@pytest.mark.parametrize("argv, message", [
    ("--n 3 --alt-k 1,2 --case II --m 3",
     "--case is not meaningful with --alt-k"),
    ("--n 3 --alt-k 1,2 --m 3", "--m is not meaningful with --alt-k"),
    ("--n 3 --alt-k 1,2 --d 2,3", "--d is not meaningful with --alt-k"),
    ("--case I --n 3 --m 3", "--m is only meaningful with --case II"),
    ("--case II --n 3 --m 3 --d 2,3", "--d is only meaningful with --case I"),
])
def test_lattice_conflicting_options_are_refused(capsys, monkeypatch, argv,
                                                 message):
    def computed(*args, **kwargs):
        raise AssertionError("a conflicting option reached the lattice work")

    for name in ("alt_remark_params", "case1_params", "build_lattice"):
        monkeypatch.setattr(cli, name, computed)
    assert cli.main(["lattice", *argv.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"usage error: {message}" in captured.err


@pytest.mark.parametrize("option", ["--m 0", "--m 2", "--emit-matrix",
                                    "--check-kneser"])
def test_hl_conflicting_options_are_refused(capsys, monkeypatch, option):
    def computed(*args, **kwargs):
        raise AssertionError("a conflicting option reached the Lefschetz work")

    for name in ("hard_lefschetz_report", "lefschetz_matrix", "certified_blocks"):
        monkeypatch.setattr(cli, name, computed)
    argv = ["lefschetz", "--n", "3", "--mode", "ones", "--hl", *option.split()]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    name = option.split()[0]
    assert captured.err == f"usage error: {name} is not meaningful with --hl\n"


@pytest.mark.parametrize("argv, message", [
    ("--case I --n 3 --d 2,,3",
     "--d needs comma-separated integers, got '2,,3'"),
    ("--n 3 --alt-k 1,x",
     "--alt-k needs comma-separated integers, got '1,x'"),
])
def test_lattice_bad_integer_lists_name_the_option(capsys, argv, message):
    assert cli.main(["lattice", *argv.split()]) == 2
    assert capsys.readouterr().err.strip() == f"usage error: {message}"


@pytest.mark.parametrize("argv, message", [
    (["--case", "I", "--n", "3", "--d", ""],
     "--d needs comma-separated integers, got ''"),
    (["--n", "3", "--alt-k", ""],
     "--alt-k needs comma-separated integers, got ''"),
])
def test_lattice_empty_integer_lists_are_refused(capsys, argv, message):
    # an empty value is given, not absent: no default primes, no --case hint
    assert cli.main(["lattice", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"usage error: {message}"


def test_lattice_case1_factors_no_m(capsys, monkeypatch):
    # m^2 - 4 = d k^2 for a Pell solution, so only the small d is factored
    from aacohom import lattice

    def factoring(*args):
        raise AssertionError("case I factored m -+ 2")

    monkeypatch.setattr(lattice, "_squarefree_part_m", factoring)
    code, report = run_json(capsys, "lattice", "--case", "I", "--n", "5")
    assert code == 0
    assert report["results"]["hypothesis1_certified"] is True


def _cli_process(*argv, seconds):
    """Run the CLI in a fresh interpreter, killed after ``seconds``."""
    src = pathlib.Path(cli.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "aacohom.cli", *argv],
        env=env, capture_output=True, text=True, timeout=seconds,
    )


_MPMATH_PROBE = """
import sys
import aacohom.cli as cli
loaded = {"import": "mpmath" in sys.modules}
for argv in sys.argv[1:]:
    code = cli.main(argv.split())
    loaded[argv] = (code, "mpmath" in sys.modules)
print(repr(loaded))
"""


def _mpmath_probe(*argvs):
    """{argv: (exit code, mpmath loaded)} from cli.main in one fresh
    interpreter, and under "import" whether importing the CLI loaded it."""
    src = pathlib.Path(cli.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", _MPMATH_PROBE, *argvs],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


def test_only_the_lattice_routes_load_mpmath():
    exact = [
        "lefschetz --n 5 --mode ones --hl",
        "hodge --n 3 --mode ones",
        "kneser --n 5 --k 2",
        "cohomology --n 4",
    ]
    loaded = _mpmath_probe(*exact)
    assert loaded.pop("import") is False
    assert loaded == {argv: (0, False) for argv in exact}
    for argv in ("lattice --case I --n 3", "lattice --n 3 --alt-k 1,2"):
        assert _mpmath_probe(argv)[argv] == (0, True)


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # -S: no site hook may load them first
    src = pathlib.Path(cli.__file__).parents[1]
    probe = ("import sys, aacohom.cli; "
             "print(sorted({'dataclasses', 'inspect', 'mpmath'} & set(sys.modules)))")
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_lattice_alt_k_guard_admits_its_limit_in_time():
    from aacohom.lattice import ALT_REMARK_MAX_EXPONENT as top

    done = _cli_process("lattice", "--n", "3", "--alt-k", f"{top - 1},{top}",
                        seconds=30)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["results"]["numeric_independence"] is True
    over = _cli_process("lattice", "--n", "3", "--alt-k", f"{top},{top + 1}",
                        seconds=30)
    assert over.returncode == 2
    assert "size guard" in over.stderr


def test_lattice_alt_k_admits_every_exponent_in_time():
    # the 16 admitted exponents place m_j whose units lie in 16 distinct
    # fields, so the longest list is certified
    ks = ",".join(str(k) for k in range(1, 17))
    done = _cli_process("lattice", "--n", "17", "--alt-k", ks, seconds=30)
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)["results"]
    assert results["numeric_independence"] is True
    assert len(results["alt_params"]) == 16


def _assert_case1_passes(d):
    done = _cli_process("lattice", "--case", "I", "--n", "2", "--d", d,
                        seconds=10)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["status"] == "ok"


def test_lattice_case1_with_a_30_digit_m_ends():
    # the working precision grows with m, so the trace residual passes
    _assert_case1_passes("991")


def test_lattice_case1_with_a_251_digit_m_passes():
    _assert_case1_passes("1000003")


def test_lattice_case1_beyond_n_13_ends_in_time():
    done = _cli_process("lattice", "--case", "I", "--n", "200", seconds=30)
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)["results"]
    assert results["hypothesis1_certified"] is True
    assert len(results["m_list"]) == 199


@pytest.mark.parametrize("argv", [
    "--case I --n 2 --d 1000000000000000000000000000057",  # trial division
    "--case II --n 2 --m 1000000000000000000000000000007",  # of m -+ 2
    "--case II --n 1225 --m 281474976710565",  # m -+ 2 both prime
    "--case I --n 2 --d 1000000000039",  # a Pell unit of over 16384 bits
    "--case I --n 100000",  # 99999 primes and Pell solutions
    f"--case I --n 13 --d {LARGE_MODULI}",  # 12 trial divisions to the bound
])
def test_lattice_long_inputs_are_refused_in_time(argv):
    done = _cli_process("lattice", *argv.split(), seconds=10)
    assert done.returncode == 2, done.stderr
    assert "usage error" in done.stderr


@pytest.mark.parametrize("argv", [
    "kneser --n 10000000 --k 5000000",  # C(n, k) has about 3 million digits
    "cohomology --n 1000000 --mode ones --basis --degree 1000000",
    "cohomology --n 2000 --mode ones --basis --degree 2000",  # H^2000's size
])
def test_huge_counts_are_refused_in_time_without_printing_them(argv):
    done = _cli_process(*argv.split(), seconds=10)
    assert done.returncode == 2, done.stderr
    assert len(done.stderr.encode()) < 1000


@pytest.mark.parametrize("argv", [
    "cohomology --n 2500 --mode ones --check-brute",
    "--format csv cohomology --n 2500 --mode ones --betti",
])
def test_refused_before_any_betti_number(argv, capsys, monkeypatch):
    def counted(*args):
        raise AssertionError("computed a Betti number")

    monkeypatch.setattr(ce_complex, "betti_closed_form", counted)
    assert run(capsys, *argv.split())[0] == 2
    started = time.monotonic()
    done = _cli_process(*argv.split(), seconds=10)
    assert time.monotonic() - started < 1
    assert done.returncode == 2, done.stderr


def test_lattice_bad_trace_residual_exits_1(capsys, monkeypatch):
    build = cli.build_lattice

    def off_trace(*args, **kwargs):
        return replace(build(*args, **kwargs), trace_residual=mpf(1))

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
    assert run(capsys, "lattice", "--n", "3", "--alt-k", "16,17")[0] == 2
    assert run(
        capsys, "cohomology", "--n", "2", "--mode", "explicit", "--b", "1/0"
    )[0] == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["cohomology", "--n", "3", "--unknown-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    ("--n 3 --degree 9", "--degree is only meaningful with --basis"),
    ("--n 3 --check-brute --degree 2", "--degree is only meaningful with --basis"),
    ("--n 7 --check-brute --basis", "--basis needs --degree"),
])
def test_degree_and_basis_are_checked_before_any_betti_number(
    capsys, monkeypatch, argv, message
):
    def counted(*args):
        raise AssertionError("computed a Betti number")

    for name in ("betti_closed_form", "betti_bruteforce"):
        monkeypatch.setattr(ce_complex, name, counted)
    assert cli.main(["cohomology", *argv.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"


@pytest.mark.parametrize("route", ["--hl", "--m 1", "--m 1 --check-kneser"])
def test_explicit_lefschetz_is_refused_before_the_kernel(capsys, monkeypatch,
                                                         route):
    def kernel(*args):
        raise AssertionError("reached the L_m kernel")

    monkeypatch.setattr(lefschetz, "_operator_columns", kernel)
    argv = ["lefschetz", "--n", "3", "--mode", "explicit", "--b", "1,2",
            *route.split()]
    assert run(capsys, *argv) == (2, "")


# the errors that mean a mathematical check failed
EXIT_1_ERRORS = {
    errors.InvariantViolationError,
    errors.StructureViolationError,
    errors.CertificateFailureError,
    errors.NotACocycleError,
    errors.InvalidSymplecticFormError,
    errors.NoHarmonicRepresentativeError,
}


def test_check_failure_exits_1(capsys, monkeypatch):
    # each exception class of errors, raised from a patched command, exits 1
    # exactly when it is an exit-1 error, and 2 otherwise
    assert set(errors.CheckFailure.__subclasses__()) == EXIT_1_ERRORS
    raised = [cls for cls in vars(errors).values()
              if isinstance(cls, type) and issubclass(cls, Exception)
              and cls is not errors.CheckFailure]
    assert EXIT_1_ERRORS < set(raised)
    for cls in raised:
        def broken(g, cls=cls):
            if cls is errors.StructureViolationError:
                raise cls(0, 0, 1, 0)
            raise cls("forced failure for the exit-code test")

        monkeypatch.setattr(cli, "verify_invertible", broken)
        code = run(capsys, "kneser", "--n", "5", "--k", "2", "--verify")[0]
        assert code == (1 if cls in EXIT_1_ERRORS else 2), cls


def test_flipped_lefschetz_entry_exits_1(capsys, monkeypatch):
    from test_lefschetz import _flip_one_entry

    _flip_one_entry(monkeypatch, 2)
    for route in ("--hl", "--m 2 --check-kneser"):  # the two certified routes
        argv = ["lefschetz", "--n", "4", "--mode", "ones", *route.split()]
        assert run(capsys, *argv) == (1, ""), route


def test_corrupt_theta_term_exits_1(capsys, monkeypatch):
    import aacohom.ce_complex as ce
    import aacohom.lefschetz as lf

    theta_data = ce._theta_data

    def corrupt(spec, r, s):
        thetas, inversions, crossings = theta_data(spec, r, s)
        return thetas, inversions, crossings ^ (2 if r == (4,) else 0)

    monkeypatch.setattr(ce, "_theta_data", corrupt)
    monkeypatch.setattr(lf, "_theta_data", corrupt)
    for route in ("--hl", "--m 2 --check-kneser"):  # the two certified routes
        argv = ["lefschetz", "--n", "4", "--mode", "ones", *route.split()]
        assert cli.main(argv) == 1, route
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("check failed: the signs of theta_{4|")


@pytest.mark.parametrize("spec, m", [(AlgebraSpec.ones(9), 9),
                                     (AlgebraSpec.ones(12), 7),
                                     (AlgebraSpec.generic(5), 3)])
def test_check_kneser_builds_no_whole_matrix(capsys, monkeypatch, spec, m):
    def whole(*args, **kwargs):
        raise AssertionError("built a whole L_m for a report that prints none")

    monkeypatch.setattr(cli, "lefschetz_matrix", whole)
    argv = ["lefschetz", "--n", str(spec.n), "--mode", spec.mode.value,
            "--m", str(m), "--check-kneser"]
    code, report = run_json(capsys, *argv)
    assert code == 0
    blocks = report["results"]["blocks"]
    assert sum(b["size"] for b in blocks) == betti_closed_form(spec, m)
    with pytest.raises(AssertionError, match="prints none"):
        cli.main(argv + ["--emit-matrix"])


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
