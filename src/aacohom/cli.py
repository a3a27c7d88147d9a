"""Command-line front end.

Subcommands: cohomology, lefschetz, kneser, hodge, lattice, verify-all.
Reports go to stdout (JSON by default; --format text/csv for matrices),
rendered by ``render.emit``; diagnostics and wall time go to stderr.  Exit codes: 0 all checks passed,
1 a mathematical check failed (``CheckFailure``), 2 usage error.  Identical invocations
produce byte-identical stdout.
"""

import argparse
import sys
import time
from fractions import Fraction
from math import comb

from . import acceptance
from .ce_complex import (
    COHOMOLOGY_MAX_N,
    AlgebraSpec,
    Mode,
    betti_sequence,
    cohomology_basis,
)
from .errors import (
    CheckFailure,
    InvalidParameterError,
    SizeLimitError,
    UnsupportedModeError,
)
from .kneser import (
    MAX_VERTICES,
    KneserGraph,
    certificate_work,
    neighbours,
    require_vertex_count,
    spectrum,
    verify_invertible,
)
from .lattice import (
    alt_remark_params,
    build_lattice,
    case1_params,
    hypothesis1_certificate,
    lattice_failures,
)
from .lefschetz import (
    certified_blocks,
    hard_lefschetz_report,
    lefschetz_matrix,
    structure,
)
from .render import OnesRows, emit
from .symplectic_hodge import operator_suite_failures


def _has_matrix(args) -> bool:
    """Whether the report of ``args`` carries a matrix, the one payload csv
    renders; the commands read it too, so csv is refused before any work."""
    if args.command == "lefschetz":
        return not args.hl and (args.emit_matrix or not args.check_kneser)
    if args.command == "kneser":
        return args.emit_matrix or not (args.spectrum or args.verify)
    return False


def _parse_spec(args) -> AlgebraSpec:
    mode = Mode.parse(args.mode)
    if mode is Mode.EXPLICIT:
        if not args.b:
            raise UnsupportedModeError("explicit mode needs --b p/q,p/q,...")
        try:
            weights = [Fraction(part) for part in args.b.split(",")]
        except (ValueError, ZeroDivisionError):
            raise InvalidParameterError(
                f"--b needs comma-separated rationals p/q, got {args.b!r}"
            ) from None
        spec = AlgebraSpec.explicit(weights)
        if spec.n != args.n:
            raise InvalidParameterError(
                f"--b lists {spec.n - 1} weights but --n is {args.n}"
            )
        return spec
    if args.b:
        raise InvalidParameterError("--b is only meaningful with --mode explicit")
    return AlgebraSpec(args.n, mode)


def _int_list(option, text):
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise InvalidParameterError(
            f"{option} needs comma-separated integers, got {text!r}"
        ) from None


def _cmd_cohomology(args):
    if args.basis and args.degree is None:
        raise InvalidParameterError("--basis needs --degree")
    if args.degree is not None and not args.basis:
        raise InvalidParameterError("--degree is only meaningful with --basis")
    if args.n > COHOMOLOGY_MAX_N:
        raise SizeLimitError(f"cohomology is limited to n <= {COHOMOLOGY_MAX_N}")
    spec = _parse_spec(args)
    results = {}
    ok = True
    if args.check_brute:  # first: BRUTEFORCE_MAX_N refuses before any work
        brute = betti_sequence(spec, bruteforce=True)
    if args.betti or not args.basis:
        results["betti"] = betti_sequence(spec)
    if args.check_brute:
        results["betti_bruteforce"] = brute
        # the reference computes no rank: basis sizes or the closed form
        if spec.mode is Mode.EXPLICIT:
            reference = [len(cohomology_basis(spec, k)) for k in range(len(brute))]
        else:
            reference = betti_sequence(spec)
        ok = brute == reference
    if args.basis:
        basis = cohomology_basis(spec, args.degree)
        results["degree"] = args.degree
        results["labels"] = list(basis.labels)
        results["monomials"] = [list(m.indices) for m in basis.elements]
        results["signs"] = list(basis.signs)
    return results, ok


def _lefschetz_cuts(spec, mat, check_kneser):
    """Block boundaries for the text rendering and the JSON payload.

    Ones mode reports them only with ``--check-kneser``.  Generic even
    m >= 2 has a single block and is cut where the classes containing delta
    end instead.
    """
    if spec.mode is Mode.ONES and not check_kneser:
        return []
    cuts = [b.offset for b in mat.blocks[1:]]
    if spec.mode is Mode.GENERIC and mat.m and mat.m % 2 == 0:
        cuts.append(comb(spec.n - 1, mat.m // 2 - 1))
    return cuts


def _cmd_lefschetz(args):
    spec = _parse_spec(args)
    results = {}
    if args.hl:
        for option, given in (("--m", args.m is not None),
                              ("--emit-matrix", args.emit_matrix),
                              ("--check-kneser", args.check_kneser)):
            if given:
                raise InvalidParameterError(f"{option} is not meaningful with --hl")
        report = hard_lefschetz_report(spec)
        results["operators"] = [
            {"m": op.m, "size": op.size, "determinant": str(op.determinant)}
            for op in report.operators
        ]
        results["hard_lefschetz"] = report.hard_lefschetz
        return results, report.hard_lefschetz
    if args.m is None:
        raise InvalidParameterError("--m is required (or use --hl)")
    emit_matrix = _has_matrix(args)
    if emit_matrix:  # verified on construction, up to DENSE_MAX_DIMENSION
        mat = lefschetz_matrix(spec, args.m, labels=True)
        blocks, det = mat.blocks, mat.determinant()
    else:  # one block per pattern, and no whole matrix
        blocks, det = certified_blocks(spec, args.m)
    if args.check_kneser:
        results["structure"] = structure(blocks)
        # a new dict of each block's fields, params as a list
        results["blocks"] = [{**vars(b), "params": list(b.params)} for b in blocks]
    if emit_matrix:
        ones = [[] for _ in range(mat.size)]
        for j, column in enumerate(mat.columns):
            for i in column:
                ones[i].append(j)
        results["matrix"] = OnesRows(mat.size, tuple(ones))
        results["block_cuts"] = _lefschetz_cuts(spec, mat, args.check_kneser)
        results["row_labels"] = list(mat.row_basis.labels)
        results["col_labels"] = list(mat.col_basis.labels)
    results["determinant"] = str(det)
    return results, det != 0


def _cmd_kneser(args):
    g = KneserGraph(args.n, args.k)
    if args.verify:  # the budget refuses before any vertex is listed
        certificate_work(g)
    require_vertex_count(g, MAX_VERTICES)
    results = {"vertices": [list(v) for v in g.vertices], "vertex_degree": g.degree}
    if _has_matrix(args):
        results["matrix"] = OnesRows(g.vertex_count, tuple(neighbours(g)))
    if args.spectrum:
        results["eigenvalues"] = [
            {"j": j, "value": value} for value, j in spectrum(g)
        ]
    if args.verify:
        cert = verify_invertible(g)
        results["determinant"] = str(cert.determinant)
        results["annihilator_vanishes"] = cert.annihilator_vanishes
    return results, True  # verify_invertible raises on a failed check


HODGE_CHECKS = (
    ("star is an involution", "star not involutive"),
    ("dc o dc = 0", "dc^2 != 0"),
    ("d dc = -dc d", "d dc != -dc d"),
    ("dc = [d, Lambda]", "dc != [d, Lambda]"),
    ("dd^c lemma in every degree", "dd^c lemma fails"),
    ("harmonic representative for every basis class",
     "non-harmonic representative"),
)


def _cmd_hodge(args):
    spec = _parse_spec(args)
    failed = {reason for _, reason in operator_suite_failures(spec)}
    checks = [
        {"name": name, "passed": reason not in failed}
        for name, reason in HODGE_CHECKS
    ]
    return {"checks": checks}, not failed


def _cmd_lattice(args):
    results = {}
    # conflicting options are refused here, before any mpmath work
    if args.alt_k is not None:
        for option in ("case", "d", "m"):
            if getattr(args, option) is not None:
                raise InvalidParameterError(
                    f"--{option} is not meaningful with --alt-k"
                )
        values = alt_remark_params(args.n, _int_list("--alt-k", args.alt_k))
        results["alt_params"] = [str(v) for v in values]
        hypothesis1_certificate(values)  # raises unless they are independent
        results["numeric_independence"] = True  # the pinned output's key
        return results, True
    if args.case is None:
        raise InvalidParameterError("--case I or --case II is required")
    case = args.case.upper()
    if case == "I":
        if args.m is not None:
            raise InvalidParameterError("--m is only meaningful with --case II")
        d_list = _int_list("--d", args.d) if args.d is not None else None
        params = case1_params(args.n, d_list)
        results["pell_solutions"] = [
            {"d": s.d, "m": str(s.m), "k": str(s.k)} for s in params
        ]
        package = build_lattice("I", args.n, params)
    elif case == "II":
        if args.d is not None:
            raise InvalidParameterError("--d is only meaningful with --case I")
        if args.m is None:
            raise InvalidParameterError("case II needs --m")
        package = build_lattice("II", args.n, args.m)
    else:
        raise InvalidParameterError(f"unknown case {args.case!r}")
    results.update(package.to_json_dict())
    return results, not lattice_failures(package)


def _cmd_verify_all(args):
    report = acceptance.verify_all(args.max_n)
    return report, report["all_passed"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aacohom",
        description=(
            "exact cohomology, Lefschetz operators, Kneser structure and "
            "lattices for diagonal almost-abelian Lie algebras"
        ),
    )
    parser.add_argument("--format", choices=("text", "json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_args(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--mode", default="generic",
                       choices=("generic", "ones", "explicit"))
        p.add_argument("--b", default=None,
                       help="comma-separated rationals p/q for explicit mode")

    p = sub.add_parser("cohomology", help="Betti numbers and cohomology bases")
    add_spec_args(p)
    p.add_argument("--betti", action="store_true")
    p.add_argument("--check-brute", action="store_true",
                   help="cross-check against the rank oracle")
    p.add_argument("--basis", action="store_true")
    p.add_argument("--degree", type=int, default=None)
    p.set_defaults(fn=_cmd_cohomology)

    p = sub.add_parser("lefschetz", help="Lefschetz matrices and verdicts")
    add_spec_args(p)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--emit-matrix", action="store_true")
    p.add_argument("--check-kneser", action="store_true")
    p.add_argument("--hl", action="store_true",
                   help="full hard-Lefschetz report over all m")
    p.set_defaults(fn=_cmd_lefschetz)

    p = sub.add_parser("kneser", help="Kneser graphs: matrices and spectra")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--emit-matrix", action="store_true")
    p.add_argument("--spectrum", action="store_true")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(fn=_cmd_kneser)

    p = sub.add_parser("hodge", help="symplectic star operator suite checks")
    add_spec_args(p)
    p.set_defaults(fn=_cmd_hodge)

    p = sub.add_parser("lattice", help="Pell solutions and lattice packages")
    p.add_argument("--case", default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", default=None,
                   help="comma-separated distinct square-free moduli for case I")
    p.add_argument("--m", type=int, default=None, help="case II parameter")
    p.add_argument("--alt-k", default=None,
                   help="comma-separated exponents for the cosh intervals")
    p.set_defaults(fn=_cmd_lattice)

    p = sub.add_parser("verify-all", help="run the full acceptance suite")
    p.add_argument("--max-n", type=int, default=5)
    p.set_defaults(fn=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    # L_m determinants pass CPython's 4300-digit int-to-str limit from ones
    # n = 10 on; lift it for this call (builds before 3.10.7 have no limit)
    limited = hasattr(sys, "get_int_max_str_digits")
    if limited:
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return _run(build_parser().parse_args(argv))
    finally:
        if limited:
            sys.set_int_max_str_digits(old_limit)


def _run(args) -> int:
    started = time.monotonic()
    try:
        if args.format == "csv" and not _has_matrix(args):
            raise InvalidParameterError("csv output needs a matrix payload")
        results, ok = args.fn(args)
    except CheckFailure as exc:  # before ValueError, which some of them are
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - started
    status = "ok" if ok else "fail"
    if args.command == "verify-all":
        report = {**results, "command": "verify-all", "status": status}
    else:
        params = {
            key: value
            for key, value in vars(args).items()
            if key not in ("fn", "format", "command") and value is not None
        }
        report = {
            "command": args.command,
            "params": params,
            "results": results,
            "status": status,
        }
    rendered = emit(report, args.format)  # csv has its matrix, by _has_matrix
    del report, results  # free the payload before stdout copies the text
    sys.stdout.write(rendered)
    print(f"[{args.command}] {elapsed:.3f}s", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
