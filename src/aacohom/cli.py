"""Command-line front end.

Subcommands: cohomology, lefschetz, kneser, hodge, lattice, verify-all.
Reports go to stdout (JSON by default; --format text/csv for matrices),
diagnostics and wall time to stderr.  Exit codes: 0 all checks passed,
1 a mathematical check failed, 2 usage error.  Identical invocations
produce byte-identical stdout.
"""

import argparse
import json
import sys
import time
from fractions import Fraction
from math import comb

from . import acceptance
from .ce_complex import (
    AlgebraSpec,
    Mode,
    betti_bruteforce,
    betti_closed_form,
    cohomology_basis,
)
from .errors import (
    CertificateFailureError,
    InvalidParameterError,
    InvalidSymplecticFormError,
    InvariantViolationError,
    NoHarmonicRepresentativeError,
    NotACocycleError,
    SizeLimitError,
    StructureViolationError,
    UnsupportedModeError,
)
from .kneser import (
    MAX_VERTICES,
    VERIFY_MAX_VERTICES,
    KneserGraph,
    adjacency,
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
    DENSE_MAX_DIMENSION,
    block_layout,
    check_structure,
    hard_lefschetz_report,
    lefschetz_matrix,
    require_size,
)
from .symplectic_hodge import operator_suite_failures

USAGE_ERRORS = (
    InvalidParameterError,
    UnsupportedModeError,
    SizeLimitError,
    ValueError,
)
CHECK_ERRORS = (
    InvariantViolationError,
    StructureViolationError,
    CertificateFailureError,
    NotACocycleError,
    InvalidSymplecticFormError,
    NoHarmonicRepresentativeError,
)


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


def _int_list(text):
    return [int(part) for part in text.split(",")]


def _matrix_lines(rows, cuts=()):
    """Space-separated integer rows with optional block separators.

    One format string serves every row, so a row costs one ``str.format``
    call; a cut column is preceded by ``|`` and a cut row by a dashed line.
    """
    cuts = {c for c in cuts if 0 < c < len(rows)}
    width = len(rows[0]) if rows else 0
    line = " ".join("| {}" if j in cuts else "{}" for j in range(width))
    rule = "-" * (2 * width + 2 * len(cuts) - 1)
    lines = []
    for i, row in enumerate(rows):
        if i in cuts:
            lines.append(rule)
        lines.append(line.format(*row))
    return lines


def _json(value, out, pad):
    """Append ``json.dumps(value, indent=2, sort_keys=True)`` to ``out``.

    ``pad`` is the indent of the line ``value`` starts on.  A list of plain
    ints (no bools) becomes one piece built by ``str``, so a matrix costs a
    fixed number of C-level calls per row; every other scalar goes through
    ``json.dumps``.  Keys must be ``str``.
    """
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n"
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, got {key!r}")
            out.append(sep + inner + json.dumps(key) + ": ")
            _json(value[key], out, inner)
            sep = ",\n"
        out.append("\n" + pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        if set(map(type, value)) == {int}:
            body = str(list(value))[1:-1].replace(", ", ",\n" + inner)
            out.append("[\n" + inner + body + "\n" + pad + "]")
            return
        sep = "[\n"
        for item in value:
            out.append(sep + inner)
            _json(item, out, inner)
            sep = ",\n"
        out.append("\n" + pad + "]")
    else:
        out.append(json.dumps(value))


def emit(report: dict, fmt: str) -> str:
    """Render a report: stable JSON, plain text, or CSV for matrices.

    JSON is byte-identical to ``json.dumps(report, indent=2,
    sort_keys=True)`` but is assembled by ``_json`` into one list of pieces
    joined once.  Text and CSV fill one format string per matrix, so each
    row is one ``str.format`` call.  The output is returned as one string,
    whose size ``benchmarks/tracer.py`` books as ``cli.emit_bytes``.
    """
    if fmt == "json":
        out = []
        _json(report, out, "")
        out.append("\n")
        return "".join(out)
    if fmt == "csv":
        matrix = report.get("results", {}).get("matrix")
        if matrix is None:
            raise InvalidParameterError("csv output needs a matrix payload")
        line = ",".join(["{}"] * (len(matrix[0]) if matrix else 0))
        return "\n".join(line.format(*row) for row in matrix) + "\n"
    lines = [f"command: {report['command']}"]
    for key, value in sorted(report.get("params", {}).items()):
        lines.append(f"{key}: {value}")
    results = report.get("results", {})
    for key, value in results.items():
        if key == "matrix":
            lines.extend(_matrix_lines(value, results.get("block_cuts", ())))
        elif key == "block_cuts":
            continue
        else:
            lines.append(f"{key}: {value}")
    lines.append(f"status: {report['status']}")
    return "\n".join(lines) + "\n"


def _cmd_cohomology(args):
    spec = _parse_spec(args)
    results = {}
    ok = True
    explicit = spec.mode is Mode.EXPLICIT
    degrees = range(spec.two_n + 1)
    if args.betti or not args.basis:
        betti = betti_bruteforce if explicit else betti_closed_form
        results["betti"] = [betti(spec, k) for k in degrees]
    if args.check_brute:
        brute = [betti_bruteforce(spec, k) for k in degrees]
        results["betti_bruteforce"] = brute
        # the reference computes no rank: basis sizes or the closed form
        if explicit:
            reference = [len(cohomology_basis(spec, k)) for k in degrees]
        else:
            reference = [betti_closed_form(spec, k) for k in degrees]
        ok = brute == reference
    if args.basis:
        degree = args.degree
        if degree is None:
            raise InvalidParameterError("--basis needs --degree")
        basis = cohomology_basis(spec, degree)
        results["degree"] = degree
        results["labels"] = list(basis.labels)
        results["monomials"] = [list(m.indices) for m in basis.elements]
        results["signs"] = list(basis.signs)
    return results, ok


def _lefschetz_cuts(spec, mat, report):
    """Block boundaries for the text rendering and the JSON payload.

    Ones mode reports them only with the structure check's ``report``.
    Generic even m >= 2 has a single block and is cut where the classes
    containing delta end instead.
    """
    if spec.mode is Mode.ONES and report is None:
        return []
    cuts = [b.offset for b in block_layout(spec, mat.m)[1:]]
    if spec.mode is Mode.GENERIC and mat.m and mat.m % 2 == 0:
        cuts.append(comb(spec.n - 1, mat.m // 2 - 1))
    return cuts


def _cmd_lefschetz(args):
    spec = _parse_spec(args)
    results = {}
    ok = True
    if args.hl:
        report = hard_lefschetz_report(spec)
        results["operators"] = [
            {"m": op.m, "size": op.size, "determinant": str(op.determinant)}
            for op in report.operators
        ]
        results["hard_lefschetz"] = report.hard_lefschetz
        ok = ok and report.hard_lefschetz
        return results, ok
    if args.m is None:
        raise InvalidParameterError("--m is required (or use --hl)")
    dense = args.emit_matrix or not args.check_kneser
    size = require_size(spec, args.m)
    if dense and size > DENSE_MAX_DIMENSION:
        raise SizeLimitError(
            f"the dense matrix of L_{args.m} has {size} rows; "
            f"the limit is {DENSE_MAX_DIMENSION}"
        )
    mat = lefschetz_matrix(spec, args.m)
    report = None
    if args.check_kneser:
        report = check_structure(spec, mat)
        results["structure"] = report.summary()
        results["blocks"] = [
            {
                "offset": b.offset,
                "size": b.size,
                "kind": b.kind,
                "params": list(b.params),
                "tag": b.tag,
            }
            for b in report.blocks
        ]
    if dense:
        results["matrix"] = mat.rows_as_lists()
        results["block_cuts"] = _lefschetz_cuts(spec, mat, report)
        results["row_labels"] = list(mat.row_basis.labels)
        results["col_labels"] = list(mat.col_basis.labels)
    det = mat.determinant()
    results["determinant"] = str(det)
    ok = ok and det != 0
    return results, ok


def _cmd_kneser(args):
    g = KneserGraph(args.n, args.k)
    require_vertex_count(g, VERIFY_MAX_VERTICES if args.verify else MAX_VERTICES)
    results = {
        "vertices": [list(v) for v in g.vertices],
        "vertex_degree": g.degree,
    }
    ok = True
    if args.emit_matrix or not (args.spectrum or args.verify):
        results["matrix"] = adjacency(g)
    if args.spectrum:
        results["eigenvalues"] = [
            {"j": j, "value": value} for value, j in spectrum(g)
        ]
    if args.verify:
        cert = verify_invertible(g)
        results["determinant"] = str(cert.determinant)
        results["annihilator_vanishes"] = cert.annihilator_vanishes
        ok = cert.annihilator_vanishes and cert.determinant != 0
    return results, ok


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
    ok = True
    if args.alt_k:
        values = alt_remark_params(args.n, _int_list(args.alt_k))
        results["alt_params"] = [str(v) for v in values]
        cert = hypothesis1_certificate(values, require_structural=False)
        results["numeric_independence"] = cert.numeric_ok
        ok = cert.numeric_ok
        return results, ok
    if args.case is None:
        raise InvalidParameterError("--case I or --case II is required")
    case = args.case.upper()
    if case == "I":
        d_list = _int_list(args.d) if args.d else None
        params = case1_params(args.n, d_list)
        results["pell_solutions"] = [
            {"d": s.d, "m": str(s.m), "k": str(s.k)} for s in params
        ]
        package = build_lattice("I", args.n, params)
    elif case == "II":
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
    parser.add_argument(
        "--format", choices=("text", "json", "csv"), default="json"
    )
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
                   help="comma-separated square-free moduli for case I")
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
        results, ok = args.fn(args)
    except CHECK_ERRORS as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except USAGE_ERRORS as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - started
    if args.command == "verify-all":
        report = dict(results)
        report["command"] = "verify-all"
        report["status"] = "ok" if ok else "fail"
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
            "status": "ok" if ok else "fail",
        }
    try:
        rendered = emit(report, args.format)
    except USAGE_ERRORS as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(rendered)
    print(f"[{args.command}] {elapsed:.3f}s", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
