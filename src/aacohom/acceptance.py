"""The full self-check suite behind ``aacohom verify-all``.

Each criterion is a function returning a JSON-ready dict with a boolean
``passed``; ``verify_all`` adds its ``id``, its place in ``CRITERIA`` from
1, the order in which ``benchmarks/tracer.py`` names them too.  Nothing
time-dependent goes into the payload so that two runs with the same
arguments emit identical bytes.  ``--max-n`` caps the algebra sizes; the
stated ranges need max_n = 6.
"""

from .ce_complex import (
    AlgebraSpec,
    betti_bruteforce,
    betti_closed_form,
    betti_sequence,
)
from .kneser import KneserGraph, verify_invertible
from .lattice import (
    alt_remark_params,
    build_lattice,
    case1_params,
    lattice_failures,
    pell_min_solution,
)
from .lefschetz import lefschetz_matrix
from .symplectic_hodge import operator_suite_failures

GOLDEN_M4_5 = (
    (0, 0, 0, 0, 0, 0, 0, 1, 1, 1),
    (0, 0, 0, 0, 0, 1, 1, 0, 0, 1),
    (0, 0, 0, 0, 1, 0, 1, 0, 1, 0),
    (0, 0, 0, 0, 1, 1, 0, 1, 0, 0),
    (0, 0, 1, 1, 0, 0, 0, 0, 0, 1),
    (0, 1, 0, 1, 0, 0, 0, 0, 1, 0),
    (0, 1, 1, 0, 0, 0, 0, 1, 0, 0),
    (1, 0, 0, 1, 0, 0, 1, 0, 0, 0),
    (1, 0, 1, 0, 0, 1, 0, 0, 0, 0),
    (1, 1, 0, 0, 1, 0, 0, 0, 0, 0),
)

BETTI_GENERIC_N5 = (1, 2, 5, 8, 10, 12, 10, 8, 5, 2, 1)
BETTI_ONES_N3 = (1, 2, 5, 8, 5, 2, 1)
PELL_GOLDEN = {2: (6, 4), 3: (4, 2), 5: (3, 1), 7: (16, 6)}
ALT_REMARK_GOLDEN = (4, 8, 55, 2981)


_matrices = None  # {(spec, m): verified L_m} while verify_all runs


def _matrix(spec: AlgebraSpec, m: int):
    """lefschetz_matrix(spec, m), built once per verify_all call."""
    if _matrices is None:
        return lefschetz_matrix(spec, m)
    if (spec, m) not in _matrices:
        _matrices[spec, m] = lefschetz_matrix(spec, m)
    return _matrices[spec, m]


def _standard_specs(max_n: int):
    for n in range(2, min(6, max_n) + 1):
        yield from (AlgebraSpec.generic(n), AlgebraSpec.ones(n))


def criterion_golden_matrix(max_n: int) -> dict:
    name = "golden 10x10 Lefschetz matrix for n=5, m=4 (generic mode)"
    if max_n < 5:
        return {"name": name, "skipped": True, "passed": True}
    spec = AlgebraSpec.generic(5)
    mat = _matrix(spec, 4)  # criteria 4 and 5 reuse it
    rows = mat.rows_as_lists()
    matches = rows == [list(row) for row in GOLDEN_M4_5]
    zero_block = all(rows[i][j] == 0 for i in range(4) for j in range(4))
    return {
        "name": name,
        "passed": bool(matches and zero_block),
        "details": {"matches_print": matches, "upper_left_zero": zero_block},
    }


def _betti_criterion(max_n, label, make, top, golden):
    """Closed form == brute force for n = 2..top, and one golden sequence."""
    top = min(top, max_n)
    mismatches = []
    for n in range(2, top + 1):
        spec = make(n)
        for k in range(2 * n + 1):
            if betti_closed_form(spec, k) != betti_bruteforce(spec, k):
                mismatches.append([n, k])
    golden_n = len(golden) // 2
    seq_ok = max_n < golden_n or tuple(betti_sequence(make(golden_n))) == golden
    return {
        "name": f"Betti numbers, {label} weights: closed form == brute force",
        "passed": not mismatches and seq_ok,
        "details": {
            "n_range": [2, top],
            "mismatches": mismatches,
            f"n{golden_n}_sequence_ok": seq_ok,
        },
    }


def criterion_betti_case1(max_n: int) -> dict:
    return _betti_criterion(max_n, "generic", AlgebraSpec.generic, 6, BETTI_GENERIC_N5)


def criterion_betti_case2(max_n: int) -> dict:
    return _betti_criterion(max_n, "unit", AlgebraSpec.ones, 5, BETTI_ONES_N3)


def criterion_hard_lefschetz(max_n: int) -> dict:
    name = "hard-Lefschetz: det(L_m) != 0 for all m, both modes"
    failures = [
        [spec.mode.value, spec.n, m]
        for spec in _standard_specs(max_n)
        for m in range(spec.n + 1)
        if _matrix(spec, m).determinant() == 0
    ]
    return {
        "name": name,
        "passed": not failures,
        "details": {"n_range": [2, min(6, max_n)], "zero_determinants": failures},
    }


def criterion_kneser_structure(max_n: int) -> dict:
    name = "Lefschetz matrices decompose into Kneser adjacency blocks"
    failures = []
    checked = 0
    for spec in _standard_specs(max_n):
        for m in range(spec.n + 1):
            try:
                _matrix(spec, m)
                checked += 1
            except Exception as exc:  # noqa: BLE001 - recorded, not masked
                failures.append([spec.mode.value, spec.n, m, str(exc)])
    return {
        "name": name,
        "passed": not failures,
        "details": {
            "n_range": [2, min(6, max_n)],
            "checked": checked,
            "failures": failures,
        },
    }


def criterion_kneser_spectra(max_n: int) -> dict:
    name = "Kneser spectra: annihilating polynomial vanishes exactly (n <= 8)"
    failures = []
    checked = 0
    for n in range(2, 9):
        for k in range(1, n // 2 + 1):
            g = KneserGraph(n, k)
            try:  # raises unless det != 0 and the annihilator vanishes
                verify_invertible(g)
            except Exception as exc:  # noqa: BLE001
                failures.append([n, k, str(exc)])
                continue
            checked += 1
    return {
        "name": name,
        "passed": not failures,
        "details": {"checked": checked, "failures": failures},
    }


def criterion_pell(max_n: int) -> dict:
    name = "minimal Pell solutions for d = 2, 3, 5, 7"
    results = {}
    ok = True
    for d, expected in PELL_GOLDEN.items():
        sol = pell_min_solution(d)
        results[str(d)] = [str(sol.m), str(sol.k)]
        if (sol.m, sol.k) != expected:
            ok = False
    return {"name": name, "passed": ok, "details": {"solutions": results}}


def criterion_lattices(max_n: int) -> dict:
    name = "lattice certification: det E = 1, conjugacy and trace residuals"
    failures = []
    packages = []
    if max_n >= 5:
        packages.append(build_lattice("I", 5, case1_params(5, [2, 3, 5, 7])))
    for n in range(2, min(5, max_n) + 1):
        packages.append(build_lattice("II", n, 3))
    for pkg in packages:
        label = f"case {pkg.case} n={pkg.n}"
        failures.extend([label, reason] for reason in lattice_failures(pkg))
    return {
        "name": name,
        "passed": not failures,
        "details": {
            "packages": [f"case {p.case} n={p.n}" for p in packages],
            "failures": failures,
        },
    }


def criterion_alt_remark(max_n: int) -> dict:
    name = "cosh-interval parameters (4, 8, 55, 2981)"
    values = tuple(alt_remark_params(5, (1, 2, 3, 4)))
    return {
        "name": name,
        "passed": values == ALT_REMARK_GOLDEN,
        "details": {"values": list(values)},
    }


def criterion_operator_suite(max_n: int) -> dict:
    name = "operator suite: star/d^c identities, harmonic reps, dd^c lemma"
    failures = []
    for n in range(2, min(3, max_n) + 1):
        spec = AlgebraSpec.explicit([3 ** j for j in range(1, n)])
        label = f"explicit n={n}"
        failures.extend(
            [label, k, reason] for k, reason in operator_suite_failures(spec)
        )
    return {
        "name": name,
        "passed": not failures,
        "details": {"failures": failures},
    }


CRITERIA = (
    criterion_golden_matrix,
    criterion_betti_case1,
    criterion_betti_case2,
    criterion_hard_lefschetz,
    criterion_kneser_structure,
    criterion_kneser_spectra,
    criterion_pell,
    criterion_lattices,
    criterion_alt_remark,
    criterion_operator_suite,
)


def verify_all(max_n: int = 5) -> dict:
    """Run every criterion capped at max_n; deterministic payload."""
    global _matrices
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    _matrices = {}
    try:
        results = [{"id": i, **fn(max_n)} for i, fn in enumerate(CRITERIA, 1)]
    finally:
        _matrices = None
    return {
        "max_n": max_n,
        "criteria": results,
        "all_passed": all(r["passed"] for r in results),
    }
