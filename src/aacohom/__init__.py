"""Exact cohomology, Lefschetz operators and lattices for diagonal
almost-abelian Lie algebras, with their Kneser-graph combinatorics."""

from .ce_complex import (
    AlgebraSpec,
    CohomologyBasis,
    Mode,
    betti_bruteforce,
    betti_closed_form,
    betti_sequence,
    cohomology_basis,
    differential,
    is_closed,
)
from .exterior_algebra import Form, Monomial, coefficient, top_pairing, wedge
from .kneser import KneserGraph, adjacency, spectrum, verify_invertible
from .lattice import (
    LatticeSpec,
    PellSolution,
    alt_remark_params,
    build_lattice,
    case1_params,
    hypothesis1_certificate,
    pell_min_solution,
)
from .lefschetz import (
    LefschetzMatrix,
    SymplecticForm,
    check_structure,
    hard_lefschetz_report,
    lefschetz_matrix,
    omega_power,
    project_to_cohomology,
    standard_omega,
)
from .symplectic_hodge import (
    dc,
    ddc_lemma_check,
    harmonic_representative,
    star,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraSpec",
    "CohomologyBasis",
    "Form",
    "KneserGraph",
    "LatticeSpec",
    "LefschetzMatrix",
    "Mode",
    "Monomial",
    "PellSolution",
    "SymplecticForm",
    "adjacency",
    "alt_remark_params",
    "betti_bruteforce",
    "betti_closed_form",
    "betti_sequence",
    "build_lattice",
    "case1_params",
    "check_structure",
    "coefficient",
    "cohomology_basis",
    "dc",
    "ddc_lemma_check",
    "differential",
    "hard_lefschetz_report",
    "harmonic_representative",
    "hypothesis1_certificate",
    "is_closed",
    "lefschetz_matrix",
    "omega_power",
    "pell_min_solution",
    "project_to_cohomology",
    "spectrum",
    "standard_omega",
    "star",
    "top_pairing",
    "verify_invertible",
    "wedge",
]
