"""Sampling-based, inversion-free hidden-variable resultant solver.

The package turns a minimal geometric-vision problem into a matrix whose
entries are polynomials in one hidden variable, reconstructs the
determinant polynomial from unit-circle samples by inverse FFT, roots it
through a companion matrix, and recovers the remaining unknowns as
Cramer-rule determinant ratios on a GCD-validated submatrix.
"""

from .matrixpoly import det_complex, evaluate_at
from .offline import (
    SolverTemplate,
    TemplateError,
    build_template,
    detect_degree,
    find_deletion_pair,
    select_recovery_pairs,
    template_from_json,
    template_to_json,
)
from .poly import PolynomialSystem
from .problems import PROBLEMS, generate_instance, get_problem, original_equations
from .recover import (
    CandidateSolution,
    SolutionSet,
    SolveError,
    solve_online,
)
from .rootfind import real_candidates, roots
from .spectral import batched_eval, recover_coefficients, trim

__version__ = "0.1.0"

__all__ = [
    "CandidateSolution",
    "PROBLEMS",
    "PolynomialSystem",
    "SolutionSet",
    "SolveError",
    "SolverTemplate",
    "TemplateError",
    "batched_eval",
    "build_template",
    "det_complex",
    "detect_degree",
    "evaluate_at",
    "find_deletion_pair",
    "generate_instance",
    "get_problem",
    "original_equations",
    "real_candidates",
    "recover_coefficients",
    "roots",
    "select_recovery_pairs",
    "solve_online",
    "template_from_json",
    "template_to_json",
    "trim",
]
