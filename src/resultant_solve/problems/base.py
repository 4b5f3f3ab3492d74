"""Shared problem-definition plumbing for the built-in minimal problems."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


class DegenerateDataError(ValueError):
    """Input data violates a builder precondition."""


@dataclass(frozen=True)
class Problem:
    """Everything the offline/online stages need to know about one problem.

    ``basis`` lists the column monomials as exponent tuples over the
    non-hidden variables (original variable order with the hidden one
    removed).  ``original_equations(data)`` writes the instance's equations
    as their float64 (m, M) coefficient array over the problem module's
    ``MONOMIALS`` table, and ``build(equations)`` turns that array into the
    matrix polynomial's (d+1, N, N) coefficient stack, so the online stage
    runs the data-dependent work (for ``five_point``, an SVD) once.
    ``build`` is the problem's one stack layout and is ring-agnostic: it
    keeps the dtype of its input.  ``modular_matrix(rng, p)`` returns a
    random instance of the matrix over Z_p as a (d+1, N, N) ``object``
    stack of Python ints, by running ``build`` on exact ``object``
    equations drawn from random residues and reducing mod p.
    ``equation_rows`` names the matrix rows that are the original
    equations: row i of M(z) times the basis monomials v(x) is one
    equation, which is how the online stage scores its candidates.
    ``second_frame(data)``, when set, returns ``(equations, q)``: the
    instance's equations with the homogeneous unknowns [x, 1] mixed by the
    constant orthogonal q, so that a solution x' there is q^T [x', 1] up
    to scale here.  The online stage re-solves in that frame
    an instance whose first solve accepted nothing.
    """

    problem_id: str
    n_vars: int
    hidden_index: int
    basis: tuple
    equation_rows: tuple
    expected_solutions: int
    build: Callable
    modular_matrix: Callable
    generate_instance: Callable
    original_equations: Callable
    data_to_json: Callable
    data_from_json: Callable
    second_frame: Optional[Callable] = None
