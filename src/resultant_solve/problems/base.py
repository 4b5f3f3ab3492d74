"""Shared problem-definition plumbing for the built-in minimal problems."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class DegenerateDataError(ValueError):
    """Input data violates a builder precondition."""


def matrix_layout(monomials, rows, basis, hidden_index: int) -> np.ndarray:
    """(d+1, N, N) gather index of M(hidden) into the equations plus a zero.

    ``monomials`` is the (M, n) exponent table, over all n variables, of an
    (m, M) equation coefficient array; ``rows`` lists the matrix rows as
    (equation e, multiplier u) pairs and ``basis`` the column monomials,
    both as exponent tuples over the non-hidden variables.  Row r is
    equation e times u, so entry (l, r, c) indexes e's coefficient of
    basis[c] / u times hidden^l in the flattened equations, or is -1 when
    e has no such monomial.  ``np.append(equations, 0)[layout]`` is then
    the stack, and -1 reads the appended zero.
    """
    monomials = np.asarray(monomials)
    slot = {tuple(e): j for j, e in enumerate(monomials.tolist())}
    layout = np.full((monomials[:, hidden_index].max() + 1, len(rows), len(basis)), -1)
    for r, (e, u) in enumerate(rows):
        for c, column in enumerate(basis):
            rest = tuple(b - a for a, b in zip(u, column))
            for power in range(len(layout)):
                j = slot.get(rest[:hidden_index] + (power,) + rest[hidden_index:])
                if j is not None:
                    layout[power, r, c] = e * len(monomials) + j
    return layout


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
    ``build`` gathers the stack through the ``matrix_layout`` of the
    module's ``ROWS``, (equation, multiplier) pairs, and is ring-agnostic:
    it keeps the dtype of its input.  ``modular_matrix(rng, p)`` returns a
    random instance of the matrix over Z_p as a (d+1, N, N) ``object``
    stack of Python ints, by running ``build`` on exact ``object``
    equations drawn from random residues and reducing mod p.
    ``equation_rows`` names the matrix rows that are the original
    equations, those of ``ROWS`` whose multiplier is 1: row i of M(z)
    times the basis monomials v(x) is one equation, which is how the
    online stage scores its candidates.
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
