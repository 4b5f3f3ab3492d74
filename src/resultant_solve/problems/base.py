"""Shared problem-definition plumbing for the built-in minimal problems."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class DegenerateDataError(ValueError):
    """Input data violates a builder precondition."""


def matrix_layout(monomials, rows, basis) -> np.ndarray:
    """(d+1, N, N) gather index of M(hidden) into the equations plus a zero.

    ``monomials`` is the (M, n) exponent table, over all n variables with
    the hidden one last, of an (m, M) equation coefficient array; ``rows``
    lists the matrix rows as (equation e, multiplier u) pairs and ``basis``
    the column monomials, both as exponent tuples over the first n-1.
    Row r is equation e times u, so entry (l, r, c) indexes e's coefficient of
    basis[c] / u times hidden^l in the flattened equations, or is -1 when
    e has no such monomial.  ``np.append(equations, 0)[layout]`` is then
    the stack, and -1 reads the appended zero.
    """
    monomials = np.asarray(monomials)
    slot = {tuple(e): j for j, e in enumerate(monomials.tolist())}
    layout = np.full((monomials[:, -1].max() + 1, len(rows), len(basis)), -1)
    for r, (e, u) in enumerate(rows):
        for c, column in enumerate(basis):
            rest = tuple(b - a for a, b in zip(u, column))
            for power in range(len(layout)):
                j = slot.get(rest + (power,))
                if j is not None:
                    layout[power, r, c] = e * len(monomials) + j
    return layout


def substitution(monomials, P) -> np.ndarray:
    """(M, M) matrix T for which ``equations @ T`` are the equations over u'.

    u = [x, 1] = P u', and ``monomials`` is the (M, n) table of every
    monomial of degree at most D in x, so each is a u^a of degree D.  Row a
    of T expands u^a, a product of D rows of P, over every ordered sequence
    of D columns, and adds each term to its monomial's slot: no inverse.
    """
    degree = int(monomials.sum(axis=1).max())
    homogeneous = np.column_stack([monomials, degree - monomials.sum(axis=1)])
    slot = {tuple(e): j for j, e in enumerate(homogeneous.tolist())}
    columns = np.indices((len(P),) * degree).reshape(degree, -1).T
    targets = [slot[tuple(np.bincount(c, minlength=len(P)))] for c in columns]
    out = np.zeros((len(monomials), len(monomials)))
    for a, exponents in enumerate(homogeneous):
        rows = np.repeat(np.arange(len(P)), exponents)  # the D factors of u^a
        np.add.at(out[a], targets, np.prod(P[rows, columns], axis=1))
    return out


@dataclass(frozen=True)
class Problem:
    """Everything the offline/online stages need to know about one problem.

    The hidden variable is the last of the ``n_vars`` unknowns, and
    ``basis`` lists the column monomials as exponent tuples over the
    others, in order; ``n_vars`` is read from the basis.
    ``original_equations(data)`` writes the instance's equations as their
    float64 (m, M) coefficient array over the problem module's
    ``MONOMIALS`` table, whose last column is the hidden exponent, and
    ``build(equations)`` turns that array into the matrix polynomial's
    (d+1, N, N) coefficient stack, so the online stage runs the
    data-dependent work (for ``five_point``, an SVD) once.
    ``build`` gathers the stack through the ``matrix_layout`` of the
    module's ``ROWS``, (equation, multiplier) pairs, and is ring-agnostic:
    it keeps the dtype of its input.  ``modular_matrix(rng, p)`` returns a
    random instance of the matrix over Z_p as a (d+1, N, N) stack of
    residues in [0, p), in ``int64``, by running ``build`` on equations
    drawn from random residues: ``conic`` builds from its residue
    equations and reduces the stack mod p; ``five_point`` computes its
    triple forms in ``int64`` residues mod p and scatters them in ``int64``.
    ``equation_rows`` names the matrix rows that are the original
    equations, those of ``ROWS`` whose multiplier is 1: row i of M(z)
    times the basis monomials v(x) is one equation, which is how the
    online stage scores its candidates.
    ``frames`` holds constant (P, T) pairs, T = ``substitution(MONOMIALS,
    P)``: ``equations @ T`` are the equations over u' for [x, 1] = P u', so
    a solution x' there is P [x', 1] up to scale here.  The online stage
    adds the next frame's candidates while none is within its threshold.
    """

    problem_id: str
    basis: tuple
    equation_rows: tuple
    expected_solutions: int
    build: Callable
    modular_matrix: Callable
    generate_instance: Callable
    original_equations: Callable
    data_to_json: Callable
    data_from_json: Callable
    frames: tuple = ()

    @property
    def n_vars(self) -> int:
        """The number of unknowns, the hidden one included."""
        return len(self.basis[0]) + 1
