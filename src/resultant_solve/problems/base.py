"""Shared problem-definition plumbing for the built-in minimal problems."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


class DegenerateDataError(ValueError):
    """Input data violates a builder precondition."""


@dataclass(frozen=True)
class Problem:
    """Everything the offline/online stages need to know about one problem.

    ``basis`` lists the column monomials as exponent tuples over the
    non-hidden variables (original variable order with the hidden one
    removed).  ``build(data)`` returns the instance's matrix polynomial as
    its float64 (d+1, N, N) coefficient stack; ``modular_matrix(rng, p)``
    returns a random instance of the matrix over Z_p as a (d+1, N, N)
    ``object`` stack of Python ints.
    """

    problem_id: str
    n_vars: int
    hidden_index: int
    basis: tuple
    expected_solutions: int
    build: Callable
    modular_matrix: Callable
    generate_instance: Callable
    original_equations: Callable
    data_to_json: Callable
    data_from_json: Callable
