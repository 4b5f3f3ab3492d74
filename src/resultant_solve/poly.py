"""Dense polynomial equation systems and their residuals.

A system of m polynomials in n variables is stored as an (m, M) coefficient
matrix over a shared list of M monomials, given as an (M, n) exponent table.
Evaluating the system at a stack of points is one monomial table plus one
matrix product, so the residual of every candidate of a solve comes from a
single call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PolynomialSystem:
    """m polynomials over a shared monomial list, m >= n.

    ``coeffs`` is (m, M): row i holds polynomial i's coefficient of every
    monomial.  ``exponents`` is (M, n): row k is the exponent vector of
    monomial k.
    """

    coeffs: np.ndarray
    exponents: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        exponents = np.asarray(self.exponents, dtype=int)
        if coeffs.ndim != 2 or exponents.ndim != 2:
            raise ValueError("coeffs and exponents must both be 2-D")
        if coeffs.shape[1] != exponents.shape[0]:
            raise ValueError(
                f"{coeffs.shape[1]} coefficient columns for "
                f"{exponents.shape[0]} monomials"
            )
        if np.any(exponents < 0):
            raise ValueError("negative exponent in the monomial table")
        if coeffs.shape[0] < exponents.shape[1]:
            raise ValueError(
                f"need at least as many equations ({coeffs.shape[0]}) "
                f"as unknowns ({exponents.shape[1]})"
            )
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "exponents", exponents)

    @property
    def n_vars(self) -> int:
        return self.exponents.shape[1]

    @property
    def n_equations(self) -> int:
        return self.coeffs.shape[0]

    def evaluate_all(self, points) -> np.ndarray:
        """Values of every polynomial at each point.

        ``points`` is (..., n); the result is (..., m).
        """
        points = np.asarray(points)
        if points.shape[-1:] != (self.n_vars,):
            raise ValueError(f"points must have shape (..., {self.n_vars})")
        monomials = np.prod(points[..., None, :] ** self.exponents, axis=-1)
        return monomials @ self.coeffs.T

    def max_abs_residual(self, points) -> np.ndarray:
        """max_i |f_i(x)| for each point of an (..., n) stack, shape (...)."""
        return np.abs(self.evaluate_all(points)).max(axis=-1)
