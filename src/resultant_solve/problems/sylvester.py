"""Generic Sylvester elimination matrix for two-equation systems.

Given two polynomials in one eliminated variable whose coefficients are
themselves univariate polynomials in the hidden variable, the classical
Sylvester matrix is square of size m1+m2 and multiplies the descending
power basis (u^{m1+m2-1}, ..., u, 1) of the eliminated variable to zero
at common roots.  The assembly is ring-agnostic: coefficients may be
floats (online path) or Python ints in an ``object`` array (offline
modular path), and the stack keeps their dtype.
"""

from __future__ import annotations

import numpy as np


def sylvester_stack(coeffs1, coeffs2) -> np.ndarray:
    """Sylvester matrix as a (d+1, n, n) coefficient stack in the input dtype.

    ``coeffs1``/``coeffs2`` are (m+1, d+1) arrays: row q holds the
    coefficient of the q-th power of the eliminated variable, descending
    (leading first), as a hidden-variable polynomial, ascending.
    """
    coeffs1, coeffs2 = np.asarray(coeffs1), np.asarray(coeffs2)
    m1 = len(coeffs1) - 1
    m2 = len(coeffs2) - 1
    if m1 < 1 or m2 < 1:
        raise ValueError("both polynomials must have degree >= 1")
    n = m1 + m2
    depth = max(coeffs1.shape[1], coeffs2.shape[1])
    stack = np.zeros((depth, n, n), dtype=np.result_type(coeffs1, coeffs2))
    for t in range(m2):
        stack[: coeffs1.shape[1], t, t : t + m1 + 1] = coeffs1.T
    for s in range(m1):
        stack[: coeffs2.shape[1], m2 + s, s : s + m2 + 1] = coeffs2.T
    return stack
