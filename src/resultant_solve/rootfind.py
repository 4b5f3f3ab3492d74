"""Companion-matrix root finding for the recovered determinant polynomial.

A polynomial is its 1-D coefficient array, ascending degree.
"""

from __future__ import annotations

import numpy as np

DEFAULT_IM_TOL = 1e-6


def roots(coeffs: np.ndarray) -> np.ndarray:
    """All complex roots of the polynomial, as eigenvalues of its monic companion.

    ``coeffs`` is rooted as given, so its leading coefficient must be
    significant (``spectral.trim`` first).  The eigenvalue iteration
    (balanced Hessenberg + shifted QR) returns the full multiset of roots
    in no particular order.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    deg = len(coeffs) - 1
    if deg < 1:
        raise ValueError("no roots: polynomial has degree 0")
    companion = np.zeros((deg, deg), dtype=complex)
    companion.flat[deg :: deg + 1] = 1.0  # the subdiagonal
    companion[:, -1] = -(coeffs[:-1] / coeffs[-1])
    return np.linalg.eigvals(companion)


def real_candidates(roots_: np.ndarray) -> np.ndarray:
    """Real parts of the roots whose imaginary part is negligible.

    Keeps z with |Im z| <= DEFAULT_IM_TOL * (1 + |Re z|), preserving order.
    """
    roots_ = np.asarray(roots_, dtype=complex)
    real = roots_.real
    return real[np.abs(roots_.imag) <= DEFAULT_IM_TOL * (1.0 + np.abs(real))]
