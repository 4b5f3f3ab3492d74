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
    monic = coeffs / coeffs[-1]
    companion = np.eye(deg, k=-1, dtype=complex)
    companion[:, -1] = -monic[:-1]
    return np.linalg.eigvals(companion)


def real_candidates(roots_: np.ndarray) -> np.ndarray:
    """Real parts of the roots whose imaginary part is negligible.

    Keeps z with |Im z| <= DEFAULT_IM_TOL * (1 + |Re z|), preserving order.
    """
    roots_ = np.asarray(roots_, dtype=complex)
    keep = np.abs(roots_.imag) <= DEFAULT_IM_TOL * (1.0 + np.abs(roots_.real))
    return roots_.real[keep]
