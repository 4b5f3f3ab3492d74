"""Matrices with univariate-polynomial entries, as plain coefficient stacks.

An N x N matrix whose entries are degree-<=d polynomials is the float
array ``stack`` of shape (d+1, N, N) holding A_0..A_d, so evaluating at a
point z is the matrix Horner sum  sum_l A_l z^l.  The problem builders
return such stacks and every online stage reads them directly.

``det_complex`` is the floating-point determinant via pivoted LU (LAPACK)
that the online stage applies, batched, to matrix stacks: complex ones at
the unit-circle samples, real ones at the real candidate roots.  The
exact integer determinant oracle the tests check it against lives in
``tests/exact_oracles.py``; the offline stage's exact determinants work
over Z_p (``offline.det_modular``).
"""

from __future__ import annotations

import numpy as np


def evaluate_at(stack: np.ndarray, z) -> np.ndarray:
    """Entrywise Horner evaluation of the (d+1, N, N) stack at z.

    A scalar z gives one (N, N) matrix; an array of points gives one matrix
    per point, stacked as (..., N, N).  Real points give a float64 result,
    complex points a complex one.
    """
    z = np.asarray(z)
    if z.dtype != np.float64 and z.dtype != np.complex128:
        z = z.astype(complex if np.iscomplexobj(z) else float)
    z = z[..., None, None]
    result = stack[-1] + np.zeros_like(z)
    for a in stack[-2::-1]:
        result *= z
        result += a
    return result


def det_complex(m: np.ndarray):
    """Determinant(s) by LU elimination with partial pivoting.

    Accepts one (N, N) matrix or a stack (..., N, N), real or complex;
    stacked input yields one determinant per slice in a single batched
    call, in the input's dtype.  A single matrix gives a Python complex.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected square matrix/matrices, got shape {m.shape}")
    d = np.linalg.det(m)
    return complex(d) if m.ndim == 2 else d
