"""Matrices with univariate-polynomial entries.

An N x N matrix whose entries are degree-<=d polynomials is stored as a
stack of d+1 scalar coefficient matrices A_0..A_d, so evaluating at a point
z is the matrix Horner sum  sum_l A_l z^l.

``det_complex`` is the floating-point determinant via pivoted LU (LAPACK)
that the online sampling pipeline applies, batched, to matrix stacks.  The
exact integer determinant oracle the tests check it against lives in
``tests/exact_oracles.py``; the offline stage's exact determinants work
over Z_p (``offline.det_modular``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MatrixPolynomial:
    """Coefficient stack (d+1, N, N); slice l is A_l."""

    stack: np.ndarray

    def __post_init__(self):
        stack = np.asarray(self.stack, dtype=float)
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError(f"stack must be (d+1, N, N), got {stack.shape}")
        # keep the true maximum entry degree: drop trailing all-zero slices
        top = stack.shape[0]
        while top > 1 and not np.any(stack[top - 1]):
            top -= 1
        object.__setattr__(self, "stack", stack[:top].copy())

    @property
    def size(self) -> int:
        return self.stack.shape[1]

    @property
    def entry_degree(self) -> int:
        return self.stack.shape[0] - 1


def evaluate_at(mp: MatrixPolynomial, z) -> np.ndarray:
    """Entrywise Horner evaluation of the matrix polynomial at z.

    A scalar z gives one (N, N) matrix; an array of points gives one matrix
    per point, stacked as (..., N, N).
    """
    z = np.asarray(z, dtype=complex)[..., None, None]
    result = mp.stack[-1] + np.zeros_like(z)
    for a in mp.stack[-2::-1]:
        result = result * z + a
    return result


def det_complex(m: np.ndarray):
    """Determinant(s) by LU elimination with partial pivoting.

    Accepts one (N, N) matrix or a stack (..., N, N); stacked input yields
    one determinant per slice in a single batched call.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected square matrix/matrices, got shape {m.shape}")
    d = np.linalg.det(m)
    return complex(d) if m.ndim == 2 else d
