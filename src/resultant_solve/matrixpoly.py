"""Matrices with univariate-polynomial entries.

An N x N matrix whose entries are degree-<=d polynomials is stored as a
stack of d+1 scalar coefficient matrices A_0..A_d, so evaluating at a point
z is the matrix Horner sum  sum_l A_l z^l.

Two determinant routines live here:

* ``det_complex`` — floating-point determinant via pivoted LU (LAPACK),
  used by the online sampling pipeline, batched over matrix stacks.
* ``det_poly_exact`` — exact integer-coefficient determinant polynomial,
  the reference that tests check the sampling pipeline and the offline
  stage's Z_p determinants against.  It is computed either by exact
  evaluation/interpolation or by fraction-free Bareiss elimination over
  the integer polynomial ring; the two must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


# --- exact integer-polynomial arithmetic (test oracle) ----------------------
#
# A univariate integer polynomial is a list of Python ints, ascending degree,
# with no trailing zeros ([] is the zero polynomial).


def _ptrim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _padd(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return _ptrim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _psub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return _ptrim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def _pmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _ptrim(out)


def _pdiv_exact(a: list, b: list) -> list:
    """Quotient a/b when the division is exact in the integer ring."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if not a:
        return []
    rem = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c, r = divmod(rem[k + len(b) - 1], b[-1])
        if r:
            raise ArithmeticError("inexact polynomial division in Bareiss step")
        q[k] = c
        if c:
            for j, bj in enumerate(b):
                rem[k + j] -= c * bj
    if any(rem):
        raise ArithmeticError("inexact polynomial division in Bareiss step")
    return _ptrim(q)


def _int_stack(mp: MatrixPolynomial) -> np.ndarray:
    stack = mp.stack
    rounded = np.rint(stack)
    if not np.array_equal(rounded, stack):
        raise ValueError("det_poly_exact requires integer coefficient matrices")
    return rounded.astype(object)


def _int_det_bareiss(m: list) -> int:
    """Exact determinant of a square matrix of Python ints."""
    a = [row[:] for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _det_poly_interpolate(mp: MatrixPolynomial) -> list:
    """Exact det polynomial: integer evaluations + rational interpolation."""
    stack = _int_stack(mp)
    n = mp.size
    deg_bound = n * mp.entry_degree
    # symmetric integer nodes keep the evaluated entries small
    nodes = [(t // 2 + 1) * (-1) ** t for t in range(deg_bound)]
    nodes = [0] + nodes
    values = []
    for t in nodes:
        entries = [
            [int(sum(int(stack[l, r, c]) * t**l for l in range(mp.entry_degree + 1)))
             for c in range(n)]
            for r in range(n)
        ]
        values.append(_int_det_bareiss(entries))
    # Lagrange interpolation over the rationals; the result must be integral
    coeffs = [Fraction(0)] * (deg_bound + 1)
    for t, y in zip(nodes, values):
        if y == 0:
            continue
        # basis polynomial prod_{s != t} (x - s) / (t - s)
        basis = [Fraction(1)]
        denom = 1
        for s in nodes:
            if s == t:
                continue
            denom *= t - s
            basis = [Fraction(0)] + basis
            for i in range(len(basis) - 1):
                basis[i] -= Fraction(s) * basis[i + 1]
        scale = Fraction(y, denom)
        for i, b in enumerate(basis):
            coeffs[i] += scale * b
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise ArithmeticError("interpolated determinant is not integral")
        out.append(int(c))
    return _ptrim(out)


def _det_poly_bareiss(mp: MatrixPolynomial) -> list:
    """Exact det polynomial by fraction-free elimination over Z[x]."""
    stack = _int_stack(mp)
    n = mp.size
    a = [
        [
            _ptrim([int(stack[l, r, c]) for l in range(mp.entry_degree + 1)])
            for c in range(n)
        ]
        for r in range(n)
    ]
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not a[k][k]:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return []
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _psub(_pmul(a[k][k], a[i][j]), _pmul(a[i][k], a[k][j]))
                a[i][j] = _pdiv_exact(num, prev)
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return [sign * c for c in det] if sign < 0 else det


def det_poly_exact(mp: MatrixPolynomial, method: str = "interpolate") -> list:
    """Exact integer coefficients (ascending) of det of an integer-stack matrix.

    ``method`` selects evaluation/interpolation (default) or fraction-free
    Bareiss elimination; both are exact and must agree.  [] is the zero
    polynomial.  Oracle-scale only: N <= 16.
    """
    if mp.size > 16:
        raise ValueError("exact determinant oracle is limited to N <= 16")
    if method == "interpolate":
        return _det_poly_interpolate(mp)
    if method == "bareiss":
        return _det_poly_bareiss(mp)
    raise ValueError(f"unknown method {method!r}")
