"""Exact reference computations that the solver's fast paths are tested against.

They share no code with the library's determinant routines:

* ``det_poly_exact`` — the exact integer-coefficient determinant
  polynomial of an integer-valued (d+1, N, N) coefficient stack, by exact
  evaluation/interpolation or by fraction-free Bareiss elimination over
  Z[x]; the two must agree.  The online sampling pipeline and the offline
  stage's Z_p determinants are checked against it.
* ``zp_det_poly`` — the Z_p determinant polynomial by one scalar Gaussian
  elimination on Python ints per evaluation point and Lagrange
  interpolation on all N d + 1 points, the reference for the offline
  stage's ``int64`` path.
* ``sample_points`` — the unit-circle points the FFT samples at, written
  out, for checking ``spectral.batched_eval`` and ``recover_coefficients``.
"""

from fractions import Fraction

import numpy as np


def sample_points(k: int) -> np.ndarray:
    """The k+1 determinant sample points e^{-2*pi*i*j/(k+1)}, j = 0..k."""
    return np.exp(-2j * np.pi * np.arange(k + 1) / (k + 1))


# --- exact integer-polynomial arithmetic -----------------------------------
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


def _int_stack(stack: np.ndarray) -> np.ndarray:
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


def _det_poly_interpolate(stack: np.ndarray) -> list:
    """Exact det polynomial: integer evaluations + rational interpolation."""
    stack = _int_stack(stack)
    n, degree = stack.shape[1], len(stack) - 1
    deg_bound = n * degree
    # symmetric integer nodes keep the evaluated entries small
    nodes = [(t // 2 + 1) * (-1) ** t for t in range(deg_bound)]
    nodes = [0] + nodes
    values = []
    for t in nodes:
        entries = [
            [int(sum(int(stack[l, r, c]) * t**l for l in range(degree + 1)))
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


def _det_poly_bareiss(stack: np.ndarray) -> list:
    """Exact det polynomial by fraction-free elimination over Z[x]."""
    stack = _int_stack(stack)
    n = stack.shape[1]
    a = [
        [
            _ptrim([int(stack[l, r, c]) for l in range(len(stack))])
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


def det_poly_exact(stack: np.ndarray, method: str = "interpolate") -> list:
    """Exact integer coefficients (ascending) of det of a (d+1, N, N) integer stack.

    ``method`` selects evaluation/interpolation (default) or fraction-free
    Bareiss elimination; both are exact and must agree.  [] is the zero
    polynomial.  Oracle-scale only: N <= 16.
    """
    if stack.shape[1] > 16:
        raise ValueError("exact determinant oracle is limited to N <= 16")
    if method == "interpolate":
        return _det_poly_interpolate(stack)
    if method == "bareiss":
        return _det_poly_bareiss(stack)
    raise ValueError(f"unknown method {method!r}")


# --- Z_p determinants on Python ints ---------------------------------------


def _zp_det_scalar(m: list, p: int) -> int:
    """Determinant of a square matrix of residues, Gaussian elimination."""
    a = [row[:] for row in m]
    n = len(a)
    det = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det = (det * a[k][k]) % p
        inv = pow(a[k][k], -1, p)
        for i in range(k + 1, n):
            f = (a[i][k] * inv) % p
            if f:
                for j in range(k, n):
                    a[i][j] = (a[i][j] - f * a[k][j]) % p
    return det % p


def _zp_interpolate(points: list, values: list, p: int) -> list:
    """Lagrange interpolation through (points[i], values[i]) in Z_p[x]."""
    coeffs = [0] * len(points)
    for t, y in zip(points, values):
        if y == 0:
            continue
        basis = [1]
        denom = 1
        for s in points:
            if s == t:
                continue
            denom = (denom * (t - s)) % p
            basis = [0] + basis
            for i in range(len(basis) - 1):
                basis[i] = (basis[i] - s * basis[i + 1]) % p
        scale = (y * pow(denom, -1, p)) % p
        for i, bc in enumerate(basis):
            coeffs[i] = (coeffs[i] + scale * bc) % p
    return _ptrim(coeffs)


def zp_det_poly(stack: np.ndarray, p: int) -> list:
    """Determinant polynomial in Z_p[x] of a (d+1, N, N) stack of residues.

    The result ``offline.det_modular`` must give for one stack: all-zero
    top slices are dropped, the matrix is evaluated at 0..N d by Horner
    and the scalar determinants are interpolated.  It keeps all N d + 1
    points, where ``det_modular`` stops at its column/row degree bound.
    """
    while len(stack) > 1 and not stack[-1].any():
        stack = stack[:-1]
    points = list(range(stack.shape[1] * (stack.shape[0] - 1) + 1))
    values = []
    for t in points:
        scalar = stack[-1]
        for a in stack[-2::-1]:
            scalar = (scalar * t + a) % p
        values.append(_zp_det_scalar(scalar.tolist(), p))
    return _zp_interpolate(points, values, p)
