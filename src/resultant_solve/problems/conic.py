"""Intersection of two plane conics.

Two homogeneous conics  [x y 1] C [x y 1]^T = 0  meet in at most four
points.  Eliminating x via the Sylvester matrix of the two quadratics
(coefficients quadratic in y) gives a 4x4 matrix polynomial in y whose
determinant is the degree-4 resultant; the four y-roots are the
intersection ordinates and x is recovered from the power basis
(x^3, x^2, x, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import DegenerateDataError, Problem, matrix_layout

# y, the last unknown, is hidden; x is eliminated by the Sylvester matrix
BASIS = ((3,), (2,), (1,), (0,))
# the Sylvester rows x f1, f1, x f2, f2 as (equation, multiplier) pairs
ROWS = ((0, (1,)), (0, (0,)), (1, (1,)), (1, (0,)))
EQUATION_ROWS = tuple(r for r, (_, u) in enumerate(ROWS) if not any(u))
EXPECTED_SOLUTIONS = 4

# both leading x^2 coefficients (near-)zero: the Sylvester determinant
# vanishes identically and no rotation-free template applies
LEADING_TOL = 1e-12


@dataclass(frozen=True)
class ConicPairData:
    """Two symmetric 3x3 conic coefficient matrices, Frobenius-normalized."""

    c1: np.ndarray
    c2: np.ndarray

    def __post_init__(self):
        for name, c in (("c1", self.c1), ("c2", self.c2)):
            c = np.asarray(c, dtype=float)
            if c.shape != (3, 3):
                raise ValueError(f"{name} must be 3x3, got {c.shape}")
            if not np.isfinite(c).all():
                raise DegenerateDataError(f"{name} has a non-finite entry")
            # exact power-of-two pre-scale: the norm can neither overflow
            # nor underflow, and for in-range data c / norm is unchanged bit
            # for bit
            c = np.ldexp(c, -np.frexp(np.abs(c).max())[1])
            c = (c + c.T) / 2.0
            norm = np.linalg.norm(c)
            if norm == 0.0:
                raise DegenerateDataError(f"{name} is the zero conic")
            object.__setattr__(self, name, c / norm)


# monomials (x^2, x y, y^2, x, y, 1) of the conic rows, over (x, y)
MONOMIALS = np.array([(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)])
_LAYOUT = matrix_layout(MONOMIALS, ROWS, BASIS)


def _conic_row(c: np.ndarray) -> list:
    return [c[0, 0], 2 * c[0, 1], c[1, 1], 2 * c[0, 2], 2 * c[1, 2], c[2, 2]]


def original_equations(data: ConicPairData) -> np.ndarray:
    """The two conics as a (2, 6) coefficient array over MONOMIALS."""
    return np.array([_conic_row(data.c1), _conic_row(data.c2)])


def build(rows: np.ndarray) -> np.ndarray:
    """(3, 4, 4) stack of M(y) from the (2, 6) conic rows over MONOMIALS.

    ``rows`` is what ``original_equations`` returns, gathered into the
    rows x f1, f1, x f2, f2 of ``ROWS``.  Ring-agnostic: floats give the
    online matrix, ``int64`` residues the exact one; the stack keeps the
    dtype of ``rows``.
    """
    if max(abs(rows[0, 0]), abs(rows[1, 0])) < LEADING_TOL:
        raise DegenerateDataError(
            "rotate coordinates: both conics lack an x^2 term"
        )
    return np.append(rows, 0)[_LAYOUT]


def modular_matrix(rng: np.random.Generator, p: int) -> np.ndarray:
    """M(y) over Z_p from fresh residues for the 12 conic coefficients, in ``int64``.

    Only the upper triangles are read, so two random 3x3 residue matrices
    stand for two generic symmetric conics.  The doubled off-diagonal
    entries stay below 2p, far inside ``int64``.
    """
    c1, c2 = rng.integers(1, p, size=(2, 3, 3))
    return build(np.array([_conic_row(c1), _conic_row(c2)])) % p


def _conics_through(points: np.ndarray, rng: np.random.Generator) -> tuple:
    """Two generic conics through four prescribed points, or None."""
    rows = np.array(
        [[x * x, x * y, y * y, x, y, 1.0] for x, y in points]
    )
    _, s, vh = np.linalg.svd(rows)
    if s[3] < 1e-10 * s[0]:
        return None
    span = vh[4:]  # 2-dimensional pencil of conics through the points
    mix = rng.standard_normal((2, 2))
    if abs(np.linalg.det(mix)) < 0.1:
        return None
    v1, v2 = mix @ span
    conics = []
    for v in (v1, v2):
        c = np.array(
            [
                [v[0], v[1] / 2, v[3] / 2],
                [v[1] / 2, v[2], v[4] / 2],
                [v[3] / 2, v[4] / 2, v[5]],
            ]
        )
        # keep the x^2 coefficient healthy so elimination in x is stable
        if abs(c[0, 0]) < 1e-3 * np.linalg.norm(c):
            return None
        conics.append(c)
    return conics[0], conics[1]


def generate_instance(rng: np.random.Generator):
    """Random conic pair constructed from four prescribed intersections."""
    while True:
        points = rng.uniform(-1.0, 1.0, size=(4, 2))
        dists = [
            np.linalg.norm(points[i] - points[j])
            for i in range(4)
            for j in range(i + 1, 4)
        ]
        if min(dists) < 0.2:
            continue
        conics = _conics_through(points, rng)
        if conics is None:
            continue
        data = ConicPairData(*conics)
        return data, [points[i].copy() for i in range(4)]


def data_to_json(data: ConicPairData) -> dict:
    return {"C1": data.c1.ravel().tolist(), "C2": data.c2.ravel().tolist()}


def data_from_json(obj: dict) -> ConicPairData:
    try:
        c1, c2 = (np.array(obj[key], dtype=float).reshape(3, 3) for key in ("C1", "C2"))
    except (KeyError, TypeError):
        raise ValueError(
            "conic data must be an object with number arrays C1, C2"
        ) from None
    return ConicPairData(c1, c2)


PROBLEM = Problem(
    problem_id="conic",
    basis=BASIS,
    equation_rows=EQUATION_ROWS,
    expected_solutions=EXPECTED_SOLUTIONS,
    build=build,
    modular_matrix=modular_matrix,
    generate_instance=generate_instance,
    original_equations=original_equations,
    data_to_json=data_to_json,
    data_from_json=data_from_json,
)
