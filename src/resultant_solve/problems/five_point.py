"""Relative pose from five calibrated correspondences.

The essential matrix lives in the 4-dimensional nullspace of the 5x9
epipolar coefficient matrix,  E = x E1 + y E2 + z E3 + E4,  and must
satisfy det(E) = 0 plus the nine trace constraints
2 E E^T E - trace(E E^T) E = 0.  Expanding those ten cubics in (x, y, z)
and hiding z yields a 10x10 matrix polynomial of entry degree 3 over the
monomial basis (x^3, y^3, x^2 y, x y^2, x^2, y^2, x y, x, y, 1).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .base import DegenerateDataError, Problem, matrix_layout

HIDDEN_INDEX = 2
BASIS = (
    (3, 0), (0, 3), (2, 1), (1, 2), (2, 0),
    (0, 2), (1, 1), (1, 0), (0, 1), (0, 0),
)
ROWS = tuple((e, (0, 0)) for e in range(10))  # each cubic, multiplier 1
EQUATION_ROWS = tuple(r for r, (_, u) in enumerate(ROWS) if not any(u))
EXPECTED_SOLUTIONS = 10

RANK_TOL = 1e-9


def _monomials(max_degree: int) -> list:
    out = [
        (a, b, c)
        for a in range(max_degree + 1)
        for b in range(max_degree + 1)
        for c in range(max_degree + 1)
        if a + b + c <= max_degree
    ]
    out.sort(key=lambda e: (sum(e), e), reverse=True)
    return out


MON1 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]  # x, y, z, 1
MON3 = _monomials(3)
_IDX3 = {e: i for i, e in enumerate(MON3)}
MONOMIALS = np.array(MON3)  # the cubics' monomial table, over (x, y, z)
_LAYOUT = matrix_layout(MONOMIALS, ROWS, BASIS, HIDDEN_INDEX)


def _scatter_matrix() -> np.ndarray:
    """(64, 20) 0/1 matrix from ordered MON1 triples to MON3 slots.

    Every cubic below is a sum over ordered triples (a, b, c) of MON1 slots
    of a trilinear form in (E_a, E_b, E_c) times MON1[a] MON1[b] MON1[c];
    row 16a + 4b + c sends the triple's form to the slot of that monomial.
    """
    out = np.zeros((64, len(MON3)), dtype=int)
    for t, triple in enumerate(itertools.product(MON1, repeat=3)):
        out[t, _IDX3[tuple(map(sum, zip(*triple)))]] = 1
    return out


def _levi_civita() -> np.ndarray:
    """(3, 9) matrix with (u x v)_i = sum_jk eps[i, 3j + k] u_j v_k."""
    eps = np.zeros((3, 3, 3), dtype=int)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k], eps[i, k, j] = 1, -1
    return eps.reshape(3, 9)


_SCATTER = _scatter_matrix()
_LEVI_CIVITA = _levi_civita()


def constraint_vectors(e_basis: np.ndarray) -> np.ndarray:
    """The ten cubic constraints as a (10, 20) matrix over the MON3 basis.

    ``e_basis`` is (4, 3, 3): E_1..E_4, the coefficients of (x, y, z, 1)
    in E.  Row 0 is det E, whose triple (a, b, c) form is
    E_a[0] . (E_b[1] x E_c[2]); rows 1..9 are the entries (row-major) of
    2 E E^T E - tr(E E^T) E, whose triple form is
    2 E_a E_b^T E_c - tr(E_a E_b^T) E_c.  Works on float arrays and on
    exact ``object`` arrays of Python ints alike.
    """
    e = np.asarray(e_basis)
    rows = e.reshape(12, 3)  # row r of E_a at 3a + r
    flat = e.reshape(4, 9)
    # E_b[1] (x) E_c[2] for every (b, c), contracted to cross products
    outer = (e[:, None, 1, :, None] * e[None, :, 2, None, :]).reshape(16, 9)
    det = (e[:, 0] @ _LEVI_CIVITA) @ outer.T  # [a, 4b + c]
    # (E_a E_b^T)[r, s] at [12a + 4r + b, s], then times E_c[s, col]
    gram = (rows @ rows.T).reshape(48, 3)
    eet_e = (gram @ e.transpose(1, 0, 2).reshape(3, 12)).reshape(4, 3, 4, 4, 3)
    eet_e = eet_e.transpose(1, 4, 0, 2, 3).reshape(9, 64)  # [(r, col), triple]
    trace = flat @ flat.T  # tr(E_a E_b^T)
    trace_e = (flat.T[:, None, :] * trace.reshape(1, 16, 1)).reshape(9, 64)
    forms = np.concatenate([det.reshape(1, 64), 2 * eet_e - trace_e])
    return forms @ _SCATTER


def _nullspace_basis(data: "FivePointData") -> np.ndarray:
    """E1..E4 spanning the epipolar nullspace, as a (4, 3, 3) stack."""
    q = np.einsum("ni,nj->nij", data.pts_b, data.pts_a).reshape(5, 9)
    _, s, vh = np.linalg.svd(q)
    if s[4] < RANK_TOL * s[0]:
        raise DegenerateDataError(
            "degenerate correspondences: epipolar matrix is rank-deficient"
        )
    return vh[5:].reshape(4, 3, 3)


@dataclass(frozen=True)
class FivePointData:
    """Five unit-norm homogeneous point pairs from two calibrated views."""

    pts_a: np.ndarray
    pts_b: np.ndarray

    def __post_init__(self):
        for name, pts in (("pts_a", self.pts_a), ("pts_b", self.pts_b)):
            pts = np.asarray(pts, dtype=float)
            if pts.shape != (5, 3):
                raise ValueError(f"{name} must be (5, 3), got {pts.shape}")
            if not np.isfinite(pts).all():
                raise DegenerateDataError(f"{name} has a non-finite entry")
            # exact power-of-two pre-scale per point, as for the conics
            pts = np.ldexp(pts, -np.frexp(np.abs(pts).max(axis=1))[1][:, None])
            norms = np.linalg.norm(pts, axis=1)
            if np.any(norms == 0.0):
                raise DegenerateDataError(f"{name} contains a zero point")
            object.__setattr__(self, name, pts / norms[:, None])


def build(cubics: np.ndarray) -> np.ndarray:
    """(4, 10, 10) stack of M(z) from the (10, 20) cubics over MON3.

    ``cubics`` is what ``original_equations`` returns; row i of M(z) is
    cubic i split by powers of z, gathered through the layout of
    ``ROWS``.  Ring-agnostic like ``constraint_vectors``: the stack keeps
    the dtype of ``cubics``.
    """
    return np.append(cubics, 0)[_LAYOUT]


def modular_matrix(rng: np.random.Generator, p: int) -> np.ndarray:
    """M(z) over Z_p from random residues for the 36 E-basis entries."""
    e_basis = rng.integers(1, p, size=(4, 3, 3)).astype(object)
    return build(constraint_vectors(e_basis)) % p


def original_equations(data: FivePointData) -> np.ndarray:
    """The ten cubics as a (10, 20) coefficient array over MONOMIALS."""
    return constraint_vectors(_nullspace_basis(data))


@functools.cache
def frame_mix() -> np.ndarray:
    """The fixed generic 4x4 orthogonal Q of the second frame.

    The Q factor of a standard normal matrix from ``default_rng(0)``,
    computed on first use: the QR call's LAPACK workspace costs the
    process about 6 MB, which an import should not.
    """
    return np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))[0]


def second_frame(data: FivePointData) -> tuple:
    """The ten cubics over the mixed basis E'_j = sum_k Q_jk E_k, Q = ``frame_mix()``.

    E = sum_j [x', 1]_j E'_j = sum_k (Q^T [x', 1])_k E_k, so a solution x'
    of these cubics maps back to c = Q^T [x', 1], divided by its last
    entry.
    """
    mix = frame_mix()
    e_basis = _nullspace_basis(data)
    mixed = (mix @ e_basis.reshape(4, 9)).reshape(4, 3, 3)
    return constraint_vectors(mixed), mix


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q = -q
    return q


def _skew(t: np.ndarray) -> np.ndarray:
    return np.array(
        [[0.0, -t[2], t[1]], [t[2], 0.0, -t[0]], [-t[1], t[0], 0.0]]
    )


def generate_instance(rng: np.random.Generator):
    """Synthetic correspondences from a random rigid motion.

    Returns the data plus the ground-truth (x, y, z) coordinates of the
    true essential matrix in the instance's own nullspace basis.
    """
    while True:
        rot = _random_rotation(rng)
        t = rng.standard_normal(3)
        if np.linalg.norm(t) < 0.1:
            continue
        t /= np.linalg.norm(t)
        pts3d = np.column_stack(
            [
                rng.uniform(-2.0, 2.0, size=5),
                rng.uniform(-2.0, 2.0, size=5),
                rng.uniform(4.0, 8.0, size=5),
            ]
        )
        pts_a = pts3d
        pts_b = pts3d @ rot.T + t
        try:
            data = FivePointData(pts_a, pts_b)
            e_basis = _nullspace_basis(data)
        except DegenerateDataError:
            continue
        e_true = _skew(t) @ rot
        coords = e_basis.reshape(4, 9) @ e_true.ravel()
        if abs(coords[3]) < 0.1 * np.linalg.norm(coords):
            continue  # ground truth nearly outside the affine chart
        gt = coords[:3] / coords[3]
        return data, [gt]


def data_to_json(data: FivePointData) -> dict:
    return {"pts_a": data.pts_a.tolist(), "pts_b": data.pts_b.tolist()}


def data_from_json(obj: dict) -> FivePointData:
    try:
        pts_a, pts_b = (np.array(obj[key], dtype=float) for key in ("pts_a", "pts_b"))
    except (KeyError, TypeError):
        raise ValueError(
            "five_point data must be an object with number arrays pts_a, pts_b"
        ) from None
    return FivePointData(pts_a, pts_b)


PROBLEM = Problem(
    problem_id="five_point",
    n_vars=3,
    hidden_index=HIDDEN_INDEX,
    basis=BASIS,
    equation_rows=EQUATION_ROWS,
    expected_solutions=EXPECTED_SOLUTIONS,
    build=build,
    modular_matrix=modular_matrix,
    generate_instance=generate_instance,
    original_equations=original_equations,
    data_to_json=data_to_json,
    data_from_json=data_from_json,
    second_frame=second_frame,
)
