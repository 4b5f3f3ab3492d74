"""Independent evaluations of the built-in problems' original equations.

They share no code with the solver's equation path. ``five_point`` forms
E = x E1 + y E2 + z E3 + E4 and evaluates det E and 2 E E^T E - tr(E E^T) E
with plain 3x3 arithmetic; ``conic`` evaluates [x y 1] C [x y 1]^T.  Both
work on float, complex and exact Python-int inputs.

``five_point_constraint_vectors`` is the exception: a frozen copy of the
library's float trilinear-form expansion, before it took a residue ring,
that imports only the two constant 0/1 tables.  The library's float
cubics must stay bitwise equal to it, which a value oracle cannot check.
"""

import numpy as np

from resultant_solve.problems.five_point import _LEVI_CIVITA, _SCATTER, _nullspace_basis


def five_point_values(e_basis, point) -> np.ndarray:
    """The ten cubics (det E, then 2EE^TE - tr(EE^T)E row-major) at a point."""
    x, y, z = point
    e = x * e_basis[0] + y * e_basis[1] + z * e_basis[2] + e_basis[3]
    det = (
        e[0, 0] * (e[1, 1] * e[2, 2] - e[1, 2] * e[2, 1])
        - e[0, 1] * (e[1, 0] * e[2, 2] - e[1, 2] * e[2, 0])
        + e[0, 2] * (e[1, 0] * e[2, 1] - e[1, 1] * e[2, 0])
    )
    eet = e @ e.T
    trace = eet[0, 0] + eet[1, 1] + eet[2, 2]
    return np.concatenate([[det], (2 * eet @ e - trace * e).ravel()])


def five_point_triple_forms(e_basis: np.ndarray) -> np.ndarray:
    """The (10, 64) trilinear forms of the ten cubics, kept verbatim."""
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
    return np.concatenate([det.reshape(1, 64), 2 * eet_e - trace_e])


def five_point_constraint_vectors(e_basis: np.ndarray) -> np.ndarray:
    """The ten cubics as a (10, 20) matrix over MON3, the float path kept verbatim."""
    return five_point_triple_forms(e_basis) @ _SCATTER


def conic_values(data, point) -> np.ndarray:
    """[x y 1] C [x y 1]^T for both conics of the pair."""
    v = np.array([point[0], point[1], 1.0])
    return np.array([v @ data.c1 @ v, v @ data.c2 @ v])


def values(problem_id: str, data, point) -> np.ndarray:
    if problem_id == "conic":
        return conic_values(data, point)
    return five_point_values(_nullspace_basis(data), point)
