"""Independent evaluations of the built-in problems' original equations.

They share no code with the solver's equation path. ``five_point`` forms
E = x E1 + y E2 + z E3 + E4 and evaluates det E and 2 E E^T E - tr(E E^T) E
with plain 3x3 arithmetic; ``conic`` evaluates [x y 1] C [x y 1]^T.  Both
work on float, complex and exact Python-int inputs.
"""

import numpy as np

from resultant_solve.problems.five_point import _nullspace_basis


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


def conic_values(data, point) -> np.ndarray:
    """[x y 1] C [x y 1]^T for both conics of the pair."""
    v = np.array([point[0], point[1], 1.0])
    return np.array([v @ data.c1 @ v, v @ data.c2 @ v])


def values(problem_id: str, data, point) -> np.ndarray:
    if problem_id == "conic":
        return conic_values(data, point)
    return five_point_values(_nullspace_basis(data), point)
