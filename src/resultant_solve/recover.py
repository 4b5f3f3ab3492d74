"""Online stage: from instance data to verified solutions.

One solve executes the whole sampling pipeline as a chain of plain
arrays: write out the instance's original equations, build from their
coefficients the (d+1, N, N) coefficient stack of the matrix polynomial,
evaluate it at the unit-circle points with one FFT, take the batched
determinants, recover the determinant's coefficient array via IFFT, trim
it, and root it through its companion matrix.  Back-substitution then
runs on all real candidate roots at once, in float64: one Horner pass
evaluates the matrix at every root, and every Cramer-rule ratio of every
root comes from one batched LU call on a stack of column-replaced
submatrices, gathered from [M | -M] through the index that the template
compiled once for its deletion pair.  Roots whose deletion submatrix is
singular retry the alternate deletion pairs together, one rule at a time,
and each keeps the first that works.  The original equations are rows of
the matrix (the problem names them in ``equation_rows``), so each
candidate's residual is read from M(z) v(x) at its root, with no second
pass over the equations.
Candidates stay (R, n) and (R,) arrays through ranking, merging and the
residual threshold; only the accepted ones become ``CandidateSolution``
objects.  A problem with a second frame (``five_point``) re-solves an
instance that accepted nothing in a fixed, generically mixed frame.  No
step forms a matrix inverse or solves a linear system through one; every
quantity is a ratio of determinants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrixpoly import det_complex, evaluate_at
from .offline import SolverTemplate
from .problems import DegenerateDataError, get_problem
from .rootfind import real_candidates, roots
from .spectral import batched_eval, recover_coefficients, trim

RESIDUAL_FAIL_THRESHOLD = 1e-3
# multiplicity-2 roots split by ~sqrt(machine eps) ~ 1e-8, so the merge
# tolerance must sit above that to collapse them into one solution
DUPLICATE_TOL = 1e-7
SINGULAR_FLOOR = 1e-300
REAL_SYMMETRY_TOL = 1e-10


class SolveError(RuntimeError):
    """The instance could not be solved (degenerate data or collapse)."""


@dataclass(frozen=True)
class CandidateSolution:
    """A full solution vector with its normalized residual.

    The residual is max_i |f_i(x)| over the original equations divided by
    the Euclidean norm of x, read from the equation rows of the matrix at
    the candidate's hidden value.
    """

    x: np.ndarray
    residual: float


@dataclass(frozen=True)
class SolutionSet:
    accepted: tuple
    rejected_count: int
    failed: bool
    candidate_roots: int  # complex roots of the trimmed determinant polynomial
    roots_found: int  # real candidate vectors that reached residual ranking


def cramer_at(m_at_roots: np.ndarray, index: np.ndarray) -> tuple:
    """Every recovered variable at every root, as Cramer determinant ratios.

    ``m_at_roots`` is the (R, N, N) stack of the matrix evaluated at R
    hidden-variable values, and ``index`` a deletion pair (i, j) with its
    recovery pairs, compiled by ``offline.cramer_rule``: row i and column j
    are removed, and the negated column j, without row i, is the
    right-hand side.  Variable w (ascending order of the recovery pairs) is
    det(replace column j1) / det(replace column j2) for its pair (j1, j2);
    the shared b_j normalization cancels, so the result does not depend on
    the deleted column's monomial.  The (R, 2W, N-1, N-1) stack of all 2W
    submatrices of all R roots is one gather from [M | -M], and its
    determinants one batched LU call.

    Returns (values, singular), both (R, W): the ratios, in the dtype of
    ``m_at_roots`` (float64 at real roots), and whether the denominator
    fell below SINGULAR_FLOOR (the value is then meaningless).
    """
    count = len(m_at_roots)
    extended = np.concatenate((m_at_roots, -m_at_roots), axis=2)
    stack = extended.reshape(count, -1)[:, index]
    dets = det_complex(stack).reshape(count, -1, 2)
    numer, denom = dets[..., 0], dets[..., 1]
    singular = np.abs(denom) < SINGULAR_FLOOR
    return numer / np.where(singular, 1.0, denom), singular


def equation_values(
    m_at_roots: np.ndarray, basis, points: np.ndarray, rows: tuple
) -> np.ndarray:
    """The original equations at R candidates, read from the matrix rows.

    ``m_at_roots`` is the (R, N, N) matrix at the candidates' hidden values
    and ``points`` the (R, n-1) non-hidden coordinates, in ``basis``
    order (exponent tuples, or the template's exponent array).  Each of
    ``rows`` times the basis monomials v(x) is one original equation, so
    the result is (R, len(rows)).
    """
    monomials = np.multiply.reduce(points[:, None, :] ** np.asarray(basis), axis=-1)
    return (m_at_roots @ monomials[..., None])[:, rows, 0]


def _back_substitute(
    stack: np.ndarray, template: SolverTemplate, hidden_values: np.ndarray
) -> tuple:
    """(coords, m_at_roots) of the roots that back-substitution keeps.

    Roots whose primary deletion pair is singular for some variable retry
    the template's alternate rules in order, all still-singular roots at
    once, so each keeps the first rule that is non-singular for every
    variable; roots left when the alternates run out are discarded.
    ``coords`` is (R, n) with the hidden value in its column, and
    ``m_at_roots`` the (R, N, N) matrix at the kept roots, both in root
    order.
    """
    if not len(hidden_values):
        return np.empty((0, template.n_vars)), np.empty((0,) + stack.shape[1:])
    m_at_roots = evaluate_at(stack, hidden_values)
    values, singular = cramer_at(m_at_roots, template.primary_rule)
    coords = np.empty((len(hidden_values), template.n_vars))
    coords[:, template.hidden_index] = hidden_values
    coords[:, template.recovered_columns] = values
    pending = np.flatnonzero(singular.any(axis=1))
    if not len(pending):
        return coords, m_at_roots
    for index in template.alternate_rules:
        values, singular = cramer_at(m_at_roots[pending], index)
        solved = ~singular.any(axis=1)
        coords[pending[solved, None], template.recovered_columns] = values[solved]
        pending = pending[~solved]
        if not len(pending):
            break
    keep = np.ones(len(coords), dtype=bool)
    keep[pending] = False
    return coords[keep], m_at_roots[keep]


def _residuals(
    m_at_roots: np.ndarray, template: SolverTemplate, coords: np.ndarray, rows
) -> np.ndarray:
    """max over ``rows`` of |M(z) v(x)| / |x| for each row x of ``coords``."""
    points = coords[:, template.recovered_columns]
    equations = equation_values(m_at_roots, template.exponents, points, rows)
    norms = np.sqrt(np.add.reduce(coords * coords, axis=1))  # np.linalg.norm's sum
    return np.abs(equations).max(axis=1) / np.where(norms > 0.0, norms, 1.0)


def _deduplicate(x: np.ndarray) -> list:
    """Indices of the rows of ``x`` (best first) that survive the merge.

    Greedy in order: a row is dropped when it lies within DUPLICATE_TOL
    (relative to 1 + its largest entry) of a row already kept.
    """
    if not len(x):
        return []
    scale = 1.0 + np.abs(x).max(axis=1)
    close = np.abs(x[:, None] - x[None]).max(axis=-1) < DUPLICATE_TOL * scale[:, None]
    kept: list = []
    for k, near in enumerate(close.tolist()):
        for other in kept:
            if near[other]:
                break
        else:
            kept.append(k)
    return kept


def _select(
    coords: np.ndarray, residuals: np.ndarray, r: int, candidate_roots: int
) -> SolutionSet:
    """Rank, merge, threshold and cap the candidates into a SolutionSet.

    Candidates are ordered by residual, ties broken by the coordinates in
    order; near-duplicates merge into the better one; at most ``r`` of
    those with residual <= RESIDUAL_FAIL_THRESHOLD are accepted.
    """
    order = np.lexsort((*coords.T[::-1], residuals))
    coords, residuals = coords[order], residuals[order]
    kept = np.array(_deduplicate(coords), dtype=int)
    good = kept[residuals[kept] <= RESIDUAL_FAIL_THRESHOLD][:r]
    accepted = tuple(map(CandidateSolution, coords[good], residuals[good].tolist()))
    return SolutionSet(
        accepted=accepted,
        rejected_count=len(coords) - len(accepted),
        failed=not len(good),
        candidate_roots=candidate_roots,
        roots_found=len(coords),
    )


def _hidden_roots(stack: np.ndarray, template: SolverTemplate) -> tuple:
    """(number of complex roots, real hidden values) of det M for one stack."""
    # det of an N x N matrix of degree-d entries has degree at most N d; a
    # larger k would only let template input size the FFT
    max_degree = template.size * (len(stack) - 1)
    if template.k > max_degree:
        raise SolveError(f"template degree {template.k} exceeds N d = {max_degree}")

    samples = det_complex(batched_eval(stack, template.k))
    raw = recover_coefficients(samples)
    max_mag = float(np.abs(raw).max())
    if max_mag == 0.0:
        raise SolveError("degenerate instance: determinant vanished identically")
    if float(np.abs(raw.imag).max()) > REAL_SYMMETRY_TOL * max_mag:
        raise SolveError(
            "degenerate instance: real-coefficient symmetry violated"
        )
    det_poly = trim(raw.real)
    if len(det_poly) < 2:
        raise SolveError("degenerate instance: determinant degree collapsed")

    all_roots = roots(det_poly)
    return len(all_roots), real_candidates(all_roots)


def _second_frame(problem, data, stack: np.ndarray, template: SolverTemplate):
    """Solve again in the problem's second frame; None when that frame fails.

    ``problem.second_frame(data)`` gives the equations in a frame where the
    homogeneous unknowns [x', 1] are mixed by a constant orthogonal Q.  Each
    candidate maps back by c = Q^T [x', 1] divided by its last entry, and
    is re-scored on the equation rows of the original ``stack``.
    """
    try:
        equations, mix = problem.second_frame(data)
        frame_stack = problem.build(equations)
        candidate_roots, hidden_values = _hidden_roots(frame_stack, template)
    except (DegenerateDataError, SolveError):
        return None
    frame_coords, _ = _back_substitute(frame_stack, template, hidden_values)
    homogeneous = np.hstack([frame_coords, np.ones((len(frame_coords), 1))]) @ mix
    coords = homogeneous[:, :-1] / homogeneous[:, -1:]
    m_at_roots = evaluate_at(stack, coords[:, template.hidden_index])
    residuals = _residuals(m_at_roots, template, coords, problem.equation_rows)
    return _select(coords, residuals, template.r, candidate_roots)


def solve_online(template: SolverTemplate, data) -> SolutionSet:
    """Run the full online stage for one instance.

    When nothing is accepted and the problem has a second frame, the
    instance is solved once more in that frame, and its result replaces
    the first one if it accepts a solution.  A template whose variables
    or basis differ from its problem's (and with the basis, its size) is
    refused: its Cramer rules would read the wrong columns.
    """
    problem = get_problem(template.problem_id)
    for name in ("n_vars", "hidden_index", "basis"):
        if getattr(template, name) != getattr(problem, name):
            raise SolveError(f"template {name} does not match problem {problem.problem_id}")
    try:
        stack = problem.build(problem.original_equations(data))
    except DegenerateDataError as exc:
        raise SolveError(f"degenerate instance: {exc}") from exc
    candidate_roots, hidden_values = _hidden_roots(stack, template)
    coords, m_at_roots = _back_substitute(stack, template, hidden_values)
    residuals = _residuals(m_at_roots, template, coords, problem.equation_rows)
    result = _select(coords, residuals, template.r, candidate_roots)
    if result.failed and problem.second_frame is not None:
        retried = _second_frame(problem, data, stack, template)
        if retried is not None and not retried.failed:
            return retried
    return result


def solution_set_to_json(result: SolutionSet) -> dict:
    return {
        "solutions": [
            {"x": c.x.tolist(), "residual": c.residual} for c in result.accepted
        ],
        "failed": result.failed,
        "roots_found": result.roots_found,
        "candidate_roots": result.candidate_roots,
    }
