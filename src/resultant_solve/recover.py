"""Online stage: from instance data to verified solutions.

One solve executes the whole sampling pipeline as a chain of plain
arrays: write out the instance's original equations, build from their
coefficients the (d+1, N, N) coefficient stack of the matrix polynomial,
evaluate it at the unit-circle points with one FFT, take the batched
determinants on the upper half of the circle (the stack is real, so the
lower half's are their exact conjugates), recover the determinant's
coefficient array via IFFT, trim it, and root it through its companion
matrix.  Back-substitution then runs on all real candidate roots at
once, in float64: one Horner pass evaluates the matrix at every root,
and every Cramer-rule ratio of every root comes from one batched LU call
on a stack of column-replaced submatrices, gathered from [M | -M]
through the index that the template compiled once for its deletion
pair.  Roots whose deletion submatrix is singular retry the template's
other rules together, one rule at a time, and each keeps the first
that works.  The original equations are rows of the matrix (the problem
names them in ``equation_rows``), so each candidate's residual is read
from M(z) v(x) at its root, with no second pass over the equations.
Candidates stay (R, n) and (R,) arrays through ranking, merging and the
residual threshold; only the accepted ones become ``CandidateSolution``
objects.  While none is within the threshold, the next constant frame of
the problem is solved from ``equations @ T``, and one selection ranks the
candidates of every frame that ran.  No step forms a matrix inverse or
solves a linear system through one; every quantity is a ratio of determinants.
"""

from __future__ import annotations

import math
from contextlib import suppress
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
# a determinant whose largest coefficient is at most VANISH_FLOOR times H,
# the Hadamard bound of |det M| on the unit circle, is rounding noise.
# Measured log10(largest coefficient / H): the conic and five_point seed
# 1-3 pools at or above -12.3; near-identical conics (C2 = C1 + 1e-9 B),
# ill-posed but solvable, -21.6 to -17.8; identical and proportional
# conics, identical views and a collinear first view at or below -30.7.
# 1e-26 leaves over 4 orders of margin on each side.
VANISH_FLOOR = 1e-26


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
    candidate_roots: int  # complex roots of every frame's trimmed det polynomial
    roots_found: int  # real candidate vectors of every frame that reached ranking

    @property
    def failed(self) -> bool:
        return not self.accepted

    @property
    def rejected_count(self) -> int:
        return self.roots_found - len(self.accepted)


def cramer_at(m_at_roots: np.ndarray, index: np.ndarray) -> tuple:
    """Every recovered variable at every root, as Cramer determinant ratios.

    ``m_at_roots`` is the (R, N, N) stack of the matrix evaluated at R
    hidden-variable values, and ``index`` one of ``SolverTemplate.rules``,
    a deletion pair (i, j) with its recovery pairs: row i and column j
    are removed, and the negated column j, without row i, is the
    right-hand side.  Variable w, one of the W before the hidden last one, is
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
    stack: np.ndarray, problem, template: SolverTemplate, hidden_values: np.ndarray
) -> tuple:
    """(coords, m_at_roots) of the roots that back-substitution keeps.

    Every root starts under the template's first rule, its deletion pair;
    the roots singular there for some variable retry the other rules in
    order, all still-singular roots at once, so each keeps the first rule
    that is non-singular for every variable; roots left when the rules run
    out are discarded.  ``coords`` is (R, n) with the hidden value in its
    last column, and ``m_at_roots`` the (R, N, N) matrix at the kept roots,
    both in root order.
    """
    if not len(hidden_values):
        return np.empty((0, problem.n_vars)), np.empty((0,) + stack.shape[1:])
    m_at_roots = evaluate_at(stack, hidden_values)
    coords = np.empty((len(hidden_values), problem.n_vars))
    coords[:, -1] = hidden_values
    pending = np.arange(len(hidden_values))
    for index in template.rules:
        values, singular = cramer_at(m_at_roots[pending], index)
        # a singular root's values are overwritten by a later rule or dropped
        coords[pending, :-1] = values
        pending = pending[singular.any(axis=1)]
        if not len(pending):
            return coords, m_at_roots
    keep = np.ones(len(coords), dtype=bool)
    keep[pending] = False
    return coords[keep], m_at_roots[keep]


def _residuals(
    m_at_roots: np.ndarray, template: SolverTemplate, coords: np.ndarray, rows
) -> np.ndarray:
    """max over ``rows`` of |M(z) v(x)| / |x| for each row x of ``coords``."""
    points = coords[:, :-1]
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


def _select(pool: list, r: int) -> SolutionSet:
    """Rank, merge, threshold and cap ``pool``, one ``_candidates`` tuple per frame.

    Candidates are ordered by residual, ties broken by the coordinates in
    order; near-duplicates merge into the better one; at most ``r`` of
    those with residual <= RESIDUAL_FAIL_THRESHOLD are accepted.
    """
    candidate_roots, coords, residuals = zip(*pool)
    coords, residuals = np.concatenate(coords), np.concatenate(residuals)
    order = np.lexsort((*coords.T[::-1], residuals))
    coords, residuals = coords[order], residuals[order]
    kept = np.array(_deduplicate(coords), dtype=int)
    good = kept[residuals[kept] <= RESIDUAL_FAIL_THRESHOLD][:r]
    accepted = tuple(map(CandidateSolution, coords[good], residuals[good].tolist()))
    return SolutionSet(accepted, sum(candidate_roots), len(coords))


def _vanishes(stack: np.ndarray, max_mag: float) -> bool:
    """Whether ``max_mag``, the largest determinant coefficient, is <= VANISH_FLOOR * H.

    H, the product over rows of the 2-norm of that row of sum_l |A_l|,
    bounds |det M| on the unit circle (Hadamard), and with it every
    coefficient.  H is at most (sqrt(N) (d+1) max|A|)^N, so it is formed
    only when ``max_mag`` falls below VANISH_FLOOR times that.  Both sides
    are compared as logarithms, so no scale of the stack overflows.
    """
    if max_mag == 0.0:
        return True
    size = stack.shape[-1]
    magnitudes = np.abs(stack)
    scale = float(magnitudes.max())
    excess = math.log(max_mag) - math.log(VANISH_FLOOR) - size * math.log(scale)
    if excess > size * math.log(math.sqrt(size) * len(stack)):
        return False
    rows = magnitudes.sum(axis=0) / scale
    norms = np.sqrt(np.add.reduce(rows * rows, axis=1))
    # a zero row makes every sample's det exactly 0, so max_mag is 0 then
    return excess <= float(np.log(norms).sum())


def _hidden_roots(stack: np.ndarray, template: SolverTemplate) -> tuple:
    """(number of complex roots, real hidden values) of det M for one stack."""
    # det of an N x N matrix of degree-d entries has degree at most N d; a
    # larger k would only let template input size the FFT
    max_degree = stack.shape[-1] * (len(stack) - 1)
    if template.k > max_degree:
        raise SolveError(f"template degree {template.k} exceeds N d = {max_degree}")

    # the stack is real, so the det at sample k+1-j is bit for bit the
    # conjugate of the det at sample j: only the upper half circle takes an
    # LU, and the IFFT of these Hermitian samples is real up to rounding
    count = template.k + 1
    upper = det_complex(batched_eval(stack, template.k)[: count // 2 + 1])
    samples = np.concatenate((upper, upper[(count - 1) // 2 : 0 : -1].conj()))
    raw = recover_coefficients(samples)
    if _vanishes(stack, float(np.abs(raw).max())):
        raise SolveError(
            "degenerate instance: determinant vanishes to rounding"
            " (a continuum of solutions, or none)"
        )
    det_poly = trim(raw.real)
    if len(det_poly) < 2:
        raise SolveError("degenerate instance: determinant degree collapsed")

    all_roots = roots(det_poly)
    return len(all_roots), real_candidates(all_roots)


def _candidates(problem, template, stack, frame_stack, P) -> tuple:
    """Unselected (candidate_roots, coords, residuals) in the frame [x, 1] = P [x', 1].

    Each candidate x' of ``frame_stack`` maps back by c = P [x', 1] over its
    last entry and is scored on the equation rows of the original ``stack``;
    ``P`` is None, and nothing is mapped, when ``frame_stack`` is ``stack``.
    """
    candidate_roots, hidden_values = _hidden_roots(frame_stack, template)
    coords, m_at_roots = _back_substitute(frame_stack, problem, template, hidden_values)
    if P is not None:
        homogeneous = np.hstack([coords, np.ones((len(coords), 1))]) @ P.T
        coords = homogeneous[:, :-1] / homogeneous[:, -1:]
        m_at_roots = evaluate_at(stack, coords[:, -1])
    residuals = _residuals(m_at_roots, template, coords, problem.equation_rows)
    return candidate_roots, coords, residuals


def solve_online(template: SolverTemplate, data) -> SolutionSet:
    """Run the full online stage for one instance.

    While no candidate is within RESIDUAL_FAIL_THRESHOLD, it is solved again
    in the next of the problem's ``frames``, and one ``_select`` takes the
    candidates of every frame that ran.  The variables, the basis and r are
    the problem's; the template adds k and its compiled Cramer rules.
    """
    problem = get_problem(template.problem_id)
    try:
        equations = problem.original_equations(data)
        stack = problem.build(equations)
    except DegenerateDataError as exc:
        raise SolveError(f"degenerate instance: {exc}") from exc
    pool = [_candidates(problem, template, stack, stack, None)]
    for P, T in problem.frames:
        if (pool[-1][2] <= RESIDUAL_FAIL_THRESHOLD).any():
            break
        with suppress(SolveError):  # a frame that raises is skipped
            pool.append(_candidates(problem, template, stack, problem.build(equations @ T), P))
    return _select(pool, problem.expected_solutions)


def solution_set_to_json(result: SolutionSet) -> dict:
    return {
        "solutions": [
            {"x": c.x.tolist(), "residual": c.residual} for c in result.accepted
        ],
        "failed": result.failed,
        "roots_found": result.roots_found,
        "candidate_roots": result.candidate_roots,
    }
