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
submatrices.  Only roots whose deletion submatrix is singular retry the
alternate deletion pairs.  The original equations are rows of the matrix
(the problem names them in ``equation_rows``), so each candidate's
residual is read from M(z) v(x) at its root, with no second pass over the
equations, and the small ones are kept.  No step forms a matrix inverse
or solves a linear system through one; every quantity is a ratio of
determinants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrixpoly import det_complex, evaluate_at
from .offline import SolverTemplate, TemplateError, select_recovery_pairs
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


def cramer_ratios(
    m_at_roots: np.ndarray, deletion_pair: tuple, recovery_pairs: dict
) -> tuple:
    """Every recovered variable at every root, as Cramer determinant ratios.

    ``m_at_roots`` is the (R, N, N) stack of the matrix evaluated at R
    hidden-variable values.  The deletion pair (i, j) removes row i and
    column j; the negated column j, without row i, is the right-hand side.
    Variable w (ascending order of ``recovery_pairs``) is det(replace
    column j1) / det(replace column j2) for its pair (j1, j2); the shared
    b_j normalization cancels, so the result does not depend on the deleted
    column's monomial.  All 2W determinants of all R roots are one batched
    LU call on an (R, 2W, N-1, N-1) stack.

    Returns (values, singular), both (R, W): the ratios, in the dtype of
    ``m_at_roots`` (float64 at real roots), and whether the denominator
    fell below SINGULAR_FLOOR (the value is then meaningless).
    """
    i, j = deletion_pair
    size = m_at_roots.shape[-1]
    for pair in recovery_pairs.values():
        if any(c == j or not 0 <= c < size for c in pair):
            raise ValueError(f"recovery pair {pair} out of range or deleted")
    index = np.arange(size)
    rows, cols = index[index != i], index[index != j]
    sub = m_at_roots[:, rows[:, None], cols]
    rhs = -m_at_roots[:, rows, j]
    replaced = [c - (c > j) for w in sorted(recovery_pairs) for c in recovery_pairs[w]]
    stack = np.repeat(sub[:, None], len(replaced), axis=1)
    stack[:, np.arange(len(replaced)), :, replaced] = rhs
    dets = det_complex(stack).reshape(len(sub), -1, 2)
    numer, denom = dets[..., 0], dets[..., 1]
    singular = np.abs(denom) < SINGULAR_FLOOR
    return numer / np.where(singular, 1.0, denom), singular


def _fallback_deletions(template: SolverTemplate) -> list:
    """Row-major alternates to the template's deletion pair.

    The offline pair is validated on generic data, but a special instance
    can zero it out structurally (for example when the deleted column has
    support only in the deleted row); alternates keep such candidates alive.
    """
    options = []
    pairs_for_col: dict = {}
    for i in range(template.size):
        for j in range(template.size):
            if (i, j) == template.deletion_pair:
                continue
            if j not in pairs_for_col:
                try:
                    pairs_for_col[j] = select_recovery_pairs(
                        template.basis, j, template.n_vars, template.hidden_index
                    )
                except TemplateError:
                    pairs_for_col[j] = None
            if pairs_for_col[j] is not None:
                options.append(((i, j), pairs_for_col[j]))
    return options


def equation_values(
    m_at_roots: np.ndarray, basis: tuple, points: np.ndarray, rows: tuple
) -> np.ndarray:
    """The original equations at R candidates, read from the matrix rows.

    ``m_at_roots`` is the (R, N, N) matrix at the candidates' hidden values
    and ``points`` the (R, n-1) non-hidden coordinates, in ``basis``
    order.  Each of ``rows`` times the basis monomials v(x) is one
    original equation, so the result is (R, len(rows)).
    """
    monomials = np.prod(points[:, None, :] ** np.asarray(basis), axis=-1)
    return (m_at_roots @ monomials[..., None])[:, list(rows), 0]


def _assemble_candidates(
    stack: np.ndarray,
    template: SolverTemplate,
    hidden_values: np.ndarray,
    rows: tuple,
) -> list:
    """Back-substituted candidate vectors with their normalized residuals.

    A root whose template deletion pair is singular for some variable
    retries the alternate deletion pairs one at a time until one is
    non-singular for every variable (kept) or the alternates run out
    (discarded).  The residual is max over ``rows`` of |M(z) v(x)| / |x|.
    """
    if not len(hidden_values):
        return []
    m_at_roots = evaluate_at(stack, hidden_values)
    values, singular = cramer_ratios(
        m_at_roots, template.deletion_pair, template.recovery_pairs
    )
    recovered = [w for w in range(template.n_vars) if w != template.hidden_index]
    coords = np.empty((len(hidden_values), template.n_vars))
    coords[:, template.hidden_index] = hidden_values
    coords[:, recovered] = values
    keep = ~singular.any(axis=1)
    fallback: list | None = None  # built only if the template pair degenerates
    for root in np.flatnonzero(~keep):
        if fallback is None:
            fallback = _fallback_deletions(template)
        for pair, pairs in fallback:
            values, singular = cramer_ratios(m_at_roots[root : root + 1], pair, pairs)
            if not singular.any():
                coords[root, recovered] = values[0]
                keep[root] = True
                break
    vecs = coords[keep]
    if not len(vecs):
        return []
    equations = equation_values(m_at_roots[keep], template.basis, vecs[:, recovered], rows)
    norms = np.linalg.norm(vecs, axis=1)
    residuals = np.abs(equations).max(axis=1) / np.where(norms > 0.0, norms, 1.0)
    return [CandidateSolution(x, float(res)) for x, res in zip(vecs, residuals)]


def _deduplicate(candidates: list) -> list:
    """Merge near-identical vectors, keeping the lower residual."""
    if not candidates:
        return []
    x = np.array([c.x for c in candidates])  # already sorted by residual
    scale = 1.0 + np.abs(x).max(axis=1)
    close = np.abs(x[:, None] - x[None]).max(axis=-1) < DUPLICATE_TOL * scale[:, None]
    kept: list = []
    for k, near in enumerate(close.tolist()):
        if not any(near[other] for other in kept):
            kept.append(k)
    return [candidates[k] for k in kept]


def solve_online(template: SolverTemplate, data) -> SolutionSet:
    """Run the full online stage for one instance."""
    problem = get_problem(template.problem_id)
    try:
        stack = problem.build(problem.original_equations(data))
    except DegenerateDataError as exc:
        raise SolveError(f"degenerate instance: {exc}") from exc
    if stack.shape[-1] != template.size:
        raise SolveError(
            f"matrix size {stack.shape[-1]} does not match template {template.size}"
        )
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
    hidden_values = real_candidates(all_roots)
    candidates = _assemble_candidates(
        stack, template, hidden_values, problem.equation_rows
    )
    candidates.sort(key=lambda c: (c.residual, tuple(c.x)))
    kept = _deduplicate(candidates)

    good = [c for c in kept if c.residual <= RESIDUAL_FAIL_THRESHOLD]
    accepted = tuple(good[: template.r])
    return SolutionSet(
        accepted=accepted,
        rejected_count=len(candidates) - len(accepted),
        failed=not good,
        candidate_roots=len(all_roots),
        roots_found=len(candidates),
    )


def solution_set_to_json(result: SolutionSet) -> dict:
    return {
        "solutions": [
            {"x": c.x.tolist(), "residual": c.residual} for c in result.accepted
        ],
        "failed": result.failed,
        "roots_found": result.roots_found,
        "candidate_roots": result.candidate_roots,
    }
