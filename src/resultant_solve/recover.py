"""Online stage: from instance data to verified solutions.

One solve executes the whole sampling pipeline as a chain of plain
arrays: build the (d+1, N, N) coefficient stack of the matrix polynomial,
evaluate it at the unit-circle points with one FFT, take the batched
determinants, recover the determinant's coefficient array via IFFT, trim
it, and root it through its companion matrix.  Back-
substitution then runs on all real candidate roots at once: one Horner
pass evaluates the matrix at every root, and every Cramer-rule ratio of
every root comes from one batched LU call on a stack of column-replaced
submatrices.  Only roots whose deletion submatrix is singular retry the
alternate deletion pairs.  One residual pass against the original
equations scores all candidates, and the small ones are kept.  No step
forms a matrix inverse or solves a linear system through one; every
quantity is a ratio of determinants.
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
COORDINATE_IM_TOL = 1e-6
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
    the Euclidean norm of x, recomputed from the input system.
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

    Returns (values, singular), both (R, W): the ratios, and whether the
    denominator fell below SINGULAR_FLOOR (the value is then meaningless).
    """
    i, j = deletion_pair
    size = m_at_roots.shape[-1]
    for pair in recovery_pairs.values():
        if any(c == j or not 0 <= c < size for c in pair):
            raise ValueError(f"recovery pair {pair} out of range or deleted")
    rows = np.delete(np.arange(size), i)
    cols = np.delete(np.arange(size), j)
    sub = m_at_roots[:, rows[:, None], cols]
    rhs = -m_at_roots[:, rows, j]
    replaced = [c - (c > j) for w in sorted(recovery_pairs) for c in recovery_pairs[w]]
    stack = np.repeat(sub[:, None], len(replaced), axis=1)
    stack[:, np.arange(len(replaced)), :, replaced] = rhs
    dets = det_complex(stack).reshape(len(sub), -1, 2)
    numer, denom = dets[..., 0], dets[..., 1]
    singular = np.abs(denom) < SINGULAR_FLOOR
    return numer / np.where(singular, 1.0, denom), singular


def _first_failure(values: np.ndarray, singular: np.ndarray) -> tuple:
    """Per root: whether a variable failed, and whether the first was singular.

    Variables are checked in order; the first one that is singular or has
    a non-real value decides the root's fate.
    """
    nonreal = np.abs(values.imag) > COORDINATE_IM_TOL * (1.0 + np.abs(values.real))
    failed = singular | nonreal
    first = failed.argmax(axis=1)
    return failed.any(axis=1), singular[np.arange(len(values)), first]


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


def _assemble_candidates(
    stack: np.ndarray,
    template: SolverTemplate,
    hidden_values: np.ndarray,
    system,
) -> list:
    """Back-substituted candidate vectors with their normalized residuals.

    A root whose first failing variable has a non-real value is discarded.
    A root whose first failing variable is singular retries the alternate
    deletion pairs one at a time until one gives real values (kept), hits a
    non-real value (discarded) or the alternates run out (discarded).
    """
    if not len(hidden_values):
        return []
    m_at_roots = evaluate_at(stack, hidden_values)
    values, singular = cramer_ratios(
        m_at_roots, template.deletion_pair, template.recovery_pairs
    )
    failed, retry = _first_failure(values, singular)
    recovered = [w for w in range(template.n_vars) if w != template.hidden_index]
    coords = np.empty((len(hidden_values), template.n_vars))
    coords[:, template.hidden_index] = hidden_values
    coords[:, recovered] = values.real
    keep = ~failed
    fallback: list | None = None  # built only if the template pair degenerates
    for root in np.flatnonzero(retry):
        if fallback is None:
            fallback = _fallback_deletions(template)
        for pair, pairs in fallback:
            values, singular = cramer_ratios(m_at_roots[root : root + 1], pair, pairs)
            (bad,), (again,) = _first_failure(values, singular)
            if not bad:
                coords[root, recovered] = values[0].real
                keep[root] = True
            if not (bad and again):
                break
    vecs = coords[keep]
    if not len(vecs):
        return []
    norms = np.linalg.norm(vecs, axis=1)
    residuals = system.max_abs_residual(vecs) / np.where(norms > 0.0, norms, 1.0)
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
        stack = problem.build(data)
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
    system = problem.original_equations(data)
    candidates = _assemble_candidates(stack, template, hidden_values, system)
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
