"""The online stage before templates compiled their Cramer rules, kept verbatim.

A differential oracle for ``resultant_solve.recover``: this copy
re-derives the Cramer index arrays and the fallback deletion pairs on
every solve, builds a ``CandidateSolution`` for every candidate and sorts
by a tuple key.  The array path must give
bitwise the same ``SolutionSet`` for every instance whose first solve
accepts a solution (``tests/test_reference_online.py``).  The only code
shared with the library is the problem layer (equations and build), the
FFT sampling and IFFT recovery, ``det_complex``, the ``select_recovery_pairs``
lookup and the two result dataclasses.
"""

from __future__ import annotations

import numpy as np

from resultant_solve.matrixpoly import det_complex
from resultant_solve.offline import (
    SolverTemplate,
    TemplateError,
    select_recovery_pairs,
)
from resultant_solve.problems import DegenerateDataError, get_problem
from resultant_solve.recover import (
    DUPLICATE_TOL,
    RESIDUAL_FAIL_THRESHOLD,
    SINGULAR_FLOOR,
    CandidateSolution,
    SolutionSet,
    SolveError,
)
from resultant_solve.rootfind import DEFAULT_IM_TOL
from resultant_solve.spectral import DEFAULT_TRIM_TOL, batched_eval, recover_coefficients

# the library has no such check: it fills the lower half circle with the
# exact conjugates of its samples, so its IFFT is real up to rounding
REAL_SYMMETRY_TOL = 1e-10


def evaluate_at(stack: np.ndarray, z) -> np.ndarray:
    z = np.asarray(z)
    z = np.asarray(z, dtype=complex if np.iscomplexobj(z) else float)[..., None, None]
    result = stack[-1] + np.zeros_like(z)
    for a in stack[-2::-1]:
        result = result * z + a
    return result


def trim(coeffs: np.ndarray) -> np.ndarray:
    mags = np.abs(coeffs)
    cutoff = DEFAULT_TRIM_TOL * mags.max()
    top = len(coeffs)
    while top > 1 and mags[top - 1] <= cutoff:
        top -= 1
    return coeffs[:top]


def roots(coeffs: np.ndarray) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=complex)
    deg = len(coeffs) - 1
    if deg < 1:
        raise ValueError("no roots: polynomial has degree 0")
    monic = coeffs / coeffs[-1]
    companion = np.eye(deg, k=-1, dtype=complex)
    companion[:, -1] = -monic[:-1]
    return np.linalg.eigvals(companion)


def real_candidates(roots_: np.ndarray) -> np.ndarray:
    roots_ = np.asarray(roots_, dtype=complex)
    keep = np.abs(roots_.imag) <= DEFAULT_IM_TOL * (1.0 + np.abs(roots_.real))
    return roots_.real[keep]


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


def template_pairs(template: SolverTemplate) -> dict:
    """The recovery pairs of the template's deletion pair."""
    problem = get_problem(template.problem_id)
    return dict(enumerate(select_recovery_pairs(problem.basis, template.deletion_pair[1])))


def rule_pairs(template: SolverTemplate) -> list:
    """(deletion pair, recovery pairs) of the template's pair, then its alternates."""
    return [(template.deletion_pair, template_pairs(template)), *_fallback_deletions(template)]


def _fallback_deletions(template: SolverTemplate) -> list:
    """Row-major alternates to the template's deletion pair.

    The offline pair is validated on generic data, but a special instance
    can zero it out structurally (for example when the deleted column has
    support only in the deleted row); alternates keep such candidates alive.
    """
    problem = get_problem(template.problem_id)
    options = []
    pairs_for_col: dict = {}
    for i in range(len(problem.basis)):
        for j in range(len(problem.basis)):
            if (i, j) == template.deletion_pair:
                continue
            if j not in pairs_for_col:
                try:
                    pairs_for_col[j] = dict(enumerate(select_recovery_pairs(problem.basis, j)))
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
    problem = get_problem(template.problem_id)
    if not len(hidden_values):
        return []
    m_at_roots = evaluate_at(stack, hidden_values)
    values, singular = cramer_ratios(
        m_at_roots, template.deletion_pair, template_pairs(template)
    )
    recovered = list(range(problem.n_vars - 1))
    coords = np.empty((len(hidden_values), problem.n_vars))
    coords[:, -1] = hidden_values
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
    equations = equation_values(m_at_roots[keep], problem.basis, vecs[:, recovered], rows)
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
    if stack.shape[-1] != len(problem.basis):
        raise SolveError(
            f"matrix size {stack.shape[-1]} does not match template {len(problem.basis)}"
        )
    # det of an N x N matrix of degree-d entries has degree at most N d; a
    # larger k would only let template input size the FFT
    max_degree = len(problem.basis) * (len(stack) - 1)
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
    accepted = tuple(good[: problem.expected_solutions])
    return SolutionSet(
        accepted=accepted,
        candidate_roots=len(all_roots),
        roots_found=len(candidates),
    )
