"""Metamorphic relations: transformed inputs whose answers are known exactly.

A change that moves results at rounding level cannot be judged by bitwise
equality with its parent, and a solver that silently drops real
solutions still passes a residual gate.  Each relation here transforms an
instance so that the exact solution set is unchanged (or changes in a
known way), solves both, and compares.  The comparison is made in a
frame both solves share: points for ``conic``, unit-norm essential
matrices for ``five_point``, whose (x, y, z) coordinates live in a
nullspace basis that changes with the input.

Each relation bounds three things: the number of instances whose two
solves accept different counts, the median distance between the two
solution sets, and the worst distance.  The median is the sensitive one:
it sits near rounding level and moves by orders of magnitude when
back-substitution loses precision.  The worst distance comes from the
few ill-conditioned instances, and both it and the mismatch count depend
on the LAPACK kernels numpy runs on.  Each limit is therefore set from
the solver as it was when the relation was added, measured under five
OpenBLAS kernels (``OPENBLAS_CORETYPE`` = SkylakeX, Haswell, Sandybridge,
Nehalem and Prescott, numpy 2.4.6 with OpenBLAS 0.3.31, Python 3.11):
the comment next to each limit gives the spread, and the limit sits above
the worst of them.  A later change may tighten a limit; it may loosen one
only after measuring the unchanged solver above it on a new platform.
The seven tolerance relations (the ``conic`` swap of the two conics, the
``conic`` pencil, the ``conic`` rotation and translation of the plane, the
``conic`` scaling by non-powers of two, the ``five_point`` permutation of
the correspondences and the ``five_point`` swap of the two views) also
require every instance to accept a solution, so a solver that rejects
everything cannot pass them vacuously.

Mutations the relations were checked against, each on a deliberately
broken copy of the code:

- back-substitution at the real roots in float32 (Horner and Cramer):
  the ``conic`` swap's median distance becomes 6.0e-8, and the
  ``five_point`` count differs in 102 of 400 instances, with a median
  distance of 5.0e-6; under the view swap (the matrix at the roots
  rounded to float32 before Cramer) it differs in 113 of 400, with a
  median distance of 3.9e-6;
- back-substitution that skips the last Cramer variable (x for
  ``conic``, y for ``five_point``): both fail, because every candidate is
  then rejected;
- an epipolar matrix that pairs each point of view b with the previous
  point of view a: the solver then solves a consistent but wrong system
  whose answer depends on the order of the correspondences, and the
  ``five_point`` count differs in 208 of 400 instances.  Under the view
  swap it differs in 98 of 400, with a median distance of 0.80: in the
  original labels, the swapped instance pairs each point of view b with
  the next point of view a instead.  The ``conic`` swap does not involve this code;
- the matrix at the real roots rounded to float32 before Cramer (in
  ``_back_substitute``): the ``conic`` swap still passes, because it only
  permutes the matrix rows and so rounds the same entries, but the
  ``conic`` pencil's median distance becomes 4.3e-7 and its worst 1.4e-4,
  and the translation's median 2.5e-7 by (0.3, -0.2) and 2.9e-7 by
  (0.5, 0.5).  The scaling by (3, 1/3) passes too (median 5e-15): its two
  solves' matrices differ at rounding level, and float32 rounds them to
  the same values;
- a real-root filter that also drops hidden values with |z| >= 0.9: the
  ``conic`` swap and pencil still pass, because both of their solves have
  the same intersections and lose the same ones, but the ``conic``
  rotation, which moves the intersections' y, counts 252 of 500
  instances with different counts.  So does the translation of the
  plane: 225 of 500 by (0.3, -0.2) and 358 of 500 by (0.5, 0.5);
- the determinant sampled on the circle of radius 8 instead of the unit
  circle (the stack scaled by 8^l before the FFT, the coefficients by
  8^-l after it): every ``conic`` relation fails; the scaling's median
  distance becomes 2.8e-10 and its worst 4.8e-4, and the translation's
  median 5.8e-10 and 7.5e-10.

One relation turns a problem's frames off: ``five_point`` runs its frame
only while the first one has no candidate to accept, so every solution
accepted without frames is accepted bit for bit with them, and a frame
may only add solutions.  The pool includes the six instances of
``test_recover.TestSecondFrame.RETRIED``, which accept nothing without
the frame under every kernel, so the relation cannot pass without a
frame having run.  It catches a trigger that always runs the frame: the
frame's near-duplicates then replace first-frame solutions in 359 of the
406 instances.

Two relations are exact: scaling a conic, or a homogeneous image point,
by a power of two changes no bit of the data after the constructors'
power-of-two pre-scale, so the ``SolutionSet`` must be bitwise the same.
The scalings reach 2^-900 and 2^900, where a sum of squares underflows or
overflows.  Mutations they catch:

- the constructors without the power-of-two pre-scale, normalizing by the
  plain Euclidean norm: a conic scaled by 2^-900 is rejected as "the zero
  conic", and a point scaled by 2^-900 as "a zero point";
- the ``conic`` constructor without pre-scale or normalization: the scaled
  pair solves to the same points with residuals scaled by the data, so
  the two ``SolutionSet``s differ.
"""

import dataclasses

import numpy as np
import pytest

import test_recover
from resultant_solve.problems import PROBLEMS, get_problem
from resultant_solve.problems.conic import ConicPairData
from resultant_solve.problems.five_point import FivePointData, _nullspace_basis
from resultant_solve.recover import SolveError, solve_online

SEED = 73

CONIC_INSTANCES = 500
CONIC_MAX_MISMATCHES = 0  # measured 0 under every kernel
CONIC_MAX_MEDIAN_DISTANCE = 1e-13  # measured 2.6e-15 .. 2.0e-14
CONIC_MAX_DISTANCE = 1.5e-7  # measured 5.6e-8 .. 1.15e-7

PENCIL_INSTANCES = 500
PENCIL_MAX_MISMATCHES = 0  # measured 0 under every kernel
PENCIL_MAX_MEDIAN_DISTANCE = 5e-13  # measured 1.4e-13 .. 1.7e-13
PENCIL_MAX_DISTANCE = 1e-6  # measured 8.6e-8 .. 3.9e-7

ROTATION_INSTANCES = 500
ROTATION_ANGLE = 0.7
ROTATION_MAX_MISMATCHES = 2  # measured 0 .. 1 (1 under Prescott)
ROTATION_MAX_MEDIAN_DISTANCE = 1e-12  # measured 4.6e-13 .. 6.0e-13
ROTATION_MAX_DISTANCE = 1e-3  # measured 7.2e-7 .. 5.0e-4

TRANSLATION_INSTANCES = 500
TRANSLATIONS = ((0.3, -0.2), (0.5, 0.5))
TRANSLATION_MAX_MISMATCHES = 0  # measured 0 under every kernel, both translations
TRANSLATION_MAX_MEDIAN_DISTANCE = 1e-12  # measured 2.0e-13 .. 4.0e-13
TRANSLATION_MAX_DISTANCE = 1.5e-6  # measured 3.9e-8 .. 7.1e-7

RESCALE_INSTANCES = 500
RESCALE_MAX_MISMATCHES = 0  # measured 0 under every kernel
RESCALE_MAX_MEDIAN_DISTANCE = 5e-13  # measured 8.7e-14 .. 1.1e-13
RESCALE_MAX_DISTANCE = 5e-7  # measured 9.2e-8 .. 1.4e-7

FIVE_POINT_INSTANCES = 400
FIVE_POINT_MAX_MISMATCHES = 8  # measured 4 .. 6
FIVE_POINT_MAX_MEDIAN_DISTANCE = 1e-10  # measured 1.6e-11 .. 2.1e-11
FIVE_POINT_MAX_DISTANCE = 6e-4  # measured 3.3e-5 .. 4.0e-4

VIEW_SWAP_INSTANCES = 400
VIEW_SWAP_MAX_MISMATCHES = 10  # measured 7 under every kernel
VIEW_SWAP_MAX_MEDIAN_DISTANCE = 1e-10  # measured 2.7e-11 .. 3.1e-11
VIEW_SWAP_MAX_DISTANCE = 5e-5  # measured 6.5e-6 .. 2.9e-5

FRAME_INSTANCES = 400
# solves to which a frame added solutions: measured 6 under every kernel
# (the retried instances).  A better first frame lowers this count, so it
# is not a quality limit: one such solve shows that a frame ran
FRAME_MIN_ADDED = 1

SCALING_INSTANCES = 100
SCALING_EXPONENTS = (-900, -37, -1, 1, 5, 64, 900)


def _accepted(template, data) -> list:
    try:
        return [c.x for c in solve_online(template, data).accepted]
    except SolveError:
        return []


def _set_distance(a: list, b: list) -> float:
    """Symmetric Hausdorff distance between two equal-size vector sets, max-abs."""
    d = np.abs(np.array(a)[:, None] - np.array(b)[None]).max(axis=-1)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def _essentials(data, xs: list) -> list:
    """Each solution's E = x E1 + y E2 + z E3 + E4, unit norm, largest entry positive."""
    basis = _nullspace_basis(data).reshape(4, 9)
    out = []
    for x in xs:
        e = np.append(x, 1.0) @ basis
        e /= np.linalg.norm(e)
        out.append(e * np.sign(e[np.abs(e).argmax()]))
    return out


def _compare(pairs) -> tuple:
    """(count mismatches, median and worst distance over matching counts)."""
    mismatches, distances = 0, []
    for a, b in pairs:
        assert a, "the original instance accepted no solution"
        if len(a) != len(b):
            mismatches += 1
        else:
            distances.append(_set_distance(a, b))
    return mismatches, float(np.median(distances)), max(distances)


def test_conic_swap_of_the_two_conics(conic_template):
    problem = get_problem("conic")

    def pairs():
        for i in range(CONIC_INSTANCES):
            data, _ = problem.generate_instance(np.random.default_rng([SEED, i]))
            swapped = ConicPairData(data.c2, data.c1)
            yield _accepted(conic_template, data), _accepted(conic_template, swapped)

    mismatches, median, worst = _compare(pairs())
    assert mismatches <= CONIC_MAX_MISMATCHES
    assert median <= CONIC_MAX_MEDIAN_DISTANCE
    assert worst <= CONIC_MAX_DISTANCE


def test_conic_pencil(conic_template):
    # (C1, C2) and (C1, 2 C1 + C2) span the same pencil of conics, so they
    # meet in the same points; unlike the swap, the second solve's matrix
    # is not a row permutation of the first's
    problem = get_problem("conic")

    def pairs():
        for i in range(PENCIL_INSTANCES):
            data, _ = problem.generate_instance(np.random.default_rng([SEED, i]))
            combined = ConicPairData(data.c1, 2 * data.c1 + data.c2)
            yield _accepted(conic_template, data), _accepted(conic_template, combined)

    mismatches, median, worst = _compare(pairs())
    assert mismatches <= PENCIL_MAX_MISMATCHES
    assert median <= PENCIL_MAX_MEDIAN_DISTANCE
    assert worst <= PENCIL_MAX_DISTANCE


def _rotation_pairs(template, count):
    # G = diag(R^T, 1): [q, 1] G^T C G [q, 1]^T = 0 exactly when R^T q lies
    # on C, so the rotated pair meets in the points R p, mapped back by R^T
    problem = get_problem("conic")
    c, s = np.cos(ROTATION_ANGLE), np.sin(ROTATION_ANGLE)
    g = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    for i in range(count):
        data, _ = problem.generate_instance(np.random.default_rng([SEED, i]))
        rotated = ConicPairData(g.T @ data.c1 @ g, g.T @ data.c2 @ g)
        back = [g[:2, :2] @ q for q in _accepted(template, rotated)]
        yield _accepted(template, data), back


def test_conic_rotation_of_the_plane(conic_template):
    # the rotated matrix mixes x and y, so every entry of the Sylvester
    # matrix changes, and the hidden values are new numbers
    mismatches, median, worst = _compare(_rotation_pairs(conic_template, ROTATION_INSTANCES))
    assert mismatches <= ROTATION_MAX_MISMATCHES
    assert median <= ROTATION_MAX_MEDIAN_DISTANCE
    assert worst <= ROTATION_MAX_DISTANCE


@pytest.mark.parametrize("t", TRANSLATIONS)
def test_conic_translation_of_the_plane(conic_template, t):
    # G = [[1, 0, -tx], [0, 1, -ty], [0, 0, 1]] maps [q, 1] to [q - t, 1], so
    # the translated pair meets in the points p + t, mapped back by -t; the
    # hidden values move by ty and every x by tx
    problem = get_problem("conic")
    g = np.array([[1.0, 0.0, -t[0]], [0.0, 1.0, -t[1]], [0.0, 0.0, 1.0]])

    def pairs():
        for i in range(TRANSLATION_INSTANCES):
            data, _ = problem.generate_instance(np.random.default_rng([SEED, i]))
            moved = ConicPairData(g.T @ data.c1 @ g, g.T @ data.c2 @ g)
            back = [q - t for q in _accepted(conic_template, moved)]
            yield _accepted(conic_template, data), back

    mismatches, median, worst = _compare(pairs())
    assert mismatches <= TRANSLATION_MAX_MISMATCHES
    assert median <= TRANSLATION_MAX_MEDIAN_DISTANCE
    assert worst <= TRANSLATION_MAX_DISTANCE


def test_conic_non_power_of_two_scaling(conic_template):
    # (3 C1, C2 / 3) are the same conics; unlike a power of two, the factors
    # change the normalized data at rounding level
    problem = get_problem("conic")

    def pairs():
        for i in range(RESCALE_INSTANCES):
            data, _ = problem.generate_instance(np.random.default_rng([SEED, i]))
            rescaled = ConicPairData(3 * data.c1, data.c2 / 3)
            yield _accepted(conic_template, data), _accepted(conic_template, rescaled)

    mismatches, median, worst = _compare(pairs())
    assert mismatches <= RESCALE_MAX_MISMATCHES
    assert median <= RESCALE_MAX_MEDIAN_DISTANCE
    assert worst <= RESCALE_MAX_DISTANCE


def test_five_point_permuted_correspondences(five_point_template):
    problem = get_problem("five_point")

    def pairs():
        for i in range(FIVE_POINT_INSTANCES):
            rng = np.random.default_rng([SEED, i])
            data, _ = problem.generate_instance(rng)
            perm = rng.permutation(5)
            permuted = FivePointData(data.pts_a[perm], data.pts_b[perm])
            yield (
                _essentials(data, _accepted(five_point_template, data)),
                _essentials(permuted, _accepted(five_point_template, permuted)),
            )

    mismatches, median, worst = _compare(pairs())
    assert mismatches <= FIVE_POINT_MAX_MISMATCHES
    assert median <= FIVE_POINT_MAX_MEDIAN_DISTANCE
    assert worst <= FIVE_POINT_MAX_DISTANCE


def test_five_point_swap_of_the_views(five_point_template):
    # b^T E a = 0 is a^T E^T b = 0: the swapped views have essential
    # matrix E^T (transposing keeps the largest entry and its sign)
    problem = get_problem("five_point")

    def pairs():
        for i in range(VIEW_SWAP_INSTANCES):
            data, _ = problem.generate_instance(np.random.default_rng([SEED, i]))
            swapped = FivePointData(data.pts_b, data.pts_a)
            yield (
                _essentials(data, _accepted(five_point_template, data)),
                [
                    e.reshape(3, 3).T.ravel()
                    for e in _essentials(swapped, _accepted(five_point_template, swapped))
                ],
            )

    mismatches, median, worst = _compare(pairs())
    assert mismatches <= VIEW_SWAP_MAX_MISMATCHES
    assert median <= VIEW_SWAP_MAX_MEDIAN_DISTANCE
    assert worst <= VIEW_SWAP_MAX_DISTANCE


def test_five_point_frames_only_add_solutions(five_point_template, monkeypatch):
    problem = get_problem("five_point")
    instances = [
        (five_point_template, problem.generate_instance(np.random.default_rng([SEED, i]))[0])
        for i in range(FRAME_INSTANCES)
    ]
    for seed, index in test_recover.TestSecondFrame.RETRIED:
        _, template, data, _ = test_recover.TestSecondFrame._retried(seed, index)
        instances.append((template, data))
    framed = [_accepted(template, data) for template, data in instances]
    monkeypatch.setitem(PROBLEMS, "five_point", dataclasses.replace(problem, frames=()))
    added = 0
    for (template, data), with_frames in zip(instances, framed):
        alone = _accepted(template, data)
        assert {x.tobytes() for x in alone} <= {x.tobytes() for x in with_frames}
        added += len(with_frames) > len(alone)
    assert added >= FRAME_MIN_ADDED


def _same_solution_set(a, b) -> bool:
    return (
        [(c.x.tobytes(), c.residual) for c in a.accepted]
        == [(c.x.tobytes(), c.residual) for c in b.accepted]
        and (a.rejected_count, a.failed, a.candidate_roots, a.roots_found)
        == (b.rejected_count, b.failed, b.candidate_roots, b.roots_found)
    )


def test_conic_power_of_two_scaling_is_exact(conic_template):
    problem = get_problem("conic")
    for i in range(SCALING_INSTANCES):
        rng = np.random.default_rng([SEED, i])
        data, _ = problem.generate_instance(rng)
        # the constructor's normalization is not idempotent to the last bit,
        # so the unscaled side goes through it once more as well
        base = ConicPairData(data.c1, data.c2)
        k1, k2 = rng.choice(SCALING_EXPONENTS, size=2)
        scaled = ConicPairData(np.ldexp(data.c1, k1), np.ldexp(data.c2, k2))
        result = solve_online(conic_template, base)
        assert result.accepted, "the original instance accepted no solution"
        assert _same_solution_set(result, solve_online(conic_template, scaled))


def test_five_point_power_of_two_point_scaling_is_exact(five_point_template):
    problem = get_problem("five_point")
    for i in range(SCALING_INSTANCES):
        rng = np.random.default_rng([SEED, i])
        data, _ = problem.generate_instance(rng)
        base = FivePointData(data.pts_a, data.pts_b)
        k_a, k_b = rng.choice(SCALING_EXPONENTS, size=(2, 5, 1))
        scaled = FivePointData(np.ldexp(data.pts_a, k_a), np.ldexp(data.pts_b, k_b))
        result = solve_online(five_point_template, base)
        assert result.accepted, "the original instance accepted no solution"
        assert _same_solution_set(result, solve_online(five_point_template, scaled))
