"""Differential test: the array-based online stage against its verbatim predecessor.

``reference_online.py`` holds the online stage as it was before
templates compiled their Cramer rules.  Both run here on the same machine, so their
results must agree bit for bit in every ``SolutionSet`` field, whatever
LAPACK kernel numpy uses.  The one allowed difference is the second-frame
retry: an instance whose first solve accepted nothing may now be solved
in a frame, and its counts then cover every frame that ran.

Mutations of the array-based path it catches, each checked on a broken copy:
ranking by residual alone (a stable sort without the coordinate
tie-break) fails the small-integer conics, whose residuals tie; residuals
read from every matrix row instead of the equation rows fail the pools.
"""

import numpy as np

import reference_online
from resultant_solve import recover
from resultant_solve.problems import get_problem
from resultant_solve.problems.conic import ConicPairData, _conics_through

SEED = 91


def _assert_same(new, old):
    assert type(new) is type(old) and type(new.accepted) is tuple
    assert len(new.accepted) == len(old.accepted)
    for a, b in zip(new.accepted, old.accepted):
        assert type(a.residual) is float and a.residual == b.residual
        assert a.x.dtype == b.x.dtype and a.x.tobytes() == b.x.tobytes()
    assert new.rejected_count == old.rejected_count
    assert new.failed == old.failed
    assert new.candidate_roots == old.candidate_roots
    assert new.roots_found == old.roots_found


def _compare(template, datas):
    for data in datas:
        try:
            old = reference_online.solve_online(template, data)
        except recover.SolveError as exc:
            try:
                recover.solve_online(template, data)
            except recover.SolveError as new_exc:
                assert str(new_exc) == str(exc)
                continue
            raise AssertionError(f"the reference raised {exc!r}, the new path did not")
        new = recover.solve_online(template, data)
        if old.failed and not new.failed:
            continue  # solved by the second frame
        _assert_same(new, old)


def _pool(problem_id, count):
    problem = get_problem(problem_id)
    rngs = (np.random.default_rng([SEED, i]) for i in range(count))
    return [problem.generate_instance(rng)[0] for rng in rngs]


def test_conic_pool_bitwise(conic_template):
    _compare(conic_template, _pool("conic", 400))


def test_five_point_pool_bitwise(five_point_template):
    _compare(five_point_template, _pool("five_point", 200))


def test_small_integer_conics_bitwise(conic_template):
    # exact small-integer data: residuals tie (often at 0.0), so the order
    # among equal residuals is exercised, and some pairs are degenerate
    rng = np.random.default_rng(1)
    datas = []
    for _ in range(300):
        c1, c2 = rng.integers(-3, 4, size=(2, 3, 3)).astype(float)
        try:
            datas.append(ConicPairData(c1, c2))
        except ValueError:  # the zero conic
            continue
    _compare(conic_template, datas)


def test_conics_through_the_origin_reach_the_alternates(conic_template, monkeypatch):
    # at x = 0 the primary Cramer ratio is 0/0, so these solves take the
    # template's alternate deletion pairs
    rng = np.random.default_rng(5)
    datas = []
    while len(datas) < 40:
        points = rng.uniform(-1.0, 1.0, size=(4, 2))
        points[0] = 0.0
        conics = _conics_through(points, rng)
        if conics is not None:
            datas.append(ConicPairData(*conics))
    primary = []
    cramer_at = recover.cramer_at

    def spy(m_at_roots, index):
        primary.append(np.array_equal(index, conic_template.rules[0]))
        return cramer_at(m_at_roots, index)

    monkeypatch.setattr(recover, "cramer_at", spy)
    _compare(conic_template, datas)
    assert not all(primary)  # an alternate rule was used
