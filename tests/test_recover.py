import dataclasses
import json

import numpy as np
import pytest

import equation_oracles
import reference_online
from resultant_solve import recover
from resultant_solve.matrixpoly import evaluate_at
from resultant_solve.offline import build_template, template_from_json
from resultant_solve.poly import PolynomialSystem
from resultant_solve.problems import PROBLEMS, five_point, generate_instance, get_problem
from resultant_solve.problems.conic import ConicPairData
from resultant_solve.recover import (
    SolveError,
    cramer_at,
    solution_set_to_json,
    solve_online,
)
from resultant_solve.rootfind import real_candidates, roots
from resultant_solve.spectral import batched_eval, recover_coefficients, trim

# the seed-7 templates of both problems and the two toy templates, with
# their rule counts: N rows times the columns that leave every variable
# recoverable (all of them but the toy's column 1, v, whose deletion leaves
# v^2 and 1 with no ratio v)
TEMPLATES = ("conic_template", "five_point_template", "toy_template", "toy3_template")
RULE_COUNTS = dict(zip(TEMPLATES, (4 * 4, 10 * 10, 3 * 2, 4 * 4)))


def _matrix_with_null_vector(rng, b):
    """Random 3x3 complex matrix with b in its kernel (every row ⊥ b)."""
    while True:
        m = rng.standard_normal((3, 3))
        m -= np.outer(m @ b, b) / (b @ b)
        # the recovery denominator for deletion (0, 0), pair (1, 2)
        den = np.linalg.det(np.column_stack([m[1:, 1], -m[1:, 0]]))
        if abs(den) > 1e-3:
            return m.astype(complex)


def _reference_ratios(m, deletion_pair, recovery_pairs):
    """Per-root, per-variable Cramer ratios with one det per call."""
    i, j = deletion_pair
    sub = np.delete(np.delete(m, i, axis=0), j, axis=1)
    rhs = -np.delete(m[:, j], i)
    out = []
    for w in sorted(recovery_pairs):
        dets = []
        for idx in recovery_pairs[w]:
            replaced = sub.copy()
            replaced[:, idx - 1 if idx > j else idx] = rhs
            dets.append(np.linalg.det(replaced))
        out.append(dets[0] / dets[1])
    return np.array(out)


def _rule_pair(index):
    """The deletion pair (i, j) a rule's gather index into [M | -M] encodes."""
    size = index.shape[-1] + 1
    rows, cols = np.divmod(index, 2 * size)
    (i,) = np.setdiff1d(np.arange(size), rows)
    (j,) = np.unique(cols[cols >= size]) - size
    return int(i), int(j)


def _real_hidden_roots(stack, template):
    samples = recover.det_complex(batched_eval(stack, template.k))
    poly = trim(recover_coefficients(samples).real)
    return real_candidates(roots(poly))


class TestCramerRatio:
    # the toy template's first rule deletes row 0 and column 0 of a 3x3
    # matrix and recovers its variable as the ratio of columns 1 and 2

    def test_identity(self, toy_template):
        # the deletion submatrix is the identity, so the reduced solution is
        # the right-hand side -(a, b) and the ratio is a / b
        m = np.array([[1.0, 1.0, 1.0], [5.0, 1.0, 0.0], [7.0, 0.0, 1.0]])
        values, singular = cramer_at(m[None].astype(complex), toy_template.rules[0])
        assert values[0, 0] == pytest.approx(5.0 / 7.0)
        assert not singular.any()

    def test_diagonal(self, toy_template):
        m = np.array([[1.0, 1.0, 1.0], [-2.0, 2.0, 0.0], [-8.0, 0.0, 4.0]])
        values, _ = cramer_at(m[None].astype(complex), toy_template.rules[0])
        assert values[0, 0] == pytest.approx(0.5)  # (2/2) / (8/4)

    def test_matches_linear_solve_oracle(self, five_point_template):
        # every rule's ratios are those of two components of its reduced
        # system's solution
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 10, 10)) + 1j * rng.standard_normal((3, 10, 10))
        rules = five_point_template.rules
        for index, ((i, j), pairs) in zip(rules, reference_online.rule_pairs(five_point_template)):
            values, singular = cramer_at(m, index)
            assert values.shape == singular.shape == (3, 2) and not singular.any()
            for got, mat in zip(values, m):
                sub = np.delete(np.delete(mat, i, axis=0), j, axis=1)
                y = np.linalg.solve(sub, -np.delete(mat[:, j], i))
                for val, (j1, j2) in zip(got, pairs.values()):
                    want = y[j1 - (j1 > j)] / y[j2 - (j2 > j)]
                    assert abs(val - want) < 1e-9 * max(1.0, abs(want))

    def test_real_stack_gives_real_values(self, toy_template):
        # real candidate roots take real LU determinants, so the recovered
        # coordinates carry no imaginary part to check
        m = np.random.default_rng(3).standard_normal((4, 3, 3))
        index = toy_template.rules[0]
        values, singular = cramer_at(m, index)
        assert values.dtype == np.float64 and not singular.any()
        want, _ = cramer_at(m.astype(complex), index)
        assert np.allclose(values, want.real, rtol=1e-13, atol=0)

    def test_singular_rejected(self, toy_template):
        m = np.zeros((2, 3, 3), dtype=complex)
        m[1] = np.eye(3)
        m[1, 1:, 0] = 1.0
        _, singular = cramer_at(m, toy_template.rules[0])
        assert singular.tolist() == [[True], [False]]

    def test_rules_skip_the_deleted_row_and_column(self, request):
        # rule (i, j) reads neither row i nor column j of M; column j enters
        # only negated, as the right-hand side N + j of [M | -M]
        for name in TEMPLATES:
            template = request.getfixturevalue(name)
            size = template.rules.shape[-1] + 1
            for index, ((i, j), _) in zip(template.rules, reference_online.rule_pairs(template)):
                rows, cols = np.divmod(index, 2 * size)
                assert (rows == np.delete(np.arange(size), i)[:, None]).all()
                assert j not in cols and set(np.unique(cols[cols >= size])) == {size + j}

    @pytest.mark.parametrize("name", TEMPLATES)
    def test_rules_match_the_reference_pairs(self, name, request):
        # rule 0 is the template's deletion pair and rules 1.. every other
        # pair whose column leaves each variable recoverable, row-major;
        # each rule gives bitwise the reference's ratios for its pair
        template = request.getfixturevalue(name)
        expected = reference_online.rule_pairs(template)
        rules = template.rules
        assert len(rules) == len(expected) == RULE_COUNTS[name]
        order = [_rule_pair(index) for index in rules]
        assert order == [pair for pair, _ in expected]
        assert order[0] == template.deletion_pair and order[1:] == sorted(order[1:])
        size = rules.shape[-1] + 1
        m = np.random.default_rng(8).standard_normal((5, size, size))
        m[0] = 1.0  # every minor vanishes: singular under every rule
        for index, (pair, pairs) in zip(rules, expected):
            values, singular = cramer_at(m, index)
            want, want_singular = reference_online.cramer_ratios(m, pair, pairs)
            assert values.dtype == want.dtype and values.tobytes() == want.tobytes()
            assert np.array_equal(singular, want_singular) and singular[0].all()

    @pytest.mark.parametrize("pid", ["conic", "five_point"])
    def test_stack_matches_per_root_reference(self, pid, request):
        # one batched call over all real roots of 50 instances agrees with a
        # loop of scalar determinants, root by root and variable by variable
        template = request.getfixturevalue(f"{pid}_template")
        problem = get_problem(pid)
        checked = 0
        for seed in range(50):
            data, _ = problem.generate_instance(np.random.default_rng([61, seed]))
            stack = problem.build(problem.original_equations(data))
            hidden = _real_hidden_roots(stack, template)
            m_at_roots = evaluate_at(stack, hidden)
            values, singular = cramer_at(m_at_roots, template.rules[0])
            assert not singular.any()
            pairs = reference_online.template_pairs(template)
            for got, m in zip(values, m_at_roots):
                want = _reference_ratios(m, template.deletion_pair, pairs)
                assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
                checked += 1
        assert checked >= 150


class TestHiddenRoots:
    @pytest.mark.parametrize("pid", ["conic", "five_point"])
    def test_half_circle_ifft_is_real(self, pid, request, monkeypatch):
        # the lower half circle holds the exact conjugates of the upper
        # half's dets, so the IFFT of the samples is real up to rounding on
        # the first 300 instances of the seed-1 benchmark pool: no
        # real-coefficient symmetry check has anything to reject
        template = request.getfixturevalue(f"{pid}_template")
        problem = get_problem(pid)
        coefficients = []
        real = recover.recover_coefficients

        def spy(samples):
            coefficients.append(real(samples))
            return coefficients[-1]

        monkeypatch.setattr(recover, "recover_coefficients", spy)
        for i in range(300):
            data, _ = problem.generate_instance(np.random.default_rng([1, i]))
            recover._hidden_roots(problem.build(problem.original_equations(data)), template)
        assert len(coefficients) == 300
        for raw in coefficients:
            assert np.abs(raw.imag).max() <= 1e-14 * np.abs(raw).max()

    @staticmethod
    def _hadamard(stack):
        return np.prod(np.linalg.norm(np.abs(stack).sum(axis=0), axis=1))

    @staticmethod
    def _stacks():
        rng = np.random.default_rng(13)
        sparse = rng.standard_normal((4, 10, 10)) * (rng.random((4, 10, 10)) < 0.3)
        sparse[0] += np.eye(10)  # no zero row
        # equal magnitudes make H equal its cheap bound (sqrt(N) (d+1) max|A|)^N
        signs = rng.choice([-0.5, 0.5], size=(3, 4, 4))
        return [rng.standard_normal((3, 4, 4)), rng.standard_normal((4, 10, 10)), sparse, signs]

    # just below, just above, and far from the floor on either side, so
    # both the cheap bound and H decide some of the cases
    FACTORS = (1e-30, 1e-3, 1 - 1e-6, 1 + 1e-6, 1e3, 1e30)

    def test_vanishes_is_the_hadamard_floor(self):
        for stack in self._stacks():
            h = self._hadamard(stack)
            for factor in self.FACTORS:
                max_mag = factor * recover.VANISH_FLOOR * h
                assert recover._vanishes(stack, max_mag) == (factor < 1), (stack.shape, factor)
        assert recover._vanishes(np.zeros((3, 4, 4)), 0.0)

    def test_vanishes_is_scale_free(self):
        # H scales as s^N with the stack; compared as logarithms, no s
        # overflows or underflows the test
        for stack in self._stacks():
            h, size = self._hadamard(stack), stack.shape[-1]
            for shift in (-50, 50):
                scaled = np.ldexp(stack, shift)
                for factor in self.FACTORS:
                    max_mag = np.ldexp(factor * recover.VANISH_FLOOR * h, shift * size)
                    assert recover._vanishes(scaled, max_mag) == (factor < 1)


class TestRecoverVariable:
    def test_known_solution(self, toy_template):
        # null vector (9, 3, 1) encodes v = 3
        rng = np.random.default_rng(1)
        m = _matrix_with_null_vector(rng, np.array([9.0, 3.0, 1.0]))
        values, _ = cramer_at(m[None], toy_template.rules[0])
        assert values[0, 0] == pytest.approx(3.0, abs=1e-10)

    def test_zero_coordinate(self, toy_template):
        # null vector (0, 0, 1) encodes v = 0: numerator determinant vanishes
        rng = np.random.default_rng(2)
        m = _matrix_with_null_vector(rng, np.array([0.0, 0.0, 1.0]))
        values, _ = cramer_at(m[None], toy_template.rules[0])
        assert values[0, 0] == pytest.approx(0.0, abs=1e-10)

    def test_conic_instance_coordinates(self, conic_template):
        problem = get_problem("conic")
        data, gts = problem.generate_instance(np.random.default_rng(3))
        stack = problem.build(problem.original_equations(data))
        m_at_roots = evaluate_at(stack, [gt[1] for gt in gts])  # y is hidden
        values, singular = cramer_at(m_at_roots, conic_template.rules[0])
        assert not singular.any()
        for got, gt in zip(values[:, 0], gts):
            assert abs(got - gt[0]) < 1e-8


class TestBackSubstitution:
    """Which roots take the fallback deletion pairs, and which are dropped."""

    @staticmethod
    def _spy_dets(monkeypatch):
        shapes = []
        real = recover.det_complex

        def spy(m):
            shapes.append(np.shape(m))
            return real(m)

        monkeypatch.setattr(recover, "det_complex", spy)
        return shapes

    @staticmethod
    def _back_substitute(stack, template, hidden_values):
        problem = get_problem(template.problem_id)
        return recover._back_substitute(stack, problem, template, hidden_values)

    def test_only_the_singular_root_takes_the_fallback(self, monkeypatch, toy_template):
        # at v = 0 rows 1 and 2 of M are parallel, so the template pair's
        # submatrix is singular there; v = 1 is generic.  Null vectors:
        # (4, 2, 1) at v = 0 (u = 2) and (9, 3, 1) at v = 1 (u = 3).
        m0 = np.array([[1.0, -1.0, -2.0], [2.0, 1.0, -10.0], [-2.0, -1.0, 10.0]])
        m1 = _matrix_with_null_vector(np.random.default_rng(5), np.array([9.0, 3.0, 1.0]))
        stack = np.stack([m0, m1.real - m0])
        shapes = self._spy_dets(monkeypatch)
        found, _ = self._back_substitute(stack, toy_template, np.array([0.0, 1.0]))
        # both roots, one variable, num + den; then v = 0 alone tries the
        # alternates (0, 2) (singular again: rows 1 and 2 stay) and (1, 0)
        assert shapes == [(2, 2, 2, 2), (1, 2, 2, 2), (1, 2, 2, 2)]
        assert found[:, 1].tolist() == [0.0, 1.0]
        assert found[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert found[1, 0] == pytest.approx(3.0, abs=1e-10)

    def test_each_singular_root_takes_its_own_first_usable_rule(self, monkeypatch, toy_template):
        # both roots are singular under the template pair (0, 0).  At v = 0
        # the first alternate (0, 2) works; at v = 1 rows 1 and 2 are
        # parallel, so (0, 2) is singular too and the second alternate
        # (1, 0) is the first usable one.
        m0 = np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 0.0], [2.0, 2.0, 1.0]])
        m1 = np.array([[1.0, -1.0, -2.0], [2.0, 1.0, -10.0], [-2.0, -1.0, 10.0]])
        template = toy_template
        first, second = ((0, 2), {0: (0, 1)}), ((1, 0), {0: (1, 2)})
        assert reference_online.rule_pairs(template)[1:3] == [first, second]
        shapes = self._spy_dets(monkeypatch)
        found, m_at_roots = self._back_substitute(
            np.stack([m0, m1 - m0]), template, np.array([0.0, 1.0])
        )
        # the primary, then the first alternate on both singular roots at
        # once, then the second on the one root still singular
        assert shapes == [(2, 2, 2, 2), (2, 2, 2, 2), (1, 2, 2, 2)]
        assert found[:, 1].tolist() == [0.0, 1.0]
        assert np.array_equal(m_at_roots, [m0, m1])
        assert found[0, 0] == pytest.approx(_reference_ratios(m0, *first)[0], abs=1e-12)
        assert found[1, 0] == pytest.approx(_reference_ratios(m1, *second)[0], abs=1e-12)

    def test_roots_singular_under_every_rule_are_discarded(self, monkeypatch, toy_template):
        # every 2x2 minor of the all-ones matrix vanishes, so both roots
        # try the primary and every alternate together and are dropped
        template = toy_template
        shapes = self._spy_dets(monkeypatch)
        found, m_at_roots = self._back_substitute(
            np.ones((1, 3, 3)), template, np.array([0.5, 2.0])
        )
        assert found.shape == (0, 2) and m_at_roots.shape == (0, 3, 3)
        assert recover._residuals(m_at_roots, template, found, (0, 1, 2)).shape == (0,)
        assert shapes == [(2, 2, 2, 2)] * len(template.rules)

    @staticmethod
    def _fake_ratios(monkeypatch, template, primary, alternate):
        calls = []

        def fake(m_at_roots, index):
            calls.append(index)
            return primary if np.array_equal(index, template.rules[0]) else alternate

        monkeypatch.setattr(recover, "cramer_at", fake)
        return calls

    def _three_var_candidates(self, template):
        assert reference_online.template_pairs(template) == {0: (0, 2), 1: (1, 2)}
        coords, m_at_roots = self._back_substitute(np.eye(4)[None], template, np.array([0.5]))
        return coords, recover._residuals(m_at_roots, template, coords, (0, 1, 2, 3))

    def test_singular_then_working_alternate_takes_the_fallback(self, monkeypatch, toy3_template):
        calls = self._fake_ratios(
            monkeypatch,
            toy3_template,
            (np.array([[0.0, 1.0]]), np.array([[True, False]])),
            (np.array([[2.0, 3.0]]), np.array([[False, False]])),
        )
        found, _ = self._three_var_candidates(toy3_template)
        assert found.tolist() == [[2.0, 3.0, 0.5]]
        assert np.array_equal(calls[0], toy3_template.rules[0]) and len(calls) == 2

    def test_singular_under_every_pair_is_discarded(self, monkeypatch, toy3_template):
        calls = self._fake_ratios(
            monkeypatch,
            toy3_template,
            (np.array([[1.0, 0.0]]), np.array([[False, True]])),
            (np.array([[2.0, 0.0]]), np.array([[False, True]])),
        )
        found, residuals = self._three_var_candidates(toy3_template)
        assert found.shape == (0, 3) and residuals.shape == (0,)
        rules = toy3_template.rules
        assert len(rules) > 2
        # every rule was tried, in order
        assert len(calls) == len(rules)
        assert all(np.array_equal(call, rule) for call, rule in zip(calls, rules))


class TestDeduplicate:
    def test_matches_pairwise_reference_loop(self):
        def reference(xs):
            kept = []
            for k, x in enumerate(xs):
                scale = 1.0 + float(np.max(np.abs(x)))
                if any(
                    np.max(np.abs(x - xs[other])) < recover.DUPLICATE_TOL * scale
                    for other in kept
                ):
                    continue
                kept.append(k)
            return kept

        rng = np.random.default_rng(9)
        for _ in range(200):
            base = rng.standard_normal((int(rng.integers(1, 6)), 3))
            picks = rng.integers(0, len(base), size=int(rng.integers(0, 9)))
            jitter = rng.choice([0.0, 1e-9, 1e-7, 1e-5], size=(len(picks), 1))
            xs = base[picks] + jitter * rng.standard_normal((len(picks), 3))
            assert recover._deduplicate(xs) == reference(xs)


class TestSolveOnline:
    def test_conic_recovers_all_intersections(self, conic_template):
        data, gts = generate_instance("conic", 1)
        result = solve_online(conic_template, data)
        assert not result.failed
        assert len(result.accepted) == 4
        for gt in gts:
            best = min(np.max(np.abs(c.x - gt)) for c in result.accepted)
            assert best < 1e-6

    def test_five_point_finds_ground_truth(self, five_point_template):
        data, gts = generate_instance("five_point", 1)
        result = solve_online(five_point_template, data)
        assert not result.failed
        best = min(np.max(np.abs(c.x - gts[0])) for c in result.accepted)
        assert best < 1e-6
        assert min(c.residual for c in result.accepted) < 1e-6

    def test_residual_soundness(self, five_point_template):
        # reported residuals must match an independent recomputation
        problem = get_problem("five_point")
        data, _ = problem.generate_instance(np.random.default_rng(4))
        result = solve_online(five_point_template, data)
        for cand in result.accepted:
            values = equation_oracles.values("five_point", data, cand.x)
            independent = np.max(np.abs(values)) / np.linalg.norm(cand.x)
            assert independent <= 1e-3
            assert independent == pytest.approx(cand.residual, rel=1e-9)

    def test_accepted_sorted_by_residual(self, five_point_template):
        data, _ = generate_instance("five_point", 5)
        result = solve_online(five_point_template, data)
        residuals = [c.residual for c in result.accepted]
        assert residuals == sorted(residuals)

    def test_disjoint_conics_fail_cleanly(self, conic_template):
        # (x-5)^2 + y^2 = 1 and x^2 + y^2 = 1 share no real point
        c1 = np.array([[1.0, 0.0, -5.0], [0.0, 1.0, 0.0], [-5.0, 0.0, 24.0]])
        c2 = np.diag([1.0, 1.0, -1.0])
        result = solve_online(conic_template, ConicPairData(c1, c2))
        assert result.accepted == ()
        assert result.failed

    def test_tangential_instances_merge_duplicates(self, conic_template):
        # multiplicity-2 intersections collapse to one solution each
        cases = [
            (np.diag([1.0, 1.0, -1.0]), np.diag([0.25, 1.0, -1.0]), [(0, 1), (0, -1)]),
            (
                np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, -2.0]]),
                np.array([[0.0, 0.5, 0], [0.5, 0.0, 0], [0, 0, -1.0]]),
                [(1, 1), (-1, -1)],
            ),
        ]
        for c1, c2, expected in cases:
            result = solve_online(conic_template, ConicPairData(c1, c2))
            assert not result.failed
            assert len(result.accepted) == len(expected)
            for pt in expected:
                best = min(
                    np.max(np.abs(c.x - np.asarray(pt, dtype=float)))
                    for c in result.accepted
                )
                assert best < 1e-6

    def test_scale_equivariance_of_filtering(self, conic_template):
        data, _ = generate_instance("conic", 6)
        base = solve_online(conic_template, data)
        for factor in (1e-3, 42.0):
            scaled = ConicPairData(factor * data.c1, factor * data.c2)
            got = solve_online(conic_template, scaled)
            assert len(got.accepted) == len(base.accepted)
            for ca in base.accepted:
                nearest = min(np.max(np.abs(ca.x - cb.x)) for cb in got.accepted)
                assert nearest < 1e-10

    def test_degenerate_data_raises_solve_error(self, conic_template):
        c1 = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
        c2 = np.array([[0.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, -1.0]])
        with pytest.raises(SolveError, match="degenerate instance"):
            solve_online(conic_template, ConicPairData(c1, c2))

    @staticmethod
    def _earlier_format(template, reverse_basis):
        """The template as the earlier format wrote it, copies of the problem included.

        ``reverse_basis`` reverses the basis copy and mirrors the recovery
        pairs to match, pairs that would pick the wrong columns if read.
        """
        problem = get_problem(template.problem_id)
        basis = [list(e) for e in problem.basis]
        n, pairs = len(basis), reference_online.template_pairs(template)
        if reverse_basis:
            basis = basis[::-1]
            pairs = {w: (n - 1 - a, n - 1 - b) for w, (a, b) in pairs.items()}
        return json.dumps({
            "problem": problem.problem_id,
            "n_vars": problem.n_vars,
            "hidden": problem.n_vars - 1,
            "N": n,
            "k": template.k,
            "r": problem.expected_solutions,
            "basis": basis,
            "deletion": list(template.deletion_pair),
            "recovery": {str(w): list(p) for w, p in sorted(pairs.items())},
        })

    @pytest.mark.parametrize("pid", ["conic", "five_point"])
    @pytest.mark.parametrize("reverse_basis", [False, True])
    def test_earlier_format_solves_bitwise_like_the_new(self, request, pid, reverse_basis):
        # a file of the earlier format loads its k and deletion pair and
        # ignores its copies of the problem, so no Cramer rule reads the
        # columns of a basis other than the problem's
        template = request.getfixturevalue(f"{pid}_template")
        loaded = template_from_json(self._earlier_format(template, reverse_basis))
        assert loaded == template and np.array_equal(loaded.rules, template.rules)
        for seed in range(20):
            data, _ = generate_instance(pid, [41, seed])
            new, old = solve_online(template, data), solve_online(loaded, data)
            assert solution_set_to_json(new) == solution_set_to_json(old)
            for a, b in zip(new.accepted, old.accepted):
                assert a.x.tobytes() == b.x.tobytes()

    def test_json_shape(self, conic_template):
        data, _ = generate_instance("conic", 8)
        obj = solution_set_to_json(solve_online(conic_template, data))
        assert set(obj) == {"solutions", "failed", "roots_found", "candidate_roots"}
        assert all(set(s) == {"x", "residual"} for s in obj["solutions"])
        assert obj["candidate_roots"] >= obj["roots_found"] >= len(obj["solutions"])


class TestSecondFrame:
    # five_point instances (template and instance seed, index) of the
    # perfbench pools whose first frame accepts nothing, measured under the
    # SkylakeX, Haswell, Sandybridge, Nehalem and Prescott OpenBLAS kernels;
    # whether the first frame fails can depend on the LAPACK kernel, so the
    # second frame is also checked on its own
    RETRIED = ((11, 532), (25, 141), (38, 1899), (39, 1364), (102, 1907), (109, 1910))

    @staticmethod
    def _retried(seed, index):
        problem = get_problem("five_point")
        data, gts = problem.generate_instance(np.random.default_rng([seed, index]))
        return problem, build_template(problem, seed), data, gts

    @staticmethod
    def _with_frames(monkeypatch, frames):
        problem = dataclasses.replace(five_point.PROBLEM, frames=frames)
        monkeypatch.setitem(PROBLEMS, "five_point", problem)

    @pytest.mark.parametrize("seed,index", RETRIED)
    def test_failing_pool_instances_solve(self, seed, index):
        problem, template, data, gts = self._retried(seed, index)
        equations = problem.original_equations(data)
        stack = problem.build(equations)
        (P, T), = problem.frames
        pool = [recover._candidates(problem, template, stack, problem.build(equations @ T), P)]
        retried = recover._select(pool, problem.expected_solutions)
        for result in (retried, solve_online(template, data)):
            assert not result.failed
            assert min(np.max(np.abs(c.x - gts[0])) for c in result.accepted) < 1e-6
        for cand in retried.accepted:  # scored in the original frame
            values = equation_oracles.values("five_point", data, cand.x)
            assert np.max(np.abs(values)) / np.linalg.norm(cand.x) == pytest.approx(
                cand.residual, rel=1e-6, abs=1e-11
            )

    def test_frame_maps_ground_truth_to_a_root(self):
        # u = [x, 1] = P u' with P orthogonal, so u' is P^T [x, 1] up to scale
        problem = get_problem("five_point")
        data, gts = problem.generate_instance(np.random.default_rng(4))
        (P, T), = problem.frames
        assert np.allclose(P @ P.T, np.eye(4), atol=1e-14)
        h = P.T @ np.append(gts[0], 1.0)
        x_frame = h[:3] / h[3]
        system = PolynomialSystem(problem.original_equations(data) @ T, five_point.MONOMIALS)
        assert system.max_abs_residual(x_frame) < 1e-10 * np.linalg.norm(x_frame) ** 3

    def test_conic_has_no_second_frame(self):
        assert get_problem("conic").frames == ()

    def test_no_frames_leave_the_first_frame_failed(self, monkeypatch):
        _, template, data, _ = self._retried(*self.RETRIED[0])
        self._with_frames(monkeypatch, ())
        result = solve_online(template, data)
        assert result.failed and not result.accepted

    def test_frame_that_raises_keeps_the_first_result(self, monkeypatch):
        # an all-zero T builds an all-zero stack, whose determinant vanishes
        # identically: that frame raises SolveError and is skipped
        problem, template, data, _ = self._retried(*self.RETRIED[0])
        zero = np.zeros((len(five_point.MONOMIALS),) * 2)
        with pytest.raises(SolveError, match="vanishes to rounding"):
            recover._hidden_roots(problem.build(problem.original_equations(data) @ zero), template)
        self._with_frames(monkeypatch, ())
        first = solve_online(template, data)
        self._with_frames(monkeypatch, ((np.eye(4), zero),))
        result = solve_online(template, data)
        assert result.failed
        assert solution_set_to_json(result) == solution_set_to_json(first)


class TestConjugateSamples:
    """Why ``_hidden_roots`` takes determinants on the upper half circle only.

    A problem stack is real, so FFT bin k+1-j equals the conjugate of bin j
    (up to the sign of a zero: a structurally zero entry is +0j in every
    bin), and pivoted LU commutes with conjugation, so the lower half's
    determinants are the conjugates of the upper half's bit for bit.
    Pinned on the first 300 instances of each benchmark pool (template
    seed 1).
    """

    @pytest.mark.parametrize("pid", ["conic", "five_point"])
    def test_lower_half_is_the_exact_conjugate(self, pid):
        from resultant_solve.matrixpoly import det_complex

        problem = get_problem(pid)
        k = build_template(problem, 1).k
        count = k + 1
        upper = np.arange(1, (count + 1) // 2)  # pairs j <-> count - j
        for i in range(300):
            data, _ = problem.generate_instance(np.random.default_rng([1, i]))
            bins = batched_eval(problem.build(problem.original_equations(data)), k)
            dets = det_complex(bins)
            assert np.array_equal(bins[upper].conj(), bins[count - upper])
            assert dets[upper].conj().tobytes() == dets[count - upper].tobytes()
