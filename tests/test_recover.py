import dataclasses

import numpy as np
import pytest

import equation_oracles
from resultant_solve import recover
from resultant_solve.matrixpoly import evaluate_at
from resultant_solve.offline import SolverTemplate, build_template, cramer_rule
from resultant_solve.poly import PolynomialSystem
from resultant_solve.problems import five_point, generate_instance, get_problem
from resultant_solve.problems.conic import ConicPairData
from resultant_solve.recover import (
    SolveError,
    cramer_at,
    solution_set_to_json,
    solve_online,
)
from resultant_solve.rootfind import real_candidates, roots
from resultant_solve.spectral import batched_eval, recover_coefficients, trim


def _toy_template():
    # three-column power basis (v^2, v, 1) for one recoverable variable v,
    # hidden variable first; row 0 / column 0 deleted
    return SolverTemplate(
        problem_id="toy",
        n_vars=2,
        hidden_index=0,
        size=3,
        basis=((2,), (1,), (0,)),
        k=2,
        r=1,
        deletion_pair=(0, 0),
        recovery_pairs={1: (1, 2)},
    )


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


def _real_hidden_roots(stack, template):
    samples = recover.det_complex(batched_eval(stack, template.k))
    poly = trim(recover_coefficients(samples).real)
    return real_candidates(roots(poly))


class TestCramerRatio:
    def test_identity(self):
        # the deletion submatrix is the identity, so the reduced solution is
        # the right-hand side -(a, b) and the ratio is a / b
        m = np.array([[1.0, 1.0, 1.0], [5.0, 1.0, 0.0], [7.0, 0.0, 1.0]])
        values, singular = cramer_at(m[None].astype(complex), cramer_rule(3, (0, 0), {1: (1, 2)}))
        assert values[0, 0] == pytest.approx(5.0 / 7.0)
        assert not singular.any()

    def test_diagonal(self):
        m = np.array([[1.0, 1.0, 1.0], [-2.0, 2.0, 0.0], [-8.0, 0.0, 4.0]])
        values, _ = cramer_at(m[None].astype(complex), cramer_rule(3, (0, 0), {1: (1, 2)}))
        assert values[0, 0] == pytest.approx(0.5)  # (2/2) / (8/4)

    def test_matches_linear_solve_oracle(self):
        # the ratio of two components of the reduced system's solution
        rng = np.random.default_rng(0)
        pairs = {0: (0, 3), 1: (7, 2), 3: (5, 6)}
        m = rng.standard_normal((6, 9, 9)) + 1j * rng.standard_normal((6, 9, 9))
        values, singular = cramer_at(m, cramer_rule(9, (4, 1), pairs))
        assert values.shape == singular.shape == (6, 3) and not singular.any()
        for got, mat in zip(values, m):
            sub = np.delete(np.delete(mat, 4, axis=0), 1, axis=1)
            y = np.linalg.solve(sub, -np.delete(mat[:, 1], 4))
            for val, (j1, j2) in zip(got, pairs.values()):
                want = y[j1 - (j1 > 1)] / y[j2 - (j2 > 1)]
                assert abs(val - want) < 1e-10 * max(1.0, abs(want))

    def test_real_stack_gives_real_values(self):
        # real candidate roots take real LU determinants, so the recovered
        # coordinates carry no imaginary part to check
        m = np.random.default_rng(3).standard_normal((4, 3, 3))
        index = cramer_rule(3, (0, 0), {1: (1, 2)})
        values, singular = cramer_at(m, index)
        assert values.dtype == np.float64 and not singular.any()
        want, _ = cramer_at(m.astype(complex), index)
        assert np.allclose(values, want.real, rtol=1e-13, atol=0)

    def test_singular_rejected(self):
        m = np.zeros((2, 3, 3), dtype=complex)
        m[1] = np.eye(3)
        m[1, 1:, 0] = 1.0
        _, singular = cramer_at(m, cramer_rule(3, (0, 0), {1: (1, 2)}))
        assert singular.tolist() == [[True], [False]]

    def test_column_range_checked(self):
        for pairs in ({1: (1, 5)}, {1: (0, 2)}):  # out of range; deleted column
            with pytest.raises(ValueError):
                cramer_rule(3, (0, 0), pairs)

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
            values, singular = cramer_at(m_at_roots, template.primary_rule)
            assert not singular.any()
            for got, m in zip(values, m_at_roots):
                want = _reference_ratios(m, template.deletion_pair, template.recovery_pairs)
                assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
                checked += 1
        assert checked >= 150


class TestRecoverVariable:
    def test_known_solution(self):
        # null vector (9, 3, 1) encodes v = 3
        rng = np.random.default_rng(1)
        m = _matrix_with_null_vector(rng, np.array([9.0, 3.0, 1.0]))
        template = _toy_template()
        values, _ = cramer_at(m[None], template.primary_rule)
        assert values[0, 0] == pytest.approx(3.0, abs=1e-10)

    def test_zero_coordinate(self):
        # null vector (0, 0, 1) encodes v = 0: numerator determinant vanishes
        rng = np.random.default_rng(2)
        m = _matrix_with_null_vector(rng, np.array([0.0, 0.0, 1.0]))
        template = _toy_template()
        values, _ = cramer_at(m[None], template.primary_rule)
        assert values[0, 0] == pytest.approx(0.0, abs=1e-10)

    def test_conic_instance_coordinates(self, conic_template):
        problem = get_problem("conic")
        data, gts = problem.generate_instance(np.random.default_rng(3))
        stack = problem.build(problem.original_equations(data))
        m_at_roots = evaluate_at(stack, [gt[1] for gt in gts])  # y is hidden
        values, singular = cramer_at(m_at_roots, conic_template.primary_rule)
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

    def test_only_the_singular_root_takes_the_fallback(self, monkeypatch):
        # at v = 0 rows 1 and 2 of M are parallel, so the template pair's
        # submatrix is singular there; v = 1 is generic.  Null vectors:
        # (4, 2, 1) at v = 0 (u = 2) and (9, 3, 1) at v = 1 (u = 3).
        m0 = np.array([[1.0, -1.0, -2.0], [2.0, 1.0, -10.0], [-2.0, -1.0, 10.0]])
        m1 = _matrix_with_null_vector(np.random.default_rng(5), np.array([9.0, 3.0, 1.0]))
        stack = np.stack([m0, m1.real - m0])
        shapes = self._spy_dets(monkeypatch)
        found, _ = recover._back_substitute(stack, _toy_template(), np.array([0.0, 1.0]))
        # both roots, one variable, num + den; then v = 0 alone tries the
        # alternates (0, 2) (singular again: rows 1 and 2 stay) and (1, 0)
        assert shapes == [(2, 2, 2, 2), (1, 2, 2, 2), (1, 2, 2, 2)]
        assert found[:, 0].tolist() == [0.0, 1.0]
        assert found[0, 1] == pytest.approx(2.0, abs=1e-12)
        assert found[1, 1] == pytest.approx(3.0, abs=1e-10)

    def test_each_singular_root_takes_its_own_first_usable_rule(self, monkeypatch):
        # both roots are singular under the template pair (0, 0).  At v = 0
        # the first alternate (0, 2) works; at v = 1 rows 1 and 2 are
        # parallel, so (0, 2) is singular too and the second alternate
        # (1, 0) is the first usable one.
        m0 = np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 0.0], [2.0, 2.0, 1.0]])
        m1 = np.array([[1.0, -1.0, -2.0], [2.0, 1.0, -10.0], [-2.0, -1.0, 10.0]])
        template = _toy_template()
        first, second = ((0, 2), {1: (0, 1)}), ((1, 0), {1: (1, 2)})
        for rule, (pair, pairs) in zip(template.alternate_rules, (first, second)):
            assert np.array_equal(rule, cramer_rule(3, pair, pairs))
        shapes = self._spy_dets(monkeypatch)
        found, m_at_roots = recover._back_substitute(
            np.stack([m0, m1 - m0]), template, np.array([0.0, 1.0])
        )
        # the primary, then the first alternate on both singular roots at
        # once, then the second on the one root still singular
        assert shapes == [(2, 2, 2, 2), (2, 2, 2, 2), (1, 2, 2, 2)]
        assert found[:, 0].tolist() == [0.0, 1.0]
        assert np.array_equal(m_at_roots, [m0, m1])
        assert found[0, 1] == pytest.approx(_reference_ratios(m0, *first)[0], abs=1e-12)
        assert found[1, 1] == pytest.approx(_reference_ratios(m1, *second)[0], abs=1e-12)

    def test_roots_singular_under_every_rule_are_discarded(self, monkeypatch):
        # every 2x2 minor of the all-ones matrix vanishes, so both roots
        # try the primary and every alternate together and are dropped
        template = _toy_template()
        shapes = self._spy_dets(monkeypatch)
        found, m_at_roots = recover._back_substitute(
            np.ones((1, 3, 3)), template, np.array([0.5, 2.0])
        )
        assert found.shape == (0, 2) and m_at_roots.shape == (0, 3, 3)
        assert recover._residuals(m_at_roots, template, found, (0, 1, 2)).shape == (0,)
        assert shapes == [(2, 2, 2, 2)] * (1 + len(template.alternate_rules))

    def _fake_ratios(self, monkeypatch, primary, alternate):
        calls = []

        def fake(m_at_roots, index):
            calls.append(index)
            return primary if index is self._TOY3.primary_rule else alternate

        monkeypatch.setattr(recover, "cramer_at", fake)
        return calls

    _TOY3 = SolverTemplate(
        problem_id="toy3",
        n_vars=3,
        hidden_index=0,
        size=4,
        basis=((1, 0), (0, 1), (0, 0), (1, 1)),
        k=1,
        r=1,
        deletion_pair=(0, 3),
        recovery_pairs={1: (0, 2), 2: (1, 2)},
    )

    def _three_var_candidates(self):
        coords, m_at_roots = recover._back_substitute(
            np.eye(4)[None], self._TOY3, np.array([0.5])
        )
        return coords, recover._residuals(m_at_roots, self._TOY3, coords, (0, 1, 2, 3))

    def test_singular_then_working_alternate_takes_the_fallback(self, monkeypatch):
        calls = self._fake_ratios(
            monkeypatch,
            (np.array([[0.0, 1.0]]), np.array([[True, False]])),
            (np.array([[2.0, 3.0]]), np.array([[False, False]])),
        )
        found, _ = self._three_var_candidates()
        assert found.tolist() == [[0.5, 2.0, 3.0]]
        assert calls[0] is self._TOY3.primary_rule and len(calls) == 2

    def test_singular_under_every_pair_is_discarded(self, monkeypatch):
        calls = self._fake_ratios(
            monkeypatch,
            (np.array([[1.0, 0.0]]), np.array([[False, True]])),
            (np.array([[2.0, 0.0]]), np.array([[False, True]])),
        )
        found, residuals = self._three_var_candidates()
        assert found.shape == (0, 3) and residuals.shape == (0,)
        alternates = self._TOY3.alternate_rules
        assert len(alternates) > 1
        # every alternate was tried, in order
        assert calls[0] is self._TOY3.primary_rule and len(calls) == 1 + len(alternates)
        assert all(call is rule for call, rule in zip(calls[1:], alternates))


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
    def _mismatched(template, change):
        """A template that passes its own checks but not its problem's.

        The deletion and recovery pairs follow the change, so each Cramer
        rule still reads a valid monomial ratio, for the wrong monomials.
        """
        n, (i, j) = template.size, template.deletion_pair
        pairs = template.recovery_pairs
        if change == "reversed basis":
            return dataclasses.replace(
                template,
                basis=template.basis[::-1],
                deletion_pair=(i, n - 1 - j),
                recovery_pairs={w: (n - 1 - a, n - 1 - b) for w, (a, b) in pairs.items()},
            )
        if change == "swapped variables":
            return dataclasses.replace(
                template,
                basis=tuple(e[::-1] for e in template.basis),
                recovery_pairs={0: pairs[1], 1: pairs[0]},
            )
        return dataclasses.replace(template, hidden_index=0, recovery_pairs={1: pairs[0]})

    @pytest.mark.parametrize(
        "pid, change, field",
        [
            ("conic", "reversed basis", "basis"),
            ("conic", "hidden x", "hidden_index"),
            ("five_point", "swapped variables", "basis"),
        ],
    )
    def test_template_of_another_layout_is_refused(self, request, pid, change, field):
        # without the check such templates accept residual-small solutions
        # of the permuted system (1 / x for the reversed conic basis), none
        # of them the instance's
        template = self._mismatched(request.getfixturevalue(f"{pid}_template"), change)
        data, _ = generate_instance(pid, 1)
        with pytest.raises(SolveError, match=f"template {field} does not match problem {pid}"):
            solve_online(template, data)

    def test_json_shape(self, conic_template):
        data, _ = generate_instance("conic", 8)
        obj = solution_set_to_json(solve_online(conic_template, data))
        assert set(obj) == {"solutions", "failed", "roots_found", "candidate_roots"}
        assert all(set(s) == {"x", "residual"} for s in obj["solutions"])
        assert obj["candidate_roots"] >= obj["roots_found"] >= len(obj["solutions"])


class TestSecondFrame:
    # five_point instances (template and instance seed, index) of the
    # perfbench pools whose first frame accepted nothing on the machine
    # the retry was written on; whether the first frame fails depends on
    # the LAPACK kernel, so the second frame is also checked on its own
    RETRIED = ((11, 532), (25, 141), (38, 1899), (39, 1364), (102, 1907), (109, 1910))

    @pytest.mark.parametrize("seed,index", RETRIED)
    def test_failing_pool_instances_solve(self, seed, index):
        problem = get_problem("five_point")
        template = build_template(problem, seed)
        data, gts = problem.generate_instance(np.random.default_rng([seed, index]))
        stack = problem.build(problem.original_equations(data))
        retried = recover._second_frame(problem, data, stack, template)
        for result in (retried, solve_online(template, data)):
            assert not result.failed
            assert min(np.max(np.abs(c.x - gts[0])) for c in result.accepted) < 1e-6
        for cand in retried.accepted:  # scored in the original frame
            values = equation_oracles.values("five_point", data, cand.x)
            assert np.max(np.abs(values)) / np.linalg.norm(cand.x) == pytest.approx(
                cand.residual, rel=1e-6, abs=1e-11
            )

    def test_frame_maps_ground_truth_to_a_root(self):
        # c = Q^T [x', 1] up to scale, so [x', 1] is Q [x, 1] over its last entry
        problem = get_problem("five_point")
        data, gts = problem.generate_instance(np.random.default_rng(4))
        equations, mix = five_point.second_frame(data)
        assert np.allclose(mix @ mix.T, np.eye(4), atol=1e-14)
        h = mix @ np.append(gts[0], 1.0)
        x_frame = h[:3] / h[3]
        system = PolynomialSystem(equations, five_point.MONOMIALS)
        assert system.max_abs_residual(x_frame) < 1e-10 * np.linalg.norm(x_frame) ** 3

    def test_conic_has_no_second_frame(self):
        assert get_problem("conic").second_frame is None
