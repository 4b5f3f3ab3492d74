import itertools

import numpy as np
import pytest

import equation_oracles
from resultant_solve.matrixpoly import evaluate_at
from resultant_solve.poly import PolynomialSystem
from resultant_solve.problems import (
    DegenerateDataError,
    base,
    conic,
    five_point,
    generate_instance,
    get_problem,
    original_equations,
)
from resultant_solve.problems.conic import ConicPairData
from resultant_solve.problems.five_point import FivePointData
from resultant_solve.recover import equation_values, solve_online


def _build(problem, data):
    return problem.build(problem.original_equations(data))


def _system(problem, data):
    """The instance's equation array over its problem's monomial table."""
    module = {"conic": conic, "five_point": five_point}[problem.problem_id]
    return PolynomialSystem(problem.original_equations(data), module.MONOMIALS)


def _basis_values(problem, point):
    """Column monomials evaluated at the non-hidden coordinates."""
    rest = [x for w, x in enumerate(point) if w != problem.hidden_index]
    return np.array(
        [np.prod([r**e for r, e in zip(rest, exps)]) for exps in problem.basis]
    )


def _matrix_residual(problem, data, point):
    m = evaluate_at(_build(problem, data), point[problem.hidden_index])
    return np.abs(m @ _basis_values(problem, point))


class TestRegistry:
    def test_unknown_problem(self):
        with pytest.raises(ValueError, match="unknown problem"):
            get_problem("frobnicate")

    def test_known_problems(self):
        assert get_problem("conic").problem_id == "conic"
        assert get_problem("five_point").problem_id == "five_point"


class TestMatrixLayout:
    # a toy over (x, y, z) with y hidden: f_e = a_e xy + b_e z + c_e y^2 + d_e
    MONOMIALS = ((1, 1, 0), (0, 0, 1), (0, 2, 0), (0, 0, 0))
    # f0, z f0, x^2 f1, f1 over the columns (x^3, x, z, 1)
    ROWS = ((0, (0, 0)), (0, (0, 1)), (1, (2, 0)), (1, (0, 0)))
    BASIS = ((3, 0), (1, 0), (0, 1), (0, 0))

    @staticmethod
    def _hand_stack(f0, f1):
        (a0, b0, c0, d0), (a1, b1, c1, d1) = f0, f1
        o = 0 * a0  # a zero of the equations' own type
        return np.array(
            [
                # y^0: x^3 is outside the table, and z / x^2, 1 / z are no monomials
                [[o, o, b0, d0], [o, o, d0, o], [o, o, o, o], [o, o, b1, d1]],
                # y^1: the x y terms, x^3 y = x^2 (x y) in the x^2 f1 row
                [[o, a0, o, o], [o, o, o, o], [a1, o, o, o], [o, a1, o, o]],
                # y^2
                [[o, o, o, c0], [o, o, c0, o], [o, o, o, o], [o, o, o, c1]],
            ],
            dtype=np.asarray(f0).dtype,
        )

    def test_gather_matches_hand_written_stack(self):
        layout = base.matrix_layout(self.MONOMIALS, self.ROWS, self.BASIS, 1)
        assert layout.shape == (3, 4, 4)
        rng = np.random.default_rng(21)
        for dtype in (float, object):
            equations = rng.integers(1, 100, size=(2, 4)).astype(dtype)
            if dtype is float:
                equations += rng.standard_normal((2, 4))
            stack = np.append(equations, 0)[layout]
            want = self._hand_stack(*equations)
            assert stack.dtype == want.dtype
            assert all(type(a) is type(b) for a, b in zip(stack.ravel(), want.ravel()))
            assert np.array_equal(stack, want)


class TestConic:
    def test_builder_shape(self):
        problem = get_problem("conic")
        data, _ = problem.generate_instance(np.random.default_rng(0))
        stack = _build(problem, data)
        assert isinstance(stack, np.ndarray) and stack.dtype == np.float64
        assert stack.shape == (3, 4, 4)

    def test_matrix_form_is_an_identity(self):
        # M(y) b(x) reproduces (x f1, f1, x f2, f2) for arbitrary (x, y)
        problem = get_problem("conic")
        rng = np.random.default_rng(1)
        data = problem.generate_instance(rng)[0]
        stack = _build(problem, data)
        for _ in range(20):
            x, y = rng.uniform(-2, 2, size=2)
            f1, f2 = equation_oracles.conic_values(data, (x, y))
            want = np.array([x * f1, f1, x * f2, f2])
            got = evaluate_at(stack, y) @ _basis_values(problem, (x, y))
            scale = max(1.0, np.abs(want).max())
            assert np.max(np.abs(got - want)) < 1e-12 * scale

    def test_generator_ground_truth(self):
        problem = get_problem("conic")
        data, gts = problem.generate_instance(np.random.default_rng(1))
        system = _system(problem, data)
        assert len(gts) == 4
        for gt in gts:
            assert system.max_abs_residual(gt) < 1e-12

    def test_generator_deterministic(self):
        a, _ = generate_instance("conic", 5)
        b, _ = generate_instance("conic", 5)
        assert np.array_equal(a.c1, b.c1) and np.array_equal(a.c2, b.c2)

    def test_normalization(self):
        data, _ = generate_instance("conic", 2)
        assert np.linalg.norm(data.c1) == pytest.approx(1.0)
        assert np.linalg.norm(data.c2) == pytest.approx(1.0)

    def test_degenerate_leading_coefficients(self):
        # neither conic has an x^2 term: elimination in x collapses
        c1 = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
        c2 = np.array([[0.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, -1.0]])
        with pytest.raises(DegenerateDataError, match="rotate coordinates"):
            _build(get_problem("conic"), ConicPairData(c1, c2))

    def test_single_zero_leading_coefficient_accepted(self):
        # xy - 1 has no x^2 term but the pair still builds (N stays 4)
        c1 = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, -2.0]])
        c2 = np.array([[0.0, 0.5, 0], [0.5, 0.0, 0], [0, 0, -1.0]])
        stack = _build(get_problem("conic"), ConicPairData(c1, c2))
        assert stack.shape[-1] == 4

    def test_recovers_prescribed_intersections(self, conic_template):
        problem = get_problem("conic")
        for seed in range(5):
            data, gts = problem.generate_instance(np.random.default_rng(seed))
            result = solve_online(conic_template, data)
            assert len(result.accepted) == 4
            for gt in gts:
                best = min(
                    np.max(np.abs(c.x - gt)) for c in result.accepted
                )
                assert best < 1e-6

    def test_json_round_trip(self):
        problem = get_problem("conic")
        data, _ = problem.generate_instance(np.random.default_rng(3))
        obj = problem.data_to_json(data)
        assert set(obj) == {"C1", "C2"} and len(obj["C1"]) == 9
        back = problem.data_from_json(obj)
        assert np.allclose(back.c1, data.c1) and np.allclose(back.c2, data.c2)


class TestFivePoint:
    def test_builder_shape(self):
        problem = get_problem("five_point")
        data, _ = problem.generate_instance(np.random.default_rng(0))
        stack = _build(problem, data)
        assert isinstance(stack, np.ndarray) and stack.dtype == np.float64
        assert stack.shape == (4, 10, 10)

    def test_matrix_form_is_an_identity(self):
        # M(z) b(x, y) equals the ten cubic values for arbitrary (x, y, z)
        problem = get_problem("five_point")
        rng = np.random.default_rng(1)
        data = problem.generate_instance(rng)[0]
        stack = _build(problem, data)
        for _ in range(20):
            pt = rng.uniform(-2, 2, size=3)
            want = equation_oracles.values("five_point", data, pt)
            got = evaluate_at(stack, pt[2]) @ _basis_values(problem, pt)
            scale = max(1.0, np.abs(want).max())
            assert np.max(np.abs(got - want)) < 1e-12 * scale

    def test_exact_constraints_match_oracle(self):
        # on Python ints the constraint matrix is exact: its cubics agree
        # with the oracle on the 4x4x4 grid, which pins down every cubic
        rng = np.random.default_rng(12)
        e_basis = np.array(
            [int(v) for v in rng.integers(-2**31, 2**31, size=36)], dtype=object
        ).reshape(4, 3, 3)
        matrix = five_point.constraint_vectors(e_basis)
        assert matrix.shape == (10, 20)
        assert all(type(c) is int for c in matrix.ravel())
        for pt in itertools.product((-1, 0, 1, 2), repeat=3):
            monomials = np.array(
                [pt[0] ** a * pt[1] ** b * pt[2] ** c for a, b, c in five_point.MON3],
                dtype=object,
            )
            want = equation_oracles.five_point_values(e_basis, pt)
            assert list(matrix @ monomials) == list(want)

    def test_ground_truth_satisfies_matrix_form(self):
        problem = get_problem("five_point")
        data, gts = problem.generate_instance(np.random.default_rng(1))
        assert np.max(_matrix_residual(problem, data, gts[0])) < 1e-10

    def test_ground_truth_satisfies_cubics(self):
        problem = get_problem("five_point")
        data, gts = problem.generate_instance(np.random.default_rng(1))
        system = _system(problem, data)
        assert system.max_abs_residual(gts[0]) < 1e-10

    def test_generator_deterministic(self):
        a, _ = generate_instance("five_point", 5)
        b, _ = generate_instance("five_point", 5)
        assert np.array_equal(a.pts_a, b.pts_a)
        assert np.array_equal(a.pts_b, b.pts_b)

    def test_points_unit_normalized(self):
        data, _ = generate_instance("five_point", 2)
        assert np.allclose(np.linalg.norm(data.pts_a, axis=1), 1.0)
        assert np.allclose(np.linalg.norm(data.pts_b, axis=1), 1.0)

    def test_degenerate_correspondences_rejected(self):
        pts = np.tile(np.array([0.0, 0.0, 1.0]), (5, 1))
        data = FivePointData(pts, pts)
        with pytest.raises(DegenerateDataError, match="degenerate correspondences"):
            _build(get_problem("five_point"), data)

    def test_planar_points_do_not_crash(self, five_point_template):
        from resultant_solve.problems.five_point import _random_rotation

        rng = np.random.default_rng(3)
        rot = _random_rotation(rng)
        t = rng.standard_normal(3)
        t /= np.linalg.norm(t)
        pts3d = np.column_stack(
            [rng.uniform(-2, 2, 5), rng.uniform(-2, 2, 5), np.full(5, 5.0)]
        )
        data = FivePointData(pts3d, pts3d @ rot.T + t)
        stack = _build(get_problem("five_point"), data)
        assert stack.shape[-1] == 10
        result = solve_online(five_point_template, data)
        assert len(result.accepted) <= 10

    def test_json_round_trip(self):
        problem = get_problem("five_point")
        data, _ = problem.generate_instance(np.random.default_rng(3))
        obj = problem.data_to_json(data)
        assert set(obj) == {"pts_a", "pts_b"}
        back = problem.data_from_json(obj)
        assert np.allclose(back.pts_a, data.pts_a)


class TestSharedProperties:
    def test_original_equation_counts(self):
        conic_data, _ = generate_instance("conic", 0)
        five_data, _ = generate_instance("five_point", 0)
        conic_eqs = original_equations("conic", conic_data)
        five_eqs = original_equations("five_point", five_data)
        # (equations, monomials), and one exponent per variable
        assert conic_eqs.shape == (2, len(conic.MONOMIALS))
        assert five_eqs.shape == (10, len(five_point.MONOMIALS))
        assert conic.MONOMIALS.shape[1] == 2 and five_point.MONOMIALS.shape[1] == 3

    @pytest.mark.parametrize("pid", ["conic", "five_point"])
    def test_dense_system_matches_oracle(self, pid):
        problem = get_problem(pid)
        rng = np.random.default_rng(11)
        for _ in range(5):
            data = problem.generate_instance(rng)[0]
            points = rng.uniform(-2, 2, size=(20, problem.n_vars))
            got = _system(problem, data).evaluate_all(points)
            for pt, vals in zip(points, got):
                want = equation_oracles.values(pid, data, pt)
                scale = max(1.0, np.abs(want).max())
                assert np.max(np.abs(vals - want)) < 1e-12 * scale

    @pytest.mark.parametrize("pid", ["conic", "five_point"])
    def test_equation_rows_match_oracle(self, pid):
        # the online residual reads the equations from the matrix rows;
        # each row must be one original equation, in order, and the max over
        # them must be the independent oracle's residual
        problem = get_problem(pid)
        rest = [w for w in range(problem.n_vars) if w != problem.hidden_index]
        rng = np.random.default_rng(17)
        for _ in range(20):
            data = problem.generate_instance(rng)[0]
            points = rng.uniform(-2, 2, size=(20, problem.n_vars))
            m_at_roots = evaluate_at(_build(problem, data), points[:, problem.hidden_index])
            got = equation_values(
                m_at_roots, problem.basis, points[:, rest], problem.equation_rows
            )
            dense = _system(problem, data).evaluate_all(points)
            assert got.shape == dense.shape
            np.testing.assert_allclose(got, dense, rtol=1e-12, atol=1e-12 * np.abs(dense).max())
            oracle = [np.abs(equation_oracles.values(pid, data, pt)).max() for pt in points]
            np.testing.assert_allclose(np.abs(got).max(axis=1), oracle, rtol=1e-12)

    def test_stack_functions_are_ring_agnostic(self):
        # one layout for both rings: on integer parameters each problem's
        # build gives the float stack (online) and the Python-int stack
        # (offline Z_p matrix) that agree
        rng = np.random.default_rng(13)
        for _ in range(5):
            e_basis = rng.integers(-50, 51, size=(4, 3, 3))
            c1, c2 = rng.integers(-50, 51, size=(2, 3, 3))
            for build, equations in (
                (five_point.build, lambda dt: five_point.constraint_vectors(e_basis.astype(dt))),
                (
                    conic.build,
                    lambda dt: np.array([conic._conic_row(c.astype(dt)) for c in (c1, c2)], dtype=dt),
                ),
            ):
                exact = build(equations(object))
                floats = build(equations(float))
                assert exact.dtype == object and floats.dtype == float
                assert all(type(v) is int for v in exact.ravel())
                assert exact.shape == floats.shape
                assert np.array_equal(exact.astype(float), floats)

    def test_solution_count_ceiling(self, conic_template, five_point_template):
        for template, pid in ((conic_template, "conic"), (five_point_template, "five_point")):
            problem = get_problem(pid)
            for seed in range(5):
                data, _ = problem.generate_instance(np.random.default_rng(seed))
                result = solve_online(template, data)
                assert len(result.accepted) <= template.r

    def test_normalization_invariance(self, conic_template, five_point_template):
        # common scaling of the raw inputs must not move the solution set
        # (the residual-sorted order may jitter between near-exact ties)
        def match(a, b):
            assert len(a.accepted) == len(b.accepted)
            for ca in a.accepted:
                nearest = min(
                    np.max(np.abs(ca.x - cb.x)) for cb in b.accepted
                )
                assert nearest < 1e-8

        conic = get_problem("conic")
        data, _ = conic.generate_instance(np.random.default_rng(9))
        scaled = ConicPairData(37.5 * data.c1, 37.5 * data.c2)
        match(solve_online(conic_template, data), solve_online(conic_template, scaled))

        five = get_problem("five_point")
        data5, _ = five.generate_instance(np.random.default_rng(9))
        scaled5 = FivePointData(0.25 * data5.pts_a, 0.25 * data5.pts_b)
        match(
            solve_online(five_point_template, data5),
            solve_online(five_point_template, scaled5),
        )


def _match_solutions(a, b, tol):
    assert len(a.accepted) == len(b.accepted)
    for ca in a.accepted:
        assert min(np.max(np.abs(ca.x - cb.x)) for cb in b.accepted) < tol


class TestInputValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_conic_non_finite_entry_rejected(self, bad):
        data, _ = generate_instance("conic", 3)
        c2 = data.c2.copy()
        c2[0, 1] = bad
        with pytest.raises(DegenerateDataError, match="c2 has a non-finite entry"):
            ConicPairData(data.c1, c2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_five_point_non_finite_entry_rejected(self, bad):
        data, _ = generate_instance("five_point", 3)
        pts_a = data.pts_a.copy()
        pts_a[2, 1] = bad
        with pytest.raises(DegenerateDataError, match="pts_a has a non-finite entry"):
            FivePointData(pts_a, data.pts_b)

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_conic_extreme_scale_solves(self, conic_template, scale):
        # the Frobenius norm of the raw data overflows or underflows
        data, _ = generate_instance("conic", 4)
        scaled = ConicPairData(scale * data.c1, scale * data.c2)
        assert np.linalg.norm(scaled.c1) == pytest.approx(1.0)
        _match_solutions(
            solve_online(conic_template, data),
            solve_online(conic_template, scaled),
            1e-8,
        )

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_five_point_extreme_scale_solves(self, five_point_template, scale):
        data, _ = generate_instance("five_point", 4)
        scaled = FivePointData(scale * data.pts_a, data.pts_b / scale)
        assert np.allclose(np.linalg.norm(scaled.pts_a, axis=1), 1.0)
        assert np.allclose(np.linalg.norm(scaled.pts_b, axis=1), 1.0)
        _match_solutions(
            solve_online(five_point_template, data),
            solve_online(five_point_template, scaled),
            1e-8,
        )

    def test_power_of_two_scale_is_bitwise_neutral(self):
        # the pre-scale is exact: in-range data normalise as plain
        # division by the norm, and any power-of-two rescaling is invisible
        rng = np.random.default_rng(5)
        for _ in range(20):
            c1, c2 = rng.standard_normal((2, 3, 3))
            pts_a, pts_b = rng.standard_normal((2, 5, 3))
            data = ConicPairData(c1, c2)
            sym = (c1 + c1.T) / 2.0
            assert np.array_equal(data.c1, sym / np.linalg.norm(sym))
            points = FivePointData(pts_a, pts_b)
            norms = np.linalg.norm(pts_a, axis=1)[:, None]
            assert np.array_equal(points.pts_a, pts_a / norms)
            for shift in (-900, -40, 37, 900):
                moved = ConicPairData(np.ldexp(c1, shift), np.ldexp(c2, shift))
                assert np.array_equal(moved.c1, data.c1)
                assert np.array_equal(moved.c2, data.c2)
                moved5 = FivePointData(np.ldexp(pts_a, shift), np.ldexp(pts_b, shift))
                assert np.array_equal(moved5.pts_a, points.pts_a)
                assert np.array_equal(moved5.pts_b, points.pts_b)
