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
from resultant_solve import recover
from resultant_solve.recover import (
    SolveError,
    equation_values,
    solution_set_to_json,
    solve_online,
)


def _build(problem, data):
    return problem.build(problem.original_equations(data))


def _system(problem, data):
    """The instance's equation array over its problem's monomial table."""
    module = {"conic": conic, "five_point": five_point}[problem.problem_id]
    return PolynomialSystem(problem.original_equations(data), module.MONOMIALS)


def _basis_values(problem, point):
    """Column monomials evaluated at the coordinates before the hidden last one."""
    rest = point[:-1]
    return np.array(
        [np.prod([r**e for r, e in zip(rest, exps)]) for exps in problem.basis]
    )


def _matrix_residual(problem, data, point):
    m = evaluate_at(_build(problem, data), point[-1])
    return np.abs(m @ _basis_values(problem, point))


class TestRegistry:
    def test_unknown_problem(self):
        with pytest.raises(ValueError, match="unknown problem"):
            get_problem("frobnicate")

    def test_known_problems(self):
        assert get_problem("conic").problem_id == "conic"
        assert get_problem("five_point").problem_id == "five_point"


class TestMatrixLayout:
    # a toy over (x, z, y) with y hidden: f_e = a_e xy + b_e z + c_e y^2 + d_e
    MONOMIALS = ((1, 0, 1), (0, 1, 0), (0, 0, 2), (0, 0, 0))
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
        layout = base.matrix_layout(self.MONOMIALS, self.ROWS, self.BASIS)
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


def _homogeneous_values(equations, monomials, u):
    """The equations at the homogeneous point u = [x, 1] scaled, term by term."""
    monomials = np.asarray(monomials)
    degree = monomials.sum(axis=1).max()
    exponents = np.column_stack([monomials, degree - monomials.sum(axis=1)])
    return equations @ np.prod(u ** exponents, axis=1)


class TestSubstitution:
    TABLES = {"conic": conic.MONOMIALS, "five_point": five_point.MONOMIALS}

    @pytest.mark.parametrize("pid", TABLES)
    def test_identity_frame_is_the_identity(self, pid):
        monomials = self.TABLES[pid]
        size = monomials.shape[1] + 1
        t = base.substitution(monomials, np.eye(size))
        assert t.tobytes() == np.eye(len(monomials)).tobytes()

    def test_power_of_two_scaling_is_exactly_diagonal(self):
        # scaling the hidden z by 2 multiplies each cubic monomial by 2^(its
        # power of z): a diagonal T of exact powers of two
        t = base.substitution(five_point.MONOMIALS, np.diag([1.0, 1.0, 2.0, 1.0]))
        want = 2.0 ** five_point.MONOMIALS[:, 2]
        assert np.array_equal(t, np.diag(want))
        assert set(want.tolist()) == {1.0, 2.0, 4.0, 8.0}

    @pytest.mark.parametrize("pid", TABLES)
    def test_substituted_equations_agree_at_random_points(self, pid):
        monomials = self.TABLES[pid]
        size = monomials.shape[1] + 1
        rng = np.random.default_rng(19)
        p, _ = np.linalg.qr(rng.standard_normal((size, size)))
        equations = rng.standard_normal((3, len(monomials)))
        substituted = equations @ base.substitution(monomials, p)
        for _ in range(50):
            u = rng.standard_normal(size)
            u /= np.linalg.norm(u)
            want = _homogeneous_values(equations, monomials, p @ u)
            got = _homogeneous_values(substituted, monomials, u)
            assert np.max(np.abs(got - want)) < 1e-13

    def test_literal_q_is_the_default_rng_qr(self):
        # the literal stands for the QR of default_rng(0)'s 4x4 draw; LAPACK
        # kernels disagree on that QR in the last bit (5.6e-17 measured
        # between SkylakeX and Prescott), so it is compared to 1e-15
        q = five_point.Q
        assert np.abs(q @ q.T - np.eye(4)).max() < 1e-15
        qr = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))[0]
        assert np.abs(q - qr).max() < 1e-15
        (P, _), = five_point.FRAMES
        assert np.array_equal(P, q.T)

    def test_five_point_frame_cubics_match_the_mixed_basis(self):
        # the cubics over E'_j = sum_k Q_jk E_k, written out by the frozen
        # float expansion, are the substituted cubics up to rounding
        # (worst 9.5e-16 relative measured, under five OpenBLAS kernels)
        (_, t), = five_point.FRAMES
        for i in range(300):
            data, _ = five_point.generate_instance(np.random.default_rng([1, i]))
            e_basis = five_point._nullspace_basis(data)
            mixed = (five_point.Q @ e_basis.reshape(4, 9)).reshape(4, 3, 3)
            want = equation_oracles.five_point_constraint_vectors(mixed)
            got = five_point.original_equations(data) @ t
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


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

    def test_float_cubics_match_frozen_copy_bitwise(self):
        # the online cubics of the first 300 seed-1 pool instances, over the
        # nullspace basis and over its mix by the second frame's Q, bit for
        # bit those of the float expansion kept in the oracles
        for i in range(300):
            data, _ = five_point.generate_instance(np.random.default_rng([1, i]))
            e_basis = five_point._nullspace_basis(data)
            mixed = (five_point.Q @ e_basis.reshape(4, 9)).reshape(4, 3, 3)
            for e in (e_basis, mixed):
                got = five_point.constraint_vectors(e)
                assert np.array_equal(got, equation_oracles.five_point_constraint_vectors(e))

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
        rng = np.random.default_rng(17)
        for _ in range(20):
            data = problem.generate_instance(rng)[0]
            points = rng.uniform(-2, 2, size=(20, problem.n_vars))
            m_at_roots = evaluate_at(_build(problem, data), points[:, -1])
            got = equation_values(
                m_at_roots, problem.basis, points[:, :-1], problem.equation_rows
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
                assert len(result.accepted) <= problem.expected_solutions

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


def _symmetric(rng):
    a = rng.standard_normal((3, 3))
    return a + a.T


def _image_points(rng):
    return np.column_stack([rng.uniform(-1.0, 1.0, (5, 2)), np.ones(5)])


def _collinear_first_view(rng):
    # five points on the image line spanned by u and v, then a generic view
    u, v = rng.standard_normal((2, 3))
    ab = rng.standard_normal((5, 2))
    return FivePointData(ab[:, :1] * u + ab[:, 1:] * v, _image_points(rng))


def _identical_views(rng):
    points = _image_points(rng)
    return FivePointData(points, points.copy())


class TestVanishingDeterminant:
    """Inputs with a continuum of solutions, or none, end in a named reason.

    Their determinant is rounding noise: log10 of its largest coefficient
    over H, the Hadamard bound of |det M| on the unit circle, measured at
    most -30.9 on these inputs, against the floor's -26.  Near-identical
    conics are ill-posed but solvable, at -21.1 to -17.8.  The ratio comes
    from LU rounding, so CI reruns these tests under other LAPACK kernels
    (measured under the default, Prescott, Haswell, Sandybridge and
    Nehalem kernels).
    """

    COUNT = 200
    KINDS = {
        "identical conics": ("conic", lambda rng: ConicPairData(c := _symmetric(rng), c)),
        "proportional conics": ("conic", lambda rng: ConicPairData(c := _symmetric(rng), 3 * c)),
        "identical views": ("five_point", _identical_views),
        "collinear first view": ("five_point", _collinear_first_view),
    }

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_degenerate_kind_raises_the_named_reason(self, request, kind):
        pid, draw = self.KINDS[kind]
        template = request.getfixturevalue(f"{pid}_template")
        rng = np.random.default_rng(5)
        for _ in range(self.COUNT):
            data = draw(rng)
            with pytest.raises(SolveError, match="determinant vanishes to rounding"):
                solve_online(template, data)

    def test_near_identical_conics_keep_their_solutions(self, conic_template, monkeypatch):
        # C2 = C1 + 1e-9 B: the floor changes no outcome against the
        # earlier rule, which named only an exactly zero determinant
        rng = np.random.default_rng(5)
        datas = [
            ConicPairData(c, c + 1e-9 * _symmetric(rng))
            for c in (_symmetric(rng) for _ in range(self.COUNT))
        ]
        got = [solve_online(conic_template, data) for data in datas]
        monkeypatch.setattr(recover, "_vanishes", lambda stack, max_mag: max_mag == 0.0)
        want = [solve_online(conic_template, data) for data in datas]
        assert [solution_set_to_json(r) for r in got] == [solution_set_to_json(r) for r in want]
        # most pairs still accept intersections (measured: 156 of 200, with
        # 396 to 397 points, under the five kernels)
        assert sum(not r.failed for r in got) > self.COUNT // 2
