from fractions import Fraction

import numpy as np
import pytest

import equation_oracles
from resultant_solve.matrixpoly import MatrixPolynomial, det_poly_exact
from resultant_solve.offline import (
    SPECIALIZATION_PRIMES,
    ModularPolyMatrix,
    SolverTemplate,
    TemplateError,
    _zp_gcd,
    build_template,
    det_modular,
    detect_degree,
    find_deletion_pair,
    select_recovery_pairs,
    template_from_json,
    template_to_json,
)
from resultant_solve.problems import get_problem


# --- exact rational GCD oracle ----------------------------------------------


def _frac_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _frac_mod(a, b):
    a = _frac_trim([Fraction(c) for c in a])
    b = _frac_trim([Fraction(c) for c in b])
    while a and len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a = _frac_trim(a)
    return a


def _exact_gcd_degree(a, b):
    """Degree of gcd over Q of two integer-coefficient polynomials."""
    a = _frac_trim([Fraction(c) for c in a])
    b = _frac_trim([Fraction(c) for c in b])
    while b:
        a, b = b, _frac_mod(a, b)
    return len(a) - 1 if a else -1


def _to_modular(mp: MatrixPolynomial, p: int) -> ModularPolyMatrix:
    entries = []
    for r in range(mp.size):
        row = []
        for c in range(mp.size):
            coeffs = [int(round(mp.stack[l, r, c])) % p for l in range(mp.entry_degree + 1)]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            row.append(coeffs)
        entries.append(row)
    return ModularPolyMatrix(entries, p)


class _ToyBuilder:
    """Minimal problem stand-in: a fixed matrix polynomial for every draw."""

    def __init__(self, stack, basis=None, n_vars=2, hidden_index=0, r=1):
        self._mp = MatrixPolynomial(np.asarray(stack, dtype=float))
        self.problem_id = "toy"
        self.n_vars = n_vars
        self.hidden_index = hidden_index
        self.basis = basis or tuple((i,) for i in range(self._mp.size - 1, -1, -1))
        self.expected_solutions = r

    def random_data(self, rng):
        return None

    def build(self, data):
        return self._mp

    def modular_matrix(self, rng, p):
        return _to_modular(self._mp, p)


def _diag_x_stack(n):
    stack = np.zeros((2, n, n))
    stack[1] = np.eye(n)
    return stack


class TestModularArithmetic:
    def test_gcd_degree_matches_exact_oracle(self):
        rng = np.random.default_rng(0)
        for prime in SPECIALIZATION_PRIMES:
            for _ in range(25):
                a = rng.integers(-9, 10, size=rng.integers(2, 6)).tolist()
                b = rng.integers(-9, 10, size=rng.integers(2, 6)).tolist()
                g = rng.integers(-9, 10, size=rng.integers(1, 4)).tolist()
                if not any(a) or not any(b) or not any(g):
                    continue
                prod_a = np.convolve(a, g).astype(int).tolist()
                prod_b = np.convolve(b, g).astype(int).tolist()
                want = _exact_gcd_degree(prod_a, prod_b)
                got = _zp_gcd(
                    [c % prime for c in prod_a], [c % prime for c in prod_b], prime
                )
                assert len(got) - 1 == want

    def test_det_modular_matches_exact_determinant(self):
        rng = np.random.default_rng(1)
        for prime in SPECIALIZATION_PRIMES:
            for _ in range(5):
                n, d = int(rng.integers(2, 5)), int(rng.integers(1, 3))
                mp = MatrixPolynomial(rng.integers(-5, 6, size=(d + 1, n, n)).astype(float))
                exact = det_poly_exact(mp)
                got = det_modular(_to_modular(mp, prime))
                want = [c % prime for c in exact]
                while want and want[-1] == 0:
                    want.pop()
                assert got == want


class TestDetectDegree:
    def test_toy_diagonal(self):
        builder = _ToyBuilder(_diag_x_stack(3))
        assert detect_degree(builder, 3, 0) == 3

    def test_conic_degree_four(self):
        assert detect_degree(get_problem("conic"), 6, 0) == 4

    def test_conic_degree_matches_exact_oracle(self):
        # integer conic pair through the same Sylvester assembly
        from resultant_solve.problems.sylvester import sylvester_matrix_polynomial

        rng = np.random.default_rng(2)
        for _ in range(5):
            a1, b1, c1, d1, e1, f1 = rng.integers(1, 9, size=6)
            a2, b2, c2, d2, e2, f2 = rng.integers(1, 9, size=6)
            q1 = [[a1], [2 * d1, 2 * b1], [f1, 2 * e1, c1]]
            q2 = [[a2], [2 * d2, 2 * b2], [f2, 2 * e2, c2]]
            mp = sylvester_matrix_polynomial(q1, q2)
            assert len(det_poly_exact(mp)) - 1 == 4

    def test_five_point_degree_ten(self):
        assert detect_degree(get_problem("five_point"), 5, 0) == 10

    def test_five_point_degree_matches_exact_oracle(self):
        # generic integer stand-ins for the nullspace basis share the
        # constraint structure, so the exact determinant fixes the degree
        from resultant_solve.problems.five_point import modular_matrix

        rng = np.random.default_rng(3)
        mm = modular_matrix(rng, SPECIALIZATION_PRIMES[0])
        got = det_modular(mm)
        assert len(got) - 1 == 10

    def test_majority_disagreement_rejected(self):
        calls = [1, 1, 2]  # trial degrees 1, 1, 2: the maximum has no majority

        class _Flaky(_ToyBuilder):
            def build(self, data):
                stack = np.zeros((2, 2, 2))
                if calls.pop(0) == 1:
                    stack[0, 1, 1] = 1.0  # diag(x, 1): degree 1
                    stack[1, 0, 0] = 1.0
                else:
                    stack[1] = np.eye(2)  # diag(x, x): degree 2
                return MatrixPolynomial(stack)

        flaky = _Flaky(_diag_x_stack(2))
        with pytest.raises(TemplateError, match="degenerate template"):
            detect_degree(flaky, 3, 0)

    def test_too_few_trials_rejected(self):
        with pytest.raises(ValueError):
            detect_degree(_ToyBuilder(_diag_x_stack(2)), 2, 0)


class TestFindDeletionPair:
    def test_swap_matrix_pairs(self):
        # [[x, 1], [1, x]]: minor(0,0) = x, gcd(x^2 - 1, x) constant, so
        # (0,0) is a valid deletion; the scan prefers the low-degree column
        stack = np.array([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]])
        builder = _ToyBuilder(stack)
        assert find_deletion_pair(builder, 0) == (0, 1)
        prime = SPECIALIZATION_PRIMES[0]
        mm = builder.modular_matrix(None, prime)
        full = det_modular(mm)  # x^2 - 1
        minor = det_modular(mm.minor(0, 0))  # x
        assert len(_zp_gcd(full, minor, prime)) == 1

    def test_shared_factor_rejected(self):
        # diag(x-1, x-2): every minor shares a factor with the determinant
        stack = np.zeros((2, 2, 2))
        stack[0] = np.diag([-1.0, -2.0])
        stack[1] = np.eye(2)
        with pytest.raises(TemplateError, match="no valid deletion pair"):
            find_deletion_pair(_ToyBuilder(stack), 0)

    def test_generic_matrix_accepted_immediately(self):
        rng = np.random.default_rng(4)
        stack = rng.integers(1, 9, size=(3, 5, 5)).astype(float)
        mp = MatrixPolynomial(stack)
        # generic minors share no factor: the first scanned pair wins,
        # which is row 0 of the lowest-degree basis column
        assert find_deletion_pair(_ToyBuilder(stack), 0) == (0, 4)
        # exact oracle over Q: both the scanned and the (0, 0) minor are
        # coprime with the determinant
        full = det_poly_exact(mp)
        for cols in (slice(1, None), slice(0, 4)):
            minor = det_poly_exact(MatrixPolynomial(stack[:, 1:, cols]))
            assert _exact_gcd_degree(full, minor) == 0

    def test_row_dependency_pairs_rejected(self):
        # row 0 equals x * row 1 in the first two columns: det picks up the
        # factor (c - x d), shared with every minor that keeps rows 0 and 1
        prime = SPECIALIZATION_PRIMES[0]
        rng = np.random.default_rng(5)
        a, b, c, d, e, f, g = (int(v) for v in rng.integers(2, 50, size=7))
        entries = [
            [[0, a], [0, b], [c]],
            [[a], [b], [d]],
            [[e], [f], [g]],
        ]
        mm = ModularPolyMatrix(entries, prime)
        full = det_modular(mm)
        assert len(full) - 1 == 1
        for i in range(3):
            for j in range(3):
                minor = det_modular(mm.minor(i, j))
                coprime = bool(minor) and len(_zp_gcd(full, minor, prime)) == 1
                if i == 2:  # keeps both dependent rows
                    assert not coprime
        # deleting row 0 or 1 breaks the dependency for some column
        assert any(
            det_modular(mm.minor(i, j))
            and len(_zp_gcd(full, det_modular(mm.minor(i, j)), prime)) == 1
            for i in (0, 1)
            for j in range(3)
        )

    def test_deterministic(self):
        problem = get_problem("conic")
        assert find_deletion_pair(problem, 3) == find_deletion_pair(problem, 3)


class TestSelectRecoveryPairs:
    def test_documented_small_basis(self):
        # basis (1, y, y^2, x, xy) over (x, y), constant column deleted:
        # x must come from (xy, y), y ties at total degree 3 and resolves
        # lexicographically to (y^2, y)
        basis = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1))
        pairs = select_recovery_pairs(basis, 0, 3, 0)
        assert pairs[1] == (4, 1)
        assert pairs[2] == (2, 1)

    def test_insufficient_basis(self):
        basis = ((0,), (1,))
        with pytest.raises(TemplateError, match="basis insufficient"):
            select_recovery_pairs(basis, 0, 2, 0)

    def test_five_point_basis_covers_all_deletions(self):
        problem = get_problem("five_point")
        for deleted in range(10):
            pairs = select_recovery_pairs(problem.basis, deleted, 3, 2)
            assert set(pairs) == {0, 1}
            for w, (j1, j2) in pairs.items():
                diff = tuple(
                    a - b for a, b in zip(problem.basis[j1], problem.basis[j2])
                )
                assert diff == ((1, 0) if w == 0 else (0, 1))
                assert deleted not in (j1, j2)


class TestTemplates:
    def test_conic_template(self, conic_template):
        t = conic_template
        assert (t.size, t.k, t.r) == (4, 4, 4)
        assert t.k >= t.r >= 1

    def test_five_point_template(self, five_point_template):
        t = five_point_template
        assert (t.size, t.k, t.r) == (10, 10, 10)

    def test_build_deterministic(self):
        problem = get_problem("conic")
        a = template_to_json(build_template(problem, 3))
        b = template_to_json(build_template(problem, 3))
        assert a == b

    def test_json_round_trip(self, conic_template, five_point_template):
        for t in (conic_template, five_point_template):
            back = template_from_json(template_to_json(t))
            assert back == t

    def test_toy_serialization_round_trip(self):
        toy = SolverTemplate(
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
        assert template_from_json(template_to_json(toy)) == toy

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            SolverTemplate(
                problem_id="bad",
                n_vars=2,
                hidden_index=0,
                size=3,
                basis=((2,), (1,), (0,)),
                k=1,
                r=2,  # r > k
                deletion_pair=(0, 0),
                recovery_pairs={1: (1, 2)},
            )
        with pytest.raises(ValueError):
            SolverTemplate(
                problem_id="bad",
                n_vars=2,
                hidden_index=0,
                size=3,
                basis=((2,), (1,), (0,)),
                k=2,
                r=1,
                deletion_pair=(0, 1),
                recovery_pairs={1: (1, 2)},  # pair hits the deleted column
            )


class TestSolutionCountOracles:
    """Independent verification of the hard-coded per-problem solution counts."""

    def test_conic_r_by_grid_newton(self):
        # brute force: Newton from a coarse grid must find exactly the four
        # prescribed real intersections, matching r = 4
        problem = get_problem("conic")
        for seed in (0, 1, 2):
            data, gts = problem.generate_instance(np.random.default_rng(seed))
            system = problem.original_equations(data)
            exps = system.exponents

            def value_and_jacobian(pt):
                # d/dx_k x^e = e_k x^(e - unit_k), from the dense exponent table
                jac = np.empty((2, 2))
                for k in range(2):
                    lowered = np.maximum(exps - np.eye(2, dtype=int)[k], 0)
                    monomials = exps[:, k] * np.prod(pt**lowered, axis=1)
                    jac[:, k] = system.coeffs @ monomials
                return equation_oracles.conic_values(data, pt), jac

            found = []
            grid = np.linspace(-1.5, 1.5, 25)
            for x0 in grid:
                for y0 in grid:
                    pt = np.array([x0, y0])
                    for _ in range(30):
                        f, jac = value_and_jacobian(pt)
                        if abs(np.linalg.det(jac)) < 1e-14:
                            break
                        step = np.linalg.solve(jac, f)
                        pt = pt - step
                        if np.max(np.abs(step)) < 1e-14:
                            break
                    if np.max(np.abs(equation_oracles.conic_values(data, pt))) < 1e-10:
                        if not any(np.max(np.abs(pt - q)) < 1e-6 for q in found):
                            found.append(pt)
            assert len(found) == 4
            for gt in gts:
                assert min(np.max(np.abs(gt - q)) for q in found) < 1e-8

    @pytest.mark.parametrize("pid", ["conic", "five_point"])
    def test_all_roots_satisfy_original_system(self, pid):
        # every complex root of the determinant polynomial solves the
        # original system: no extraneous factor, so r = k for both problems
        from resultant_solve.matrixpoly import det_complex, evaluate_at
        from resultant_solve.recover import cramer_ratios
        from resultant_solve.rootfind import roots
        from resultant_solve.spectral import (
            UnivariatePolynomial,
            batched_eval,
            recover_coefficients,
            trim,
        )

        problem = get_problem(pid)
        template = build_template(problem, 7)
        for seed in (0, 1, 2):
            data, _ = problem.generate_instance(np.random.default_rng([71, seed]))
            mp = problem.build(data)
            samples = det_complex(batched_eval(mp, template.k))
            det_poly = trim(UnivariatePolynomial(recover_coefficients(samples).coeffs))
            assert det_poly.degree == template.k
            hidden = roots(det_poly)
            values, _ = cramer_ratios(
                evaluate_at(mp, hidden), template.deletion_pair, template.recovery_pairs
            )
            for root, recovered in zip(hidden, values):
                point = [0j] * problem.n_vars
                point[problem.hidden_index] = root
                for w, val in zip(sorted(template.recovery_pairs), recovered):
                    point[w] = val
                residual = np.max(np.abs(equation_oracles.values(pid, data, point)))
                norm = np.linalg.norm(point)
                assert residual / max(norm, 1.0) < 1e-6
