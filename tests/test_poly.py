import numpy as np
import pytest

from resultant_solve.poly import PolynomialSystem

EXPS2 = ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0))  # x1^2 .. 1


def _system(rows, exponents=EXPS2):
    return PolynomialSystem(np.atleast_2d(rows), exponents)


def _random_system(rng, m, n_vars, max_degree=3, n_monomials=8):
    exps = []
    while len(exps) < n_monomials:
        e = tuple(int(v) for v in rng.integers(0, max_degree + 1, size=n_vars))
        if sum(e) <= max_degree:
            exps.append(e)
    return PolynomialSystem(rng.standard_normal((m, n_monomials)), exps)


def _reference_eval(system, point):
    """Term-by-term scalar loop over the coefficient and exponent tables."""
    out = []
    for row in system.coeffs:
        total = 0.0
        for c, exps in zip(row, system.exponents):
            term = c
            for x, e in zip(point, exps):
                term *= x**e
            total += term
        out.append(total)
    return np.array(out)


class TestEvaluate:
    def test_all_monomials_vanish(self):
        # x1^2 + 2 x2 (twice, to meet m >= n) at the origin
        system = _system([[1.0, 0, 0, 0, 2.0, 0]] * 2)
        assert np.all(system.evaluate_all([0.0, 0.0]) == 0.0)

    def test_simple_point(self):
        system = _system([[1.0, 0, 0, 0, 2.0, 0]] * 2)
        assert system.evaluate_all([3.0, 1.0]).tolist() == [11.0, 11.0]

    def test_product_identity(self):
        system = _system([[0, 1.0, 0, 0, 0, -1.0]] * 2)  # x1 x2 - 1
        assert np.all(system.evaluate_all([2.0, 0.5]) == 0.0)

    def test_dimension_mismatch(self):
        system = _system([[1.0, 0, 0, 0, 0, 0]] * 2)
        with pytest.raises(ValueError):
            system.evaluate_all((1.0, 2.0, 3.0))


class TestCanonicalForm:
    def test_permuted_term_lists_agree(self):
        # permuting the monomial list together with the coefficient columns
        # does not change any value
        rng = np.random.default_rng(0)
        system = _random_system(rng, 3, 2)
        perm = rng.permutation(len(system.exponents))
        permuted = PolynomialSystem(system.coeffs[:, perm], system.exponents[perm])
        for _ in range(10):
            pt = rng.uniform(-2, 2, size=2)
            assert np.allclose(
                system.evaluate_all(pt), permuted.evaluate_all(pt), rtol=1e-14, atol=0
            )

    def test_merging_and_zero_drop(self):
        # a monomial listed several times contributes the sum of its columns
        system = PolynomialSystem(
            [[1.0, 2.0, -3.0, 4.0], [0.0, 0.0, 0.0, 4.0]],
            [(1, 0), (1, 0), (1, 0), (0, 1)],
        )
        for pt in ([3.0, 5.0], [-1.5, 0.25]):
            got = system.evaluate_all(pt)
            assert got[0] == got[1] == 4.0 * pt[1]

    def test_zero_polynomial_is_empty(self):
        system = _system([[0.0] * 6, [1.0, 0, 0, 0, 0, 0]])
        assert system.evaluate_all([5.0, 6.0]).tolist() == [0.0, 25.0]

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            PolynomialSystem([[1.0], [1.0]], [(-1, 0)])


class TestArithmetic:
    def test_evaluation_homomorphism(self):
        # evaluation is linear in the coefficient rows
        rng = np.random.default_rng(0)
        for _ in range(30):
            p = _random_system(rng, 2, 2)
            q = PolynomialSystem(rng.standard_normal(p.coeffs.shape), p.exponents)
            both = PolynomialSystem(p.coeffs + 2.5 * q.coeffs, p.exponents)
            x = rng.uniform(-2, 2, size=2)
            want = p.evaluate_all(x) + 2.5 * q.evaluate_all(x)
            scale = max(1.0, np.abs(p.evaluate_all(x)).max(), np.abs(q.evaluate_all(x)).max())
            assert np.allclose(both.evaluate_all(x), want, rtol=0, atol=1e-12 * scale)


class TestSystem:
    def test_requires_enough_equations(self):
        with pytest.raises(ValueError):
            _system([[1.0, 0, 0, 0, 0, 0]])

    def test_shared_ordering_required(self):
        # every row is over the one monomial list: the shapes must agree
        with pytest.raises(ValueError):
            PolynomialSystem(np.ones((2, 5)), EXPS2)

    def test_evaluate_all_matches_scalar_eval(self):
        rng = np.random.default_rng(1)
        system = _random_system(rng, 4, 3)
        points = rng.uniform(-1.5, 1.5, size=(20, 3))
        stacked = system.evaluate_all(points)
        residuals = system.max_abs_residual(points)
        assert stacked.shape == (20, 4) and residuals.shape == (20,)
        for pt, vals, res in zip(points, stacked, residuals):
            expected = _reference_eval(system, pt)
            assert np.allclose(system.evaluate_all(pt), expected, rtol=1e-13, atol=1e-13)
            assert np.allclose(vals, expected, rtol=1e-13, atol=1e-13)
            assert res == pytest.approx(max(abs(v) for v in expected))

    def test_evaluate_all_with_zero_polynomial(self):
        system = _system([[0, 0, 0, 1.0, 0, 0], [0.0] * 6])
        assert np.allclose(system.evaluate_all([3.0, 4.0]), [3.0, 0.0])
