import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from resultant_solve.rootfind import real_candidates, roots
from resultant_solve.spectral import trim


def _poly_from_roots(root_values):
    coeffs = np.array([1.0 + 0j])
    for r in root_values:
        coeffs = np.convolve(coeffs, [-r, 1.0])
    return coeffs


def _match_roots(found, expected):
    """Greedy nearest-neighbor assignment; returns the max matched distance."""
    found = list(found)
    worst = 0.0
    for e in expected:
        dists = [abs(f - e) for f in found]
        idx = int(np.argmin(dists))
        worst = max(worst, dists[idx])
        found.pop(idx)
    return worst


def _separated_random_roots(rng, degree, min_sep=2e-2):
    while True:
        vals = rng.uniform(-1, 1, size=degree) + 1j * rng.uniform(-1, 1, size=degree)
        sep = min(
            abs(vals[i] - vals[j])
            for i in range(degree)
            for j in range(i + 1, degree)
        )
        if sep > min_sep:
            return vals


class TestRoots:
    def test_quadratic(self):
        got = roots(np.array([-1.0, 0.0, 1.0]))
        assert _match_roots(got, [1.0, -1.0]) < 1e-12

    def test_cubic_with_integer_roots(self):
        got = roots(np.array([-6.0, 11.0, -6.0, 1.0]))
        assert _match_roots(got, [1.0, 2.0, 3.0]) < 1e-10

    def test_degree_20_known_roots(self):
        rng = np.random.default_rng(0)
        expected = _separated_random_roots(rng, 20)
        got = roots(_poly_from_roots(expected))
        assert _match_roots(got, expected) < 1e-7

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="no roots"):
            roots(np.array([3.0]))

    def test_trailing_noise_trimmed_before_rooting(self):
        got = roots(trim(np.array([-1.0, 0.0, 1.0, 1e-18])))
        assert len(got) == 2

    def test_residual_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            deg = int(rng.integers(2, 15))
            expected = _separated_random_roots(rng, deg)
            p = _poly_from_roots(expected)
            max_c = np.abs(p).max()
            for z in roots(p):
                bound = 1e-6 * max_c * max(1.0, abs(z)) ** deg
                assert abs(polyval(z, p)) <= bound

    def test_conjugate_closure_and_degree_count(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            deg = int(rng.integers(1, 16))
            p = rng.standard_normal(deg + 1) + 0j
            p[-1] += p[-1] == 0
            got = roots(p)
            assert len(got) == deg
            for z in got:
                assert min(abs(got - np.conj(z))) < 1e-9 * (1.0 + abs(z))


class TestRealCandidates:
    def test_filters_complex(self):
        got = real_candidates(np.array([1.0 + 0j, 1j]))
        assert np.allclose(got, [1.0])

    def test_keeps_tiny_imaginary(self):
        got = real_candidates(np.array([2.0 + 1e-9j]))
        assert np.allclose(got, [2.0])

    def test_order_preserved(self):
        got = real_candidates(np.array([3.0 + 0j, 5j, -1.0 + 0j, 0.5 + 0j]))
        assert np.allclose(got, [3.0, -1.0, 0.5])

    def test_conic_instance_has_four_real_candidates(self):
        # built from four known real intersections, all roots must be real
        from resultant_solve.matrixpoly import det_complex
        from resultant_solve.problems import get_problem
        from resultant_solve.spectral import batched_eval, recover_coefficients

        problem = get_problem("conic")
        data, _ = problem.generate_instance(np.random.default_rng(11))
        stack = problem.build(problem.original_equations(data))
        samples = det_complex(batched_eval(stack, 4))
        poly = trim(recover_coefficients(samples).real)
        assert len(real_candidates(roots(poly))) == 4
