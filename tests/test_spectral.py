import numpy as np
import pytest

from numpy.polynomial.polynomial import polyval

from exact_oracles import det_poly_exact, sample_points
from resultant_solve.matrixpoly import det_complex, evaluate_at
from resultant_solve.spectral import batched_eval, recover_coefficients, trim

XSWAP = np.array([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]])
IDENTITY_POLY = np.array([[[0.0]], [[1.0]]])  # the 1x1 matrix [z]


def _sampled_points(k):
    """The points batched_eval samples at: its samples of z itself."""
    return batched_eval(IDENTITY_POLY, k)[:, 0, 0]


class TestSamplingPoints:
    def test_k_zero(self):
        # k = 0 takes one sample, at z = 1, of a constant matrix
        assert np.allclose(batched_eval(np.full((1, 1, 1), 3.0), 0), [[[3.0]]])

    def test_fourth_roots_negative_orientation(self):
        assert np.allclose(_sampled_points(3), [1.0, -1j, -1.0, 1j], atol=1e-15)
        assert np.allclose(sample_points(3), [1.0, -1j, -1.0, 1j], atol=1e-15)

    def test_root_of_unity_sum(self):
        pts = _sampled_points(2)
        assert np.allclose(pts[0], 1.0)
        assert abs(pts.sum()) < 1e-15

    def test_unit_modulus(self):
        for k in (1, 5, 17, 40):
            assert np.all(np.abs(np.abs(_sampled_points(k)) - 1.0) < 1e-15)
            assert np.allclose(_sampled_points(k), sample_points(k), atol=1e-15)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            batched_eval(np.ones((1, 1, 1)), -1)


class TestBatchedEval:
    def test_swap_matrix_slices(self):
        slices = batched_eval(XSWAP, 2)
        for j, z in enumerate(sample_points(2)):
            assert np.allclose(slices[j], np.array([[z, 1.0], [1.0, z]]), atol=1e-14)

    def test_constant_matrix(self):
        a0 = np.array([[2.0, -1.0], [0.5, 3.0]])
        slices = batched_eval(a0[None], 6)
        assert slices.shape == (7, 2, 2)
        assert np.allclose(slices, a0[None], atol=1e-14)

    def test_matches_horner_oracle(self):
        rng = np.random.default_rng(0)
        stack = rng.standard_normal((4, 10, 10))
        slices = batched_eval(stack, 12)
        pts = sample_points(12)
        scale = np.abs(stack).max()
        for j, z in enumerate(pts):
            assert np.max(np.abs(slices[j] - evaluate_at(stack, z))) < 1e-12 * scale

    def test_rejects_aliasing_k(self):
        with pytest.raises(ValueError):
            batched_eval(XSWAP, 0)


class TestRecoverCoefficients:
    def test_pure_quadratic(self):
        pts = sample_points(2)
        got = recover_coefficients(pts**2)
        assert np.allclose(got, [0.0, 0.0, 1.0], atol=1e-14)

    def test_constant_samples(self):
        got = recover_coefficients(np.full(6, 7.0 + 0j))
        expected = np.zeros(6, dtype=complex)
        expected[0] = 7.0
        assert np.allclose(got, expected, atol=1e-14)

    def test_round_trip_k25(self):
        rng = np.random.default_rng(1)
        coeffs = rng.standard_normal(26) + 1j * rng.standard_normal(26)
        samples = polyval(sample_points(25), coeffs)
        got = recover_coefficients(samples)
        assert np.max(np.abs(got - coeffs)) < 1e-12

    def test_duality_up_to_degree_64(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            k = int(rng.integers(1, 65))
            coeffs = rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1)
            samples = polyval(sample_points(k), coeffs)
            got = recover_coefficients(samples)
            assert np.max(np.abs(got - coeffs)) < 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(3)
        for k in (4, 11, 30):
            coeffs = rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1)
            samples = polyval(sample_points(k), coeffs)
            lhs = np.sum(np.abs(samples) ** 2)
            rhs = (k + 1) * np.sum(np.abs(coeffs) ** 2)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_real_input_symmetry(self):
        rng = np.random.default_rng(4)
        stack = rng.standard_normal((3, 6, 6))
        k = 6 * 2
        samples = det_complex(batched_eval(stack, k))
        coeffs = recover_coefficients(samples)
        assert np.abs(coeffs.imag).max() < 1e-10 * np.abs(coeffs).max()


class TestTrim:
    def test_drops_trailing_noise(self):
        assert np.allclose(trim(np.array([1.0, 2.0, 1e-17])), [1.0, 2.0])

    def test_keeps_significant_leading(self):
        assert np.allclose(trim(np.array([0.0, 0.0, 1.0])), [0.0, 0.0, 1.0])

    def test_never_empties(self):
        assert trim(np.array([1e-20])).size == 1


class TestDeterminantPipeline:
    def test_matches_exact_determinant(self):
        # sampled+IFFT determinant coefficients vs the exact integer oracle
        rng = np.random.default_rng(5)
        for _ in range(10):
            n, d = int(rng.integers(2, 9)), int(rng.integers(0, 4))
            stack = rng.integers(-5, 6, size=(d + 1, n, n)).astype(float)
            exact = det_poly_exact(stack)
            k = n * d
            got = recover_coefficients(det_complex(batched_eval(stack, k)))
            exact_padded = np.zeros(k + 1)
            exact_padded[: len(exact)] = exact
            scale = np.abs(exact_padded).max()
            nonzero = np.abs(exact_padded) > 1e-12 * scale
            rel = np.abs(got[nonzero] - exact_padded[nonzero]) / np.abs(
                exact_padded[nonzero]
            )
            assert rel.max() < 1e-9

    def test_integer_rounding_agreement(self):
        rng = np.random.default_rng(6)
        stack = rng.integers(-5, 6, size=(3, 5, 5)).astype(float)
        exact = det_poly_exact(stack)
        k = 5 * 2
        got = recover_coefficients(det_complex(batched_eval(stack, k)))
        rounded = np.rint(got.real).astype(int).tolist()
        assert rounded[: len(exact)] == exact
        assert all(c == 0 for c in rounded[len(exact) :])
