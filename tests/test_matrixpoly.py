import functools
import itertools

import numpy as np
import pytest

from exact_oracles import det_poly_exact
from resultant_solve.matrixpoly import det_complex, evaluate_at
from resultant_solve.spectral import batched_eval

XSWAP = np.array([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]])
# [[x, 1], [1, x]]


def _cofactor_det(m):
    """Independent oracle: Laplace expansion along the first row.

    Memoised on the columns a minor keeps: its rows are the last ones, one
    per column, whichever columns the rows above took, so each of the 2^n
    minors is expanded once instead of n! / k! times.
    """
    n = m.shape[0]

    @functools.cache
    def minor_det(cols):
        row = n - len(cols)
        if len(cols) == 1:
            return m[row, cols[0]]
        total = 0.0 + 0.0j
        for pos, c in enumerate(cols):
            total += (-1) ** pos * m[row, c] * minor_det(cols[:pos] + cols[pos + 1 :])
        return total

    return minor_det(tuple(range(n)))


def _random_int_stack(rng, n, d, lo=-5, hi=6):
    return rng.integers(lo, hi, size=(d + 1, n, n)).astype(float)


def _permutation_parity(perm):
    seen = [False] * len(perm)
    parity = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length % 2 == 0:
            parity = -parity
    return parity


class TestEvaluateAt:
    def test_trailing_zero_slices_change_nothing(self):
        # a stack whose top slices are zero evaluates and samples exactly
        # like the stack without them
        rng = np.random.default_rng(0)
        stack = rng.standard_normal((3, 4, 4))
        padded = np.concatenate([stack, np.zeros((2, 4, 4))])
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert np.array_equal(evaluate_at(padded, z), evaluate_at(stack, z))
        assert np.array_equal(batched_eval(padded, 8), batched_eval(stack, 8))

    def test_swap_matrix_at_i(self):
        got = evaluate_at(XSWAP, 1j)
        assert np.allclose(got, np.array([[1j, 1.0], [1.0, 1j]]))

    def test_real_points_stay_real(self):
        rng = np.random.default_rng(2)
        stack = rng.standard_normal((4, 3, 3))
        z = rng.standard_normal(6)
        real = evaluate_at(stack, z)
        assert real.dtype == np.float64 and real.shape == (6, 3, 3)
        assert evaluate_at(stack, 2).dtype == np.float64
        cplx = evaluate_at(stack, z.astype(complex))
        assert cplx.dtype == np.complex128
        assert np.array_equal(cplx.real, real) and not cplx.imag.any()

    def test_matches_naive_power_sum(self):
        rng = np.random.default_rng(1)
        stack = rng.standard_normal((5, 6, 6))
        for _ in range(50):
            z = complex(rng.standard_normal(), rng.standard_normal())
            naive = sum(a * z**l for l, a in enumerate(stack))
            got = evaluate_at(stack, z)
            assert np.allclose(got, naive, rtol=1e-13, atol=1e-13)


class TestDetComplex:
    def test_identity(self):
        assert det_complex(np.eye(3)) == pytest.approx(1.0)

    def test_rank_deficient_by_construction(self):
        assert abs(det_complex(evaluate_at(XSWAP, 1.0))) < 1e-14

    def test_against_cofactor_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            oracle = _cofactor_det(m)
            assert abs(det_complex(m) - oracle) / abs(oracle) < 1e-10

    def test_batched_matches_single(self):
        rng = np.random.default_rng(3)
        ms = rng.standard_normal((7, 5, 5)) + 1j * rng.standard_normal((7, 5, 5))
        batched = det_complex(ms)
        singles = [det_complex(m) for m in ms]
        assert np.allclose(batched, singles, rtol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det_complex(np.zeros((2, 3)))

    def test_row_permutation_parity(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        base = det_complex(m)
        for _ in range(10):
            perm = rng.permutation(6)
            sign = _permutation_parity(list(perm))
            got = det_complex(m[perm])
            assert got == pytest.approx(sign * base, rel=1e-12)

    def test_equal_rows_give_zero(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m[3] = m[1]
        bound = 1e-12 * np.prod(np.linalg.norm(m, axis=1))
        assert abs(det_complex(m)) < bound


class TestDetPolyExact:
    def test_swap_matrix(self):
        assert det_poly_exact(XSWAP) == [-1, 0, 1]  # x^2 - 1

    def test_diagonal(self):
        # diag(x+1, x-1, x) -> x^3 - x
        stack = np.zeros((2, 3, 3))
        stack[1] = np.eye(3)
        stack[0, 0, 0] = 1.0
        stack[0, 1, 1] = -1.0
        assert det_poly_exact(stack) == [0, -1, 0, 1]

    def test_methods_agree(self):
        rng = np.random.default_rng(6)
        for n, d in itertools.product((2, 3, 5), (1, 2)):
            stack = _random_int_stack(rng, n, d)
            assert det_poly_exact(stack, "interpolate") == det_poly_exact(stack, "bareiss")

    def test_degree_bound_and_generic_equality(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n, d = int(rng.integers(2, 6)), int(rng.integers(1, 3))
            stack = _random_int_stack(rng, n, d)
            coeffs = det_poly_exact(stack)
            assert len(coeffs) - 1 <= n * d
        # generic stacks attain the bound
        stack = _random_int_stack(np.random.default_rng(8), 4, 2, lo=1, hi=9)
        assert len(det_poly_exact(stack)) - 1 == 4 * 2

    def test_identically_zero_determinant(self):
        stack = np.zeros((2, 2, 2))
        stack[0, 0] = [1.0, 2.0]
        stack[0, 1] = [2.0, 4.0]  # proportional rows
        stack[1, 0] = [3.0, 1.0]
        stack[1, 1] = [6.0, 2.0]
        assert det_poly_exact(stack, "interpolate") == []
        assert det_poly_exact(stack, "bareiss") == []

    def test_eval_and_det_commute(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            stack = _random_int_stack(rng, 8, 2, lo=-3, hi=4)
            coeffs = det_poly_exact(stack)
            for _ in range(5):
                z = complex(rng.standard_normal(), rng.standard_normal())
                via_poly = sum(c * z**l for l, c in enumerate(coeffs))
                via_det = det_complex(evaluate_at(stack, z))
                assert abs(via_det - via_poly) <= 1e-9 * max(1.0, abs(via_poly))

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            det_poly_exact(np.full((1, 2, 2), 0.5))

    def test_rejects_large_matrices(self):
        with pytest.raises(ValueError):
            det_poly_exact(np.ones((1, 17, 17)))
