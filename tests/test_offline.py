import json
import pickle
from fractions import Fraction

import numpy as np
import pytest

import equation_oracles
from exact_oracles import det_poly_exact, zp_det_poly
from resultant_solve import offline
from resultant_solve.offline import (
    SPECIALIZATION_PRIMES,
    SolverTemplate,
    TemplateError,
    _bordered,
    _degree_bound,
    _zp_gcd,
    build_template,
    det_modular,
    detect_degree,
    find_deletion_pair,
    select_recovery_pairs,
    specialize,
    template_from_json,
    template_to_json,
)
from resultant_solve.problems import Problem, conic, five_point, get_problem


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


def _to_modular(stack, p):
    """Integer-valued coefficient stack as Python-int residues mod p."""
    return np.rint(stack).astype(int).astype(object) % p


class _ToyBuilder:
    """Minimal problem stand-in: a fixed integer stack for every draw."""

    def __init__(self, stack, basis=None, r=1):
        self._stack = np.asarray(stack, dtype=float)
        self.problem_id = "toy"
        self.basis = basis or tuple((i,) for i in range(self._stack.shape[1] - 1, -1, -1))
        self.expected_solutions = r

    def modular_matrix(self, rng, p):
        return _to_modular(self._stack, p)


def _deletion(builder, seed=0):
    return find_deletion_pair(builder.basis, specialize(builder, seed))


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
                stack = rng.integers(-5, 6, size=(d + 1, n, n))
                exact = det_poly_exact(stack.astype(float))
                got = det_modular([_to_modular(stack, prime)], [prime])[0]
                want = [c % prime for c in exact]
                while want and want[-1] == 0:
                    want.pop()
                assert got == want

    @pytest.mark.parametrize("prime", [*SPECIALIZATION_PRIMES, 13])
    def test_det_modular_matches_python_int_oracle(self, prime):
        rng = np.random.default_rng(prime % 1000)
        cases = 0
        for trial in range(60):
            n, d = int(rng.integers(1, 11)), int(rng.integers(0, 4))
            if n * d + 1 > prime:
                continue
            high = prime if trial % 2 else 3  # small residues: many zeros
            stack = rng.integers(0, high, size=(d + 1, n, n)).astype(object)
            shape = trial % 5
            if shape == 1:  # zero row: singular at every point
                stack[:, rng.integers(n)] = 0
            elif shape == 2 and n > 1:  # repeated column: rank-deficient
                j = int(rng.integers(n - 1))
                stack[:, :, j + 1] = stack[:, :, j]
            elif shape == 3 and n > 2:  # zero block: pivots need row swaps
                stack[:, : n // 2, : n // 2 + 1] = 0
            elif shape == 4:  # all-zero top slice: the determinant loses degree
                stack[-1] = 0
            assert det_modular([stack], [prime])[0] == zp_det_poly(stack, prime)
            cases += 1
        assert cases >= 30

    @pytest.mark.parametrize("prime", [*SPECIALIZATION_PRIMES, 7])
    def test_det_modular_edge_shapes(self, prime):
        one_by_one = np.array([[[3]], [[0]], [[5]]], dtype=object)  # 3 + 5x^2
        constant = np.array([[[2, 1], [4, 3]]], dtype=object)  # d = 0
        for stack in (one_by_one, constant):
            assert det_modular([stack], [prime])[0] == zp_det_poly(stack, prime)
        assert det_modular([one_by_one], [prime])[0] == [3, 0, 5]

    def test_prime_too_large_for_int64_rejected(self):
        big = 2**61 - 1  # a Mersenne prime: (p-1)^2 overflows int64
        with pytest.raises(ValueError, match="too large"):
            det_modular([np.ones((2, 2, 2), dtype=object)], [big])

    def test_batch_of_mixed_sizes_rejected(self):
        # one elimination runs over the whole batch, so N must be shared
        prime = SPECIALIZATION_PRIMES[0]
        stacks = [np.ones((2, 2, 2), dtype=np.int64), np.ones((2, 3, 3), dtype=np.int64)]
        with pytest.raises(ValueError, match="must share N"):
            det_modular(stacks, [prime, prime])

    def test_empty_batch(self):
        assert det_modular([], []) == []


def _graded_stack(rng, n, d, high):
    """A (d+1, n, n) residue stack whose column j has degree <= c_j, max c_j = d.

    Its determinant's degree bound is sum c_j, below N d for most draws,
    as in ``five_point``, so ``det_modular`` samples fewer points than the
    N d + 1 that ``zp_det_poly`` keeps.
    """
    column_degrees = rng.integers(0, d + 1, size=n)
    column_degrees[rng.integers(n)] = d
    stack = rng.integers(0, high, size=(d + 1, n, n)).astype(object)
    above = np.arange(d + 1)[:, None, None] > column_degrees[None, None, :]
    stack[np.broadcast_to(above, stack.shape)] = 0
    return stack


class TestDegreeBound:
    """``det_modular`` samples at its column/row degree bound, not at N d + 1."""

    @pytest.mark.parametrize("prime", [*SPECIALIZATION_PRIMES, 13])
    def test_graded_stacks_match_full_sampling_oracle(self, prime):
        rng = np.random.default_rng(prime % 997)
        below = 0
        for trial in range(40):
            n, d = int(rng.integers(1, 9)), int(rng.integers(1, 4))
            stack = _graded_stack(rng, n, d, prime if trial % 2 else 3)
            if trial % 3 == 1:  # row-graded instead
                stack = stack.transpose(0, 2, 1).copy()
            if n * d + 1 > prime:
                continue
            below += _degree_bound(stack.astype(np.int64)) < n * d
            assert det_modular([stack], [prime])[0] == zp_det_poly(stack, prime)
        assert below >= 10

    @pytest.mark.parametrize("axis", [1, 2])
    def test_all_zero_row_or_column_gives_zero_polynomial(self, axis):
        rng = np.random.default_rng(10 + axis)
        prime = SPECIALIZATION_PRIMES[0]
        for n in (1, 3, 6):
            stack = _graded_stack(rng, n, 3, prime)
            index = [slice(None)] * 3
            index[axis] = int(rng.integers(n))
            stack[tuple(index)] = 0
            assert det_modular([stack], [prime])[0] == [] == zp_det_poly(stack, prime)

    def test_dropped_top_slice(self):
        rng = np.random.default_rng(12)
        prime = SPECIALIZATION_PRIMES[1]
        for n in (2, 4, 7):
            stack = np.concatenate(
                [_graded_stack(rng, n, 2, prime), np.zeros((2, n, n), dtype=object)]
            )
            got = det_modular([stack], [prime])[0]
            assert got == zp_det_poly(stack, prime)
            assert got == det_modular([stack[:3]], [prime])[0]

    def test_two_prime_batch_equals_separate_calls(self):
        rng = np.random.default_rng(13)
        stacks, primes = [], []
        for d, prime in zip((3, 1, 2, 2), SPECIALIZATION_PRIMES * 2):
            stacks.append(_graded_stack(rng, 5, d, prime))
            primes.append(prime)
        stacks[1][:, 2] = 0  # a zero polynomial among them
        separate = [det_modular([s], [p])[0] for s, p in zip(stacks, primes)]
        assert det_modular(stacks, primes) == separate
        assert separate == [zp_det_poly(s, p) for s, p in zip(stacks, primes)]
        assert separate[1] == [] and all(separate[:1] + separate[2:])

    def test_field_too_small_is_raised_by_the_bound(self):
        # 4 x 4 of degree 2 has N d + 1 = 9 > 7 points, but only columns 0
        # and 1 carry x: the bound is 2, three points suffice over Z_7
        rng = np.random.default_rng(14)
        stack = rng.integers(-5, 6, size=(3, 4, 4))
        stack[1:, :, 2:] = 0
        stack[2] = 0
        stack[1, 0, :2] = [1, 2]  # keep degree 1 in columns 0 and 1
        exact = [c % 7 for c in det_poly_exact(stack.astype(float))]
        while exact and exact[-1] == 0:
            exact.pop()
        assert det_modular([_to_modular(stack, 7)], [7])[0] == exact
        full = _to_modular(rng.integers(1, 6, size=(3, 4, 4)), 7)  # bound 8
        with pytest.raises(ValueError, match="field too small"):
            det_modular([full], [7])
        # a batch samples every stack at its largest count
        with pytest.raises(ValueError, match="field too small"):
            det_modular([_to_modular(stack, 7), full], [7, SPECIALIZATION_PRIMES[0]])

    @pytest.mark.parametrize("pid, bound", [("conic", 5), ("five_point", 10)])
    def test_problem_stacks_bound_below_n_d(self, pid, bound):
        # k = 4 for conic and 10 for five_point, against N d = 8 and 30
        prime = SPECIALIZATION_PRIMES[0]
        stack = get_problem(pid).modular_matrix(np.random.default_rng(15), prime)
        assert _degree_bound(stack.astype(np.int64)) == bound
        assert bound < stack.shape[1] * (len(stack) - 1)


class _Worst:
    """A stand-in rng whose every residue draw is p - 1."""

    def integers(self, low, high, size):
        return np.full(size, high - 1)


class TestFivePointModularMatrix:
    @staticmethod
    def _python_int_oracle(e_basis, p):
        # the whole expansion on Python ints, then one reduction
        return five_point.build(five_point.constraint_vectors(e_basis.astype(object))) % p

    @pytest.mark.parametrize("prime", SPECIALIZATION_PRIMES)
    def test_residue_scatter_matches_python_int_oracle(self, prime):
        draws, replay = np.random.default_rng(31), np.random.default_rng(31)
        for _ in range(50):
            got = five_point.modular_matrix(draws, prime)
            e_basis = replay.integers(1, prime, size=(4, 3, 3))
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, self._python_int_oracle(e_basis, prime))

    @pytest.mark.parametrize("prime", SPECIALIZATION_PRIMES)
    def test_worst_case_draw(self, prime):
        # E entries all -1 give trace-constraint forms of -9, residue p - 9,
        # so the scatter's fullest slots sum six residues close to p
        got = five_point.modular_matrix(_Worst(), prime)
        want = self._python_int_oracle(np.full((4, 3, 3), prime - 1), prime)
        np.testing.assert_array_equal(got, want)
        # the int64 scatter sums at most this many residues below p per slot
        assert five_point._SCATTER.sum(axis=0).max() * (prime - 1) < 2**63

    @pytest.mark.parametrize("prime", SPECIALIZATION_PRIMES)
    def test_residue_triple_forms_match_python_ints(self, prime):
        # every product of two residues is reduced before a contraction
        # sums it; a missed reduction overflows int64 without a warning
        rng = np.random.default_rng(33)
        alternating = np.where(np.arange(36).reshape(4, 3, 3) % 2, 1, prime - 1)
        extremes = [np.full((4, 3, 3), prime - 1), alternating, np.ones((4, 3, 3), dtype=np.int64)]
        for e_basis in extremes + [rng.integers(1, prime, size=(4, 3, 3)) for _ in range(50)]:
            got = five_point._triple_forms(e_basis, prime) % prime
            assert got.dtype == np.int64
            want = five_point._triple_forms(e_basis.astype(object)) % prime
            np.testing.assert_array_equal(got, want)
        # a product of two residues, and a contraction of 9 reduced ones
        assert (prime - 1) ** 2 < 2**63 and 9 * (prime - 1) < 2**63


class TestConicModularMatrix:
    @pytest.mark.parametrize("prime", SPECIALIZATION_PRIMES)
    def test_int64_build_matches_python_int_oracle(self, prime):
        # the build on Python ints, then one reduction; the worst draw
        # doubles residues of p - 1 in the off-diagonal entries
        draws, replay = np.random.default_rng(32), np.random.default_rng(32)
        for rng, oracle_rng in [(_Worst(), _Worst())] + [(draws, replay)] * 20:
            got = conic.modular_matrix(rng, prime)
            c1, c2 = oracle_rng.integers(1, prime, size=(2, 3, 3)).astype(object)
            rows = np.array([conic._conic_row(c1), conic._conic_row(c2)], dtype=object)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, conic.build(rows) % prime)


class TestDetectDegree:
    def test_toy_diagonal(self):
        builder = _ToyBuilder(_diag_x_stack(3))
        assert detect_degree(specialize(builder, 0)) == 3

    def test_conic_degree_four(self):
        assert detect_degree(specialize(get_problem("conic"), 0)) == 4

    def test_conic_degree_matches_exact_oracle(self):
        # integer conic pairs through the problem's own build
        rng = np.random.default_rng(2)
        for _ in range(5):
            c1, c2 = rng.integers(1, 9, size=(2, 3, 3)).astype(float)
            rows = np.array([conic._conic_row(c1), conic._conic_row(c2)])
            assert len(det_poly_exact(conic.build(rows))) - 1 == 4

    def test_five_point_degree_ten(self):
        assert detect_degree(specialize(get_problem("five_point"), 0)) == 10

    def test_five_point_degree_matches_exact_oracle(self):
        # generic integer stand-ins for the nullspace basis share the
        # constraint structure, so the exact determinant fixes the degree
        rng = np.random.default_rng(3)
        prime = SPECIALIZATION_PRIMES[0]
        got = det_modular([five_point.modular_matrix(rng, prime)], [prime])[0]
        assert len(got) - 1 == 10

    def test_specializations_disagree_rejected(self):
        # diag(x, 1) over the first prime, diag(x, x) over the second
        class _Flaky(_ToyBuilder):
            def modular_matrix(self, rng, p):
                stack = np.zeros((2, 2, 2), dtype=int)
                stack[1, 0, 0] = 1
                stack[0 if p == SPECIALIZATION_PRIMES[0] else 1, 1, 1] = 1
                return _to_modular(stack, p)

        flaky = _Flaky(_diag_x_stack(2))
        with pytest.raises(TemplateError, match="disagree on the degree"):
            detect_degree(specialize(flaky, 0))


class _Degenerate(_ToyBuilder):
    """Random 2 x 2 data whose determinant is constant for the first draws.

    ``constant[i]`` draws of prime i have no x term; every later draw has
    x in entry (0, 0).
    """

    def __init__(self, constant):
        super().__init__(_diag_x_stack(2))
        self.constant = dict(zip(SPECIALIZATION_PRIMES, constant))
        self.draws = dict.fromkeys(SPECIALIZATION_PRIMES, 0)

    def draw(self, rng, p, number):
        stack = np.zeros((2, 2, 2), dtype=object)
        stack[0] = rng.integers(1, 50, size=(2, 2))
        stack[1, 0, 0] = int(number > self.constant[p])
        return stack

    def modular_matrix(self, rng, p):
        self.draws[p] += 1
        return self.draw(rng, p, self.draws[p])


class TestRedraws:
    """Each prime redraws from its own rng while its determinant is constant."""

    def test_draws_match_a_sequential_replay(self):
        builder = _Degenerate((3, 0))
        specs = specialize(builder, 5)
        assert builder.draws == dict(zip(SPECIALIZATION_PRIMES, (4, 1)))
        children = np.random.SeedSequence(5).spawn(2)
        for spec, child in zip(specs, children):
            rng = np.random.default_rng(child)
            for number in range(1, builder.draws[spec.p] + 1):
                stack = builder.draw(rng, spec.p, number)
            assert np.array_equal(spec.stack, stack)
            assert len(spec.det) == 2

    def test_twenty_draws_at_most(self):
        builder = _Degenerate((0, 19))
        specialize(builder, 0)  # the twentieth draw of the second prime
        assert builder.draws[SPECIALIZATION_PRIMES[1]] == 20
        builder = _Degenerate((20, 0))
        with pytest.raises(TemplateError, match="determinant is constant"):
            specialize(builder, 0)
        assert builder.draws[SPECIALIZATION_PRIMES[0]] == 20


class TestFindDeletionPair:
    def test_swap_matrix_pairs(self):
        # [[x, 1], [1, x]]: minor(0,0) = x, gcd(x^2 - 1, x) constant, so
        # (0,0) is a valid deletion; the scan prefers the low-degree column
        stack = np.array([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]])
        builder = _ToyBuilder(stack)
        assert _deletion(builder) == (0, 1)
        prime = SPECIALIZATION_PRIMES[0]
        mm = builder.modular_matrix(None, prime)
        full = det_modular([mm], [prime])[0]  # x^2 - 1
        minor = det_modular([_bordered(mm, 0, 0)], [prime])[0]  # x
        assert len(_zp_gcd(full, minor, prime)) == 1

    def test_shared_factor_rejected(self):
        # diag(x-1, x-2): every minor shares a factor with the determinant
        stack = np.zeros((2, 2, 2))
        stack[0] = np.diag([-1.0, -2.0])
        stack[1] = np.eye(2)
        with pytest.raises(TemplateError, match="no valid deletion pair"):
            _deletion(_ToyBuilder(stack))

    def test_generic_matrix_accepted_immediately(self):
        rng = np.random.default_rng(4)
        stack = rng.integers(1, 9, size=(3, 5, 5)).astype(float)
        # generic minors share no factor: the first scanned pair wins,
        # which is row 0 of the lowest-degree basis column
        assert _deletion(_ToyBuilder(stack)) == (0, 4)
        # exact oracle over Q: both the scanned and the (0, 0) minor are
        # coprime with the determinant
        full = det_poly_exact(stack)
        for cols in (slice(1, None), slice(0, 4)):
            minor = det_poly_exact(stack[:, 1:, cols])
            assert _exact_gcd_degree(full, minor) == 0

    def test_row_dependency_pairs_rejected(self):
        # row 0 equals x * row 1 in the first two columns: det picks up the
        # factor (c - x d), shared with every minor that keeps rows 0 and 1
        prime = SPECIALIZATION_PRIMES[0]
        rng = np.random.default_rng(5)
        a, b, c, d, e, f, g = (int(v) for v in rng.integers(2, 50, size=7))
        mm = np.array(
            [
                [[0, 0, c], [a, b, d], [e, f, g]],  # x^0
                [[a, b, 0], [0, 0, 0], [0, 0, 0]],  # x^1
            ],
            dtype=object,
        )

        def coprime(i, j):
            minor = det_modular([_bordered(mm, i, j)], [prime])[0]
            return bool(minor) and len(_zp_gcd(full, minor, prime)) == 1

        full = det_modular([mm], [prime])[0]
        assert len(full) - 1 == 1
        for j in range(3):
            assert not coprime(2, j)  # keeps both dependent rows
        # deleting row 0 or 1 breaks the dependency for some column
        assert any(coprime(i, j) for i in (0, 1) for j in range(3))

    def test_deterministic(self):
        problem = get_problem("conic")
        assert _deletion(problem, 3) == _deletion(problem, 3)


class TestBordered:
    """A bordered stack's determinant is its (i, j) minor times (-1)^(i+j)."""

    @pytest.mark.parametrize("pid", ["conic", "five_point"])
    def test_every_pair_matches_the_deleted_minor(self, pid):
        for spec in specialize(get_problem(pid), 0):
            n = spec.stack.shape[1]
            pairs = [(i, j) for i in range(n) for j in range(n)]
            bordered = [_bordered(spec.stack, i, j) for i, j in pairs]
            got = det_modular(bordered, [spec.p] * len(pairs))
            for (i, j), stack, poly in zip(pairs, bordered, got):
                minor = np.delete(np.delete(spec.stack, i, axis=1), j, axis=2)
                want = zp_det_poly(minor.astype(object), spec.p)
                if (i + j) % 2:
                    want = [spec.p - c for c in want]
                assert poly == want
                # so a bordered minor never raises its batch's sample count
                assert _degree_bound(stack) == _degree_bound(minor)
                assert _degree_bound(stack) <= _degree_bound(spec.stack)


def _reference_deletion_pair(basis, specializations):
    """The deletion-pair scan on (N-1) x (N-1) minors cut by ``np.delete``."""
    n = len(basis)
    columns = sorted(range(n), key=lambda j: (sum(basis[j]), j))
    primes = [s.p for s in specializations]
    for j in columns:
        for i in range(n):
            minors = det_modular(
                [np.delete(np.delete(s.stack, i, axis=1), j, axis=2) for s in specializations],
                primes,
            )
            if all(
                minor and len(_zp_gcd(s.det, minor, s.p)) == 1
                for s, minor in zip(specializations, minors)
            ):
                return (i, j)
    raise TemplateError("no valid deletion pair")


class TestDecisionsMatchTheDeletedMinorScan:
    """Bordered minors, carried or computed late, pick the reference's pair."""

    def test_first_scanned_pair_fails(self):
        # column 0 is (x - 1) times constants, so det and every minor that
        # keeps column 0 share x - 1; the scan reaches column 0 last
        rng = np.random.default_rng(6)
        stack = rng.integers(1, 9, size=(2, 3, 3)).astype(float)
        scale = rng.integers(1, 9, size=3)
        stack[0, :, 0], stack[1, :, 0] = -scale, scale
        builder = _ToyBuilder(stack)
        specs = specialize(builder, 0)
        assert list(specs[0].minors) == [(0, 2)]  # the first scanned pair
        got = find_deletion_pair(builder.basis, specs)
        assert got == _reference_deletion_pair(builder.basis, specs) == (0, 0)

    def test_redraws(self):
        builder = _Degenerate((3, 0))
        specs = specialize(builder, 5)
        assert builder.draws == dict(zip(SPECIALIZATION_PRIMES, (4, 1)))
        for spec in specs:  # each carries the minor of its own last draw
            ((pair, minor),) = spec.minors.items()
            assert minor == det_modular([_bordered(spec.stack, *pair)], [spec.p])[0]
        got = find_deletion_pair(builder.basis, specs)
        assert got == _reference_deletion_pair(builder.basis, specs)

    @pytest.mark.parametrize("pid", ["conic", "five_point"])
    def test_problem_seeds(self, pid):
        problem = get_problem(pid)
        for seed in range(10):
            specs = specialize(problem, seed)
            got = find_deletion_pair(problem.basis, specs)
            assert got == _reference_deletion_pair(problem.basis, specs)


class TestOneEliminationPerBuild:
    """``build_template`` makes one ``det_modular`` call, and one more per redraw."""

    @staticmethod
    def _spy(monkeypatch):
        batches = []  # the stack count of each call

        def spy(stacks, primes):
            batches.append(len(stacks))
            return det_modular(stacks, primes)

        monkeypatch.setattr(offline, "det_modular", spy)
        return batches

    @pytest.mark.parametrize("pid", ["conic", "five_point"])
    def test_one_call_per_build(self, monkeypatch, pid):
        batches = self._spy(monkeypatch)
        for seed in range(5):
            batches.clear()
            build_template(get_problem(pid), seed)
            assert batches == [4]  # both determinants and both first minors

    @pytest.mark.parametrize("constant", [(3, 0), (1, 2)])
    def test_one_more_call_per_redraw(self, monkeypatch, constant):
        batches = self._spy(monkeypatch)
        builder = _Degenerate(constant)
        specs = specialize(builder, 5)
        assert batches == [4] + [2] * sum(constant)
        # the first pair passes on the minors the specializations carry
        find_deletion_pair(builder.basis, specs)
        assert batches == [4] + [2] * sum(constant)


class TestSelectRecoveryPairs:
    def test_documented_small_basis(self):
        # basis (1, y, y^2, x, xy) over (x, y), z hidden, constant column
        # deleted: x must come from (xy, y), y ties at total degree 3 and
        # resolves lexicographically to (y^2, y)
        basis = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1))
        assert select_recovery_pairs(basis, 0) == ((4, 1), (2, 1))

    def test_insufficient_basis(self):
        basis = ((0,), (1,))
        with pytest.raises(TemplateError, match="basis insufficient"):
            select_recovery_pairs(basis, 0)

    @pytest.mark.parametrize("pid", ["conic", "five_point"])
    def test_lookup_matches_the_pair_scan(self, pid):
        # the O(N^2) scan the lookup replaced, with the hidden variable
        # last: same pairs for every deleted column of both bases
        def scan(basis, deleted_col):
            basis = [tuple(e) for e in basis]
            pairs = []
            for w in range(len(basis[0])):
                unit = tuple(int(q == w) for q in range(len(basis[0])))
                candidates = [
                    (sum(basis[j1]) + sum(basis[j2]), j1, j2)
                    for j1 in range(len(basis))
                    for j2 in range(len(basis))
                    if j1 != deleted_col
                    and j2 != deleted_col
                    and tuple(a - b for a, b in zip(basis[j1], basis[j2])) == unit
                ]
                _, j1, j2 = min(candidates)
                pairs.append((j1, j2))
            return tuple(pairs)

        problem = get_problem(pid)
        for deleted in range(len(problem.basis)):
            assert select_recovery_pairs(problem.basis, deleted) == scan(problem.basis, deleted)

    def test_five_point_basis_covers_all_deletions(self):
        problem = get_problem("five_point")
        for deleted in range(10):
            pairs = select_recovery_pairs(problem.basis, deleted)
            assert len(pairs) == 2
            for w, (j1, j2) in enumerate(pairs):
                diff = tuple(
                    a - b for a, b in zip(problem.basis[j1], problem.basis[j2])
                )
                assert diff == ((1, 0) if w == 0 else (0, 1))
                assert deleted not in (j1, j2)


class TestTemplates:
    def test_conic_template(self, conic_template):
        problem = get_problem("conic")
        assert (len(problem.basis), conic_template.k, problem.expected_solutions) == (4, 4, 4)

    def test_five_point_template(self, five_point_template):
        problem = get_problem("five_point")
        size, r = len(problem.basis), problem.expected_solutions
        assert (size, five_point_template.k, r) == (10, 10, 10)

    @pytest.mark.parametrize(
        "pid, k, deletion, recovery",
        [
            ("conic", 4, [0, 3], ((1, 2),)),
            ("five_point", 10, [0, 9], ((4, 7), (5, 8))),
        ],
    )
    def test_golden_templates(self, pid, k, deletion, recovery):
        # the online stage replays these; a refactor of the offline stage
        # must not move them for any seed.  The recovery pairs, derived
        # from the problem, are those the earlier format wrote.
        problem = get_problem(pid)
        for seed in range(5):
            template = build_template(problem, seed)
            obj = json.loads(template_to_json(template))
            assert (obj["k"], obj["deletion"]) == (k, deletion)
            assert select_recovery_pairs(problem.basis, template.deletion_pair[1]) == recovery

    def test_json_holds_only_the_offline_decisions(self, conic_template):
        obj = json.loads(template_to_json(conic_template))
        assert obj == {"problem": "conic", "k": 4, "deletion": [0, 3]}

    def test_build_deterministic(self):
        problem = get_problem("conic")
        a = template_to_json(build_template(problem, 3))
        b = template_to_json(build_template(problem, 3))
        assert a == b

    def test_json_round_trip(self, conic_template, five_point_template):
        for t in (conic_template, five_point_template):
            back = template_from_json(template_to_json(t))
            assert back == t

    def test_pickle_carries_the_compiled_plan_not_the_problem(self, conic_template):
        # run_bench pickles the template to its workers, and a Problem may
        # hold closures: the template keeps only its id, ints and arrays
        rules = conic_template.rules
        back = pickle.loads(pickle.dumps(conic_template))
        assert back == conic_template and "rules" in vars(back)
        assert np.array_equal(back.rules, rules)
        assert not any(isinstance(v, Problem) for v in vars(back).values())

    def test_toy_serialization_round_trip(self, toy_template):
        back = template_from_json(template_to_json(toy_template))
        assert back == toy_template and np.array_equal(back.rules, toy_template.rules)

    def test_invariant_validation(self):
        for problem_id, k, deletion in [
            ("conic", 3, (0, 3)),  # r = 4 > k
            ("conic", 4, (0, 4)),  # past the 4-column basis
            ("conic", 4, (-1, 3)),
            ("conic", 4, (0, 1, 2)),
            ("conic", True, (0, 3)),  # a JSON true is not a number
            ("conic", 4, (0, 3.0)),
            (["conic"], 4, (0, 3)),
            ("nonesuch", 4, (0, 3)),  # unknown problem
        ]:
            with pytest.raises(ValueError):
                SolverTemplate(problem_id, k, deletion)


class TestSolutionCountOracles:
    """Independent verification of the hard-coded per-problem solution counts."""

    def test_conic_r_by_grid_newton(self):
        # brute force: Newton from a coarse grid must find exactly the four
        # prescribed real intersections, matching r = 4
        problem = get_problem("conic")
        for seed in (0, 1, 2):
            data, gts = problem.generate_instance(np.random.default_rng(seed))
            coeffs = problem.original_equations(data)
            exps = conic.MONOMIALS

            def value_and_jacobian(pt):
                # d/dx_k x^e = e_k x^(e - unit_k), from the dense exponent table
                jac = np.empty((2, 2))
                for k in range(2):
                    lowered = np.maximum(exps - np.eye(2, dtype=int)[k], 0)
                    monomials = exps[:, k] * np.prod(pt**lowered, axis=1)
                    jac[:, k] = coeffs @ monomials
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
        from resultant_solve.recover import cramer_at
        from resultant_solve.rootfind import roots
        from resultant_solve.spectral import batched_eval, recover_coefficients, trim

        problem = get_problem(pid)
        template = build_template(problem, 7)
        for seed in (0, 1, 2):
            data, _ = problem.generate_instance(np.random.default_rng([71, seed]))
            stack = problem.build(problem.original_equations(data))
            samples = det_complex(batched_eval(stack, template.k))
            det_poly = trim(recover_coefficients(samples))
            assert len(det_poly) - 1 == template.k
            hidden = roots(det_poly)
            values, _ = cramer_at(evaluate_at(stack, hidden), template.rules[0])
            for root, recovered in zip(hidden, values):
                point = [*recovered, root]
                residual = np.max(np.abs(equation_oracles.values(pid, data, point)))
                norm = np.linalg.norm(point)
                assert residual / max(norm, 1.0) < 1e-6
