"""Once-per-problem template construction.

Everything here runs rarely and must be deterministic and exact.  The
problem matrix is instantiated twice over Z_p (random data residues,
distinct primes, hidden variable kept symbolic), and both stages read
those two specializations:

* the determinant degree k is the common degree of their exact
  determinants,
* the row/column deletion pair is validated by an exact coprimality test
  in Z_p[x]: the full determinant and the deleted-pair minor must have a
  constant GCD,

and the two decisions are frozen, with the problem's id, into a
JSON-serializable SolverTemplate that the online stage replays on every
instance.  Everything else the online stage needs (the variables, the
basis and with it N, the solution count r) is the problem's, read through
``get_problem``.  The hidden variable is the problem's last unknown, so
the others are recovered in order.  What the online stage derives from
the template and its problem (the basis exponents, and the Cramer
rules: the deletion pair and its alternates, each with the recovery
pairs that ``select_recovery_pairs`` picks from the basis for its
column, as one gather index) is compiled once, into cached properties
of the template.

Floating-point GCDs are ill-defined and rational arithmetic blows up, so
the coprimality test works modulo two fixed 31-bit primes; a pair is
accepted only if its GCD is constant in both independent specializations,
which bounds the false-accept probability below ~deg^2/p^2.

Determinants in Z_p[x] (``det_modular``) are sampled and interpolated,
a batch of matrices at a time, each with its own prime.  A determinant
has degree at most the sum over columns of each column's largest entry
degree, and likewise over rows; the smaller sum D is 10 for
``five_point`` and 5 for ``conic``, against N d = 30 and 8, so D + 1
points fix it.  Every matrix of the batch is evaluated at the points
0..P-1, P the largest D + 1, in ``int64``; one Gaussian elimination
without division in its loop runs over all those matrices at once, each
reduced modulo its own prime; and Newton divided differences give every
polynomial's coefficients in O(P^2).  A minor enters a batch in bordered
form (``_bordered``): the N x N stack with row i and column j replaced by
unit vectors, whose determinant is the minor up to sign, which the GCD
test does not see.  Its degree sums never exceed the full stack's, so it
does not raise P.  The first scanned pair's minors ride in
``specialize``'s own call, beside the determinants: the first draws of
both primes are one ``det_modular`` call of four stacks, and a template
build whose first pair passes, as it does on generic data, makes no
other.  Residue products must fit in ``int64``, so p is limited to
(p-1)^2 < 2^63; the 31-bit primes are far inside.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .problems import get_problem

SPECIALIZATION_PRIMES = (2147483647, 2147483629)


class TemplateError(RuntimeError):
    """Offline construction failed; the template is rejected."""


# --- Z_p[x] arithmetic -------------------------------------------------------
#
# Polynomials are lists of ints in [0, p), ascending degree, no trailing
# zeros; [] is the zero polynomial.


def _zp_trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _zp_divmod(a: list, b: list, p: int) -> tuple[list, list]:
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    rem = list(a)
    if len(rem) < len(b):
        return [], _zp_trim(rem)
    inv_lead = pow(b[-1], -1, p)
    q = [0] * (len(rem) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = (rem[k + len(b) - 1] * inv_lead) % p
        q[k] = c
        if c:
            for j, bj in enumerate(b):
                rem[k + j] = (rem[k + j] - c * bj) % p
    return _zp_trim(q), _zp_trim(rem)


def _zp_gcd(a: list, b: list, p: int) -> list:
    """Monic Euclidean GCD in Z_p[x]."""
    a, b = _zp_trim(list(a)), _zp_trim(list(b))
    while b:
        a, b = b, _zp_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


def _zp_dets(m: np.ndarray, p: np.ndarray) -> list:
    """Determinants of a (M, n, n) ``int64`` stack of residues, matrix i mod p[i].

    Gaussian elimination over the whole stack at once, with no division
    in the loop: the row update  row_i <- pivot * row_i - a_ik * row_k
    scales det by the pivot once per updated row, so per matrix it keeps
    the product of the pivots and of those scalings  pivot^(n-k-1)  and
    divides once at the end.  ``p`` is the (M,) ``int64`` array of moduli.
    ``m`` is overwritten.
    """
    count, n, _ = m.shape
    negated = np.zeros(count, dtype=bool)  # odd number of row swaps
    pivots = np.ones(count, dtype=np.int64)
    scalings = np.ones(count, dtype=np.int64)
    for k in range(n):
        # first nonzero row at or below k; a zero column keeps argmax at k
        row = k + np.argmax(m[:, k:, k] != 0, axis=1)
        swap = np.flatnonzero(row != k)
        if swap.size:
            m[swap, k], m[swap, row[swap]] = m[swap, row[swap]], m[swap, k]
            negated[swap] ^= True
        pivot = m[:, k, k]
        pivots = pivots * pivot % p
        if k + 1 < n:
            # pivot_j enters once for each later step j..n-2: pivot_j^(n-j-1)
            scalings = scalings * pivots % p
            m[:, k + 1 :, k + 1 :] = (
                pivot[:, None, None] * m[:, k + 1 :, k + 1 :]
                - m[:, k + 1 :, k, None] * m[:, k, None, k + 1 :]
            ) % p[:, None, None]
    dets = np.where(negated, (p - pivots) % p, pivots).tolist()
    # a zero pivot zeroes the pivot product, and with it the determinant
    return [
        v * pow(s, -1, q) % q if v else 0
        for v, s, q in zip(dets, scalings.tolist(), p.tolist())
    ]


def _zp_newton_interpolate(values: np.ndarray, primes: np.ndarray) -> list:
    """Row s: the polynomial of degree < P through (t, values[s, t]) in Z_{primes[s]}[x].

    ``values`` is (S, P) ``int64``, sampled at t = 0..P-1.  Newton divided
    differences (on consecutive integers the level-l denominators are all
    l), then Horner expansion of the Newton form into monomial
    coefficients: O(P^2) residue operations per row, every row at once.
    """
    c = values.copy()
    p = primes[:, None]
    count = c.shape[1]
    for level in range(1, count):
        inverse = np.array([pow(level, -1, q) for q in primes.tolist()])[:, None]
        c[:, level:] = (c[:, level:] - c[:, level - 1 : -1]) % p * inverse % p
    poly = np.zeros_like(c)
    poly[:, 0] = c[:, -1]
    for t in range(count - 2, -1, -1):  # poly <- poly * (x - t) + c[t]
        poly[:, 1:] = (poly[:, :-1] - t * poly[:, 1:]) % p
        poly[:, 0] = (c[:, t] - t * poly[:, 0]) % primes
    return [_zp_trim(row) for row in poly.tolist()]


def _degree_bound(coeffs: np.ndarray) -> np.ndarray:
    """Bounds on deg det of ``int64`` (..., d+1, N, N) stacks, from their entry degrees.

    Each term of the Leibniz expansion takes one entry from every column
    (and every row), so the determinant's degree is at most the sum over
    columns of their largest entry degree, and likewise over rows.  Zero
    entries count as degree 0, which only loosens the bound.  One bound
    per stack, in the shape of the leading axes.
    """
    slices = np.arange(coeffs.shape[-3])[:, None, None]
    degrees = (slices * (coeffs != 0)).max(axis=-3)
    return np.minimum(degrees.max(axis=-2).sum(axis=-1), degrees.max(axis=-1).sum(axis=-1))


def det_modular(stacks: list, primes: list) -> list:
    """Exact determinant polynomials of Z_p matrix polynomials, one per stack.

    Each of ``stacks`` is a (d+1, N, N) coefficient stack, the layout
    ``build`` returns, of residues in [0, p) for its own prime p in
    ``primes``, as ``int64`` or as an ``object`` array of Python ints; all
    must share N, not d, and a bordered minor (``_bordered``) is one more
    N x N stack.  Mirrors the online pipeline structurally.  A stack's
    determinant has degree at most D, the smaller of the sums of its column
    and its row degrees, read from the non-zero entries (``_degree_bound``,
    one pass over the padded batch; all-zero top slices add nothing), so
    D + 1 samples fix it.  The batch evaluates every stack at the
    P = max(D + 1) points 0..P-1 in one matrix Horner pass, takes all the
    scalar determinants in one division-free elimination, each matrix
    modulo its own prime, and interpolates every polynomial by Newton in
    O(P^2).  P must not exceed any prime, and the work is in ``int64``, so
    each p must keep (p-1)^2 within ``int64``.  An empty batch gives [].
    """
    if len(stacks) != len(primes):
        raise ValueError(f"{len(stacks)} stacks but {len(primes)} primes")
    if not stacks:
        return []
    sizes = sorted({stack.shape[1:] for stack in stacks})
    if len(sizes) != 1:
        raise ValueError(f"stacks of one batch must share N, got sizes {sizes}")
    for p in primes:
        if (p - 1) ** 2 > np.iinfo(np.int64).max:
            raise ValueError(f"prime {p} too large for int64 residue products")
    # zero top slices pad every stack to the longest; they change no value
    padded = np.zeros((len(stacks), max(map(len, stacks))) + sizes[0], np.int64)
    for s, stack in enumerate(stacks):
        padded[s, : len(stack)] = stack
    count = int(_degree_bound(padded).max()) + 1
    if count > min(primes):
        raise ValueError("field too small for interpolation")
    moduli = np.array(primes, dtype=np.int64)
    p = moduli[:, None, None, None]
    points = np.arange(count, dtype=np.int64)[:, None, None]
    m = np.repeat(padded[:, -1:], count, axis=1)
    for a in padded[:, -2::-1].swapaxes(0, 1):
        m = (m * points + a[:, None]) % p
    n = m.shape[-1]
    dets = _zp_dets(m.reshape(-1, n, n), np.repeat(moduli, count))
    return _zp_newton_interpolate(np.array(dets, dtype=np.int64).reshape(-1, count), moduli)


def _bordered(stack: np.ndarray, i: int, j: int) -> np.ndarray:
    """The stack with row i and column j zeroed and a 1 at [0, i, j].

    Expanding its determinant along row i leaves (-1)^(i+j) times the
    (i, j) minor, in an N x N stack that batches with the full ones.
    Zeroing column j too gives it the minor's degree bound, which never
    exceeds the stack's.
    """
    bordered = stack.copy()
    bordered[:, i] = 0
    bordered[:, :, j] = 0
    bordered[0, i, j] = 1
    return bordered


# --- template construction ---------------------------------------------------


@dataclass(frozen=True)
class SolverTemplate:
    """What the offline stage decides for one problem: k and the deletion pair.

    The problem, registered under ``problem_id``, supplies everything else:
    its variables, its basis (N columns) and its solution count r.  A
    template is checked against it when constructed.
    """

    problem_id: str
    k: int
    deletion_pair: tuple[int, int]

    def __post_init__(self):
        if not isinstance(self.problem_id, str):
            raise ValueError("template problem must be a string")
        problem = get_problem(self.problem_id)
        # bool is an int subclass, but a JSON true is not an index
        numbers = (self.k, *self.deletion_pair)
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in numbers):
            raise ValueError("template degree and deletion pair must be integers")
        if self.k < problem.expected_solutions:
            raise ValueError(f"need k >= r = {problem.expected_solutions}, got k={self.k}")
        size = len(problem.basis)
        if len(self.deletion_pair) != 2 or not all(0 <= v < size for v in self.deletion_pair):
            raise ValueError(f"deletion pair {self.deletion_pair} out of range")

    # What the online stage derives from the template and its problem,
    # compiled on first use and kept with it (a frozen dataclass still has
    # a __dict__).  Only plain values and arrays are kept, never the
    # Problem: the template is pickled to worker processes, and a Problem
    # may hold closures.

    @cached_property
    def exponents(self) -> np.ndarray:
        """The (N, n-1) basis exponent array."""
        return np.asarray(get_problem(self.problem_id).basis)

    @cached_property
    def rules(self) -> np.ndarray:
        """Every Cramer rule, as one (P, 2W, N-1, N-1) gather index into [M | -M].

        Rule 0 is the template's deletion pair; rules 1.. are every other
        pair (i, j), in row-major order, whose column j leaves each
        variable recoverable (``select_recovery_pairs``).  The offline pair
        is validated on generic data, but a special instance can zero it
        out structurally (for example when the deleted column has support
        only in the deleted row); the alternates keep such roots alive.
        Rule (i, j) deletes row i and column j of the (N, 2N) matrix
        [M | -M] and, for each variable before the hidden last one, in
        order, the numerator then the denominator of its recovery pair
        (entry w of ``select_recovery_pairs``' tuple), replaces that
        pair's column by column N + j, the right-hand side -M[:, j]
        without row i.
        """
        problem = get_problem(self.problem_id)
        size = len(problem.basis)
        index = np.arange(size)
        columns = {}  # j -> (2W, N-1) column index of the submatrices
        for j in range(size):
            try:
                pairs = select_recovery_pairs(problem.basis, j)
            except TemplateError:
                if j == self.deletion_pair[1]:
                    raise
                continue
            kept = index[index != j]
            replaced = np.array([c for pair in pairs for c in pair])
            columns[j] = np.where(kept == replaced[:, None], size + j, kept)
        order = [self.deletion_pair] + [
            (i, j) for i in range(size) for j in columns if (i, j) != self.deletion_pair
        ]
        rows = np.array([index[index != i] for i, _ in order])
        cols = np.array([columns[j] for _, j in order])
        return rows[:, None, :, None] * (2 * size) + cols[:, :, None, :]


def template_to_json(template: SolverTemplate) -> str:
    obj = {
        "problem": template.problem_id,
        "k": template.k,
        "deletion": list(template.deletion_pair),
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def template_from_json(text: str) -> SolverTemplate:
    """The template a ``template_to_json`` text holds.

    Only the keys ``problem``, ``k`` and ``deletion`` are read, so a file
    of the earlier format, which also copied the problem's variables,
    basis, N, r and recovery pairs, loads too; those copies are ignored.
    """
    obj = json.loads(text)
    try:
        return SolverTemplate(
            problem_id=obj["problem"],
            k=obj["k"],
            deletion_pair=tuple(obj["deletion"]),
        )
    except KeyError as exc:
        raise ValueError(f"template lacks key {exc}") from None
    except TypeError as exc:  # a list for the object, a number for the pair
        raise ValueError(f"malformed template: {exc}") from None


class Specialization(NamedTuple):
    """One exact instance of a problem matrix over Z_p, with minors taken beside it."""

    stack: np.ndarray  # (d+1, N, N) int64 residues in [0, p)
    p: int
    det: list  # its determinant in Z_p[x], ascending, non-constant
    # (i, j) -> the (i, j) minor of this stack up to sign, as det_modular
    # gives it for _bordered(stack, i, j); specialize fills the first pair
    minors: dict


def _scan_order(basis):
    """Candidate deletion pairs (i, j), in the order the coprimality test tries them.

    Columns are scanned by ascending total degree of their basis monomial
    (rows ascending within a column): the deleted column's monomial divides
    the Cramer system, and the constant monomial never vanishes at a
    solution, so low-degree columns give far better-conditioned submatrices
    at the roots than an index-order scan.
    """
    n = len(basis)
    for j in sorted(range(n), key=lambda j: (sum(basis[j]), j)):
        for i in range(n):
            yield i, j


def specialize(problem, rng_seed: int) -> list:
    """Two independent specializations, one per prime in SPECIALIZATION_PRIMES.

    Each prime draws fresh residues through ``problem.modular_matrix`` from
    its own rng until the determinant is non-constant (at most 20 draws).
    Every draw's determinant shares one ``det_modular`` call with the
    bordered minor of the first pair in ``_scan_order``, which the
    specialization carries in ``minors``: the first draws of both primes
    are one call of four stacks, and each redraw is one call of two.
    """
    children = np.random.SeedSequence(rng_seed).spawn(2)
    rngs = [np.random.default_rng(child) for child in children]
    first = next(_scan_order(problem.basis))
    stacks = [problem.modular_matrix(rng, p) for rng, p in zip(rngs, SPECIALIZATION_PRIMES)]
    polys = det_modular(
        stacks + [_bordered(stack, *first) for stack in stacks], SPECIALIZATION_PRIMES * 2
    )
    specializations = []
    for rng, prime, stack, full_det, minor in zip(
        rngs, SPECIALIZATION_PRIMES, stacks, polys[:2], polys[2:]
    ):
        for _ in range(19):  # redraws: at most 20 draws in all
            if len(full_det) >= 2:
                break
            stack = problem.modular_matrix(rng, prime)
            full_det, minor = det_modular([stack, _bordered(stack, *first)], [prime] * 2)
        if len(full_det) < 2:
            raise TemplateError("degenerate template: modular determinant is constant")
        specializations.append(Specialization(stack, prime, full_det, {first: minor}))
    return specializations


def detect_degree(specializations: list) -> int:
    """Degree k of the determinant polynomial, read from the exact determinants.

    A random specialization can only lose degree (its leading coefficient
    vanishes mod p with probability about 1/p), so the specializations
    must agree.
    """
    degrees = [len(s.det) - 1 for s in specializations]
    if len(set(degrees)) != 1:
        raise TemplateError(
            f"degenerate template: specializations disagree on the degree {degrees}"
        )
    return degrees[0]


def find_deletion_pair(basis, specializations: list) -> tuple[int, int]:
    """First row/column pair in ``_scan_order`` passing the coprimality test.

    A pair is accepted when gcd(det M, det minor) is constant in every
    specialization.  A minor the specializations carry (the first pair's,
    from ``specialize``) is read; any later pair's, one per
    specialization, are bordered (``_bordered``) and share one
    ``det_modular`` call.
    """
    primes = [s.p for s in specializations]
    for pair in _scan_order(basis):
        minors = [s.minors.get(pair) for s in specializations]
        if None in minors:
            minors = det_modular([_bordered(s.stack, *pair) for s in specializations], primes)
        if all(
            minor and len(_zp_gcd(s.det, minor, s.p)) == 1
            for s, minor in zip(specializations, minors)
        ):
            return pair
    raise TemplateError("no valid deletion pair")


def select_recovery_pairs(basis, deleted_col: int) -> tuple:
    """Index pairs whose basis-monomial ratio isolates each unknown.

    For every variable w but the hidden last one, each column j2 surviving
    the column deletion pairs with the surviving column j1 whose monomial
    is basis[j2] times w, found by a lookup of the basis, so each variable
    costs O(N).  Among those pairs the lowest total degree wins, then the
    lexicographically first (j1, j2).  Entry w of the result is w's pair.
    """
    column = {}  # monomial -> its first surviving column
    for j, e in enumerate(basis):
        if j != deleted_col:
            column.setdefault(tuple(e), j)
    pairs = []
    for w in range(len(basis[0])):
        unit = tuple(int(q == w) for q in range(len(basis[0])))
        # basis[j1] is basis[j2] times w, so the pair's total degree is 2|e| + 1
        candidates = [
            (2 * sum(e) + 1, column[up], j2)
            for e, j2 in column.items()
            if (up := tuple(a + b for a, b in zip(e, unit))) in column
        ]
        if not candidates:
            raise TemplateError(
                f"basis insufficient for recovery of variable {w} "
                f"with column {deleted_col} deleted"
            )
        _, j1, j2 = min(candidates)
        pairs.append((j1, j2))
    return tuple(pairs)


def build_template(problem, rng_seed: int) -> SolverTemplate:
    """Run the full offline stage for one registered problem."""
    specializations = specialize(problem, rng_seed)
    k = detect_degree(specializations)
    deletion = find_deletion_pair(problem.basis, specializations)
    # the deleted column must leave every variable recoverable
    select_recovery_pairs(problem.basis, deletion[1])
    if problem.expected_solutions > k:
        raise TemplateError(
            f"expected solution count {problem.expected_solutions} exceeds degree {k}"
        )
    return SolverTemplate(problem_id=problem.problem_id, k=k, deletion_pair=deletion)
