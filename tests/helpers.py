"""Shared test oracles and frozen reference data.

The oracles here are deliberately independent of the package internals:
fraction-free rank, dense Gauss-Jordan elimination and the results derived
from it, permutation-filter shuffle enumeration and a circle product built on
it.  The frozen cocycle families certify the computed degree-2 and degree-3
kernels of the builtin algebra.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from leibniz_deform.algebra import LeibnizAlgebra, abelian, bracket_eval, lambda6, validate
from leibniz_deform.cochain import Cochain, eval_with_vector_slot
from leibniz_deform.graded import GradedElement
from leibniz_deform.linalg import F0, F1, Matrix, solve, vec_add, vec_scale, zero_vec

F = Fraction


# ---------------------------------------------------------------------------
# Independent linear algebra oracle: fraction-free (Bareiss) rank
# ---------------------------------------------------------------------------


def bareiss_rank(rows) -> int:
    """Rank via integer fraction-free elimination; rows may hold rationals."""
    if not rows or not rows[0]:
        return 0
    cleared = []
    for row in rows:
        denom = 1
        for x in row:
            denom = denom * F(x).denominator // _gcd(denom, F(x).denominator)
        cleared.append([int(F(x) * denom) for x in row])
    m = cleared
    nr, nc = len(m), len(m[0])
    r = 0
    prev = 1
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nr):
            for j in range(c + 1, nc):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == nr:
            break
    return r


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


# ---------------------------------------------------------------------------
# Dense Gauss-Jordan oracle for the sparse elimination core, and the kernel,
# image, solution and quotient representatives read off it the textbook way
# ---------------------------------------------------------------------------


def dense_rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form by dense elimination, pivoting on the first
    nonzero entry scanning top-to-bottom, left-to-right."""
    work = [list(row) for row in m.entries]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        pr = None
        for i in range(r, m.rows):
            if work[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            work[r], work[pr] = work[pr], work[r]
        pv = work[r][c]
        if pv != 1:
            work[r] = [x / pv for x in work[r]]
        prow = work[r]
        for i in range(m.rows):
            f = work[i][c]
            if i != r and f:
                row = work[i]
                work[i] = [a - f * b for a, b in zip(row, prow)]
        pivots.append(c)
        r += 1
    return Matrix(m.rows, m.cols, tuple(tuple(row) for row in work)), tuple(pivots)


def dense_kernel(m: Matrix) -> tuple[tuple, ...]:
    """Free-variable kernel basis, free variables in increasing column order."""
    reduced, pivots = dense_rref(m)
    vectors = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [F0] * m.cols
        v[f] = F1
        for ri, p in enumerate(pivots):
            v[p] = -reduced.entries[ri][f]
        vectors.append(tuple(v))
    return tuple(vectors)


def dense_image(m: Matrix) -> tuple[tuple, ...]:
    return tuple(m.column(p) for p in dense_rref(m)[1])


def dense_solve(m: Matrix, rhs) -> tuple | None:
    """Free-variables-zero solution from the reduced augmented matrix, or None."""
    aug = Matrix(m.rows, m.cols + 1, tuple(row + (F(rhs[i]),) for i, row in enumerate(m.entries)))
    reduced, pivots = dense_rref(aug)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [F0] * m.cols
    for ri, p in enumerate(pivots):
        x[p] = reduced.entries[ri][m.cols]
    return tuple(x)


def greedy_representatives(sub_vectors, full_vectors) -> tuple[tuple, ...]:
    """Extend sub by the members of full that raise the rank, one full
    elimination per candidate."""

    def rank_of(vectors):
        return len(dense_rref(Matrix.from_rows(vectors))[1]) if vectors else 0

    selected = list(sub_vectors)
    reps = []
    cur = rank_of(selected)
    for v in full_vectors:
        if rank_of(selected + [v]) > cur:
            selected.append(v)
            reps.append(v)
            cur += 1
    return tuple(reps)


# ---------------------------------------------------------------------------
# Independent shuffle and circle-product oracles
# ---------------------------------------------------------------------------


def perm_parity(perm) -> int:
    inv = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
    return -1 if inv % 2 else 1


def shuffles_by_filter(p: int, q: int):
    """(permutation image, sign) pairs found by filtering the symmetric group."""
    out = []
    for perm in itertools.permutations(range(1, p + q + 1)):
        if all(perm[i] < perm[i + 1] for i in range(p - 1)) and all(
            perm[i] < perm[i + 1] for i in range(p, p + q - 1)
        ):
            out.append((perm, perm_parity(perm)))
    return out


def circle_by_filter(alg: LeibnizAlgebra, a: GradedElement, b: GradedElement) -> Cochain:
    """Circle product computed from the permutation-filter shuffle oracle."""
    fa, fb = a.cochain, b.cochain
    n = alg.dim
    p, q = a.degree, b.degree
    arity = p + q + 1
    values = []
    for x in itertools.product(range(n), repeat=arity):
        acc = zero_vec(n)
        for k in range(1, p + 2):
            k_sign = (-1) ** (q * (k - 1))
            window = x[k:]
            for perm, sgn in shuffles_by_filter(q, p - k + 1):
                inner_args = (x[k - 1],) + tuple(window[perm[t] - 1] for t in range(q))
                suffix = tuple(window[perm[t] - 1] for t in range(q, len(perm)))
                inner = fb.eval_basis(inner_args)
                term = eval_with_vector_slot(fa, x[: k - 1], inner, suffix)
                acc = vec_add(acc, vec_scale(F(k_sign * sgn), term))
        values.append(acc)
    return Cochain(arity, n, tuple(values))


# ---------------------------------------------------------------------------
# Random validated Leibniz algebras: base-change conjugates of a small zoo
# ---------------------------------------------------------------------------


def nf4() -> LeibnizAlgebra:
    """The null-filiform algebra [e_i,e_1] = e_{i+1} for i = 1..3."""
    return LeibnizAlgebra.from_brackets(4, {(i, 0): {i + 1: 1} for i in range(3)})


def misoriented_nf4() -> LeibnizAlgebra:
    """[e_1,e_i] = e_{i+1}: NF4 with its brackets mirrored, not a Leibniz algebra."""
    return LeibnizAlgebra.from_brackets(4, {(0, i): {i + 1: 1} for i in range(3)})


def square_algebra(dim: int) -> LeibnizAlgebra:
    """[e_1, e_1] = e_2, everything else zero (nilpotent, satisfies the identity)."""
    return LeibnizAlgebra.from_brackets(dim, {(0, 0): {1: 1}})


def conjugate(alg: LeibnizAlgebra, p_matrix: Matrix) -> LeibnizAlgebra:
    """Transport the bracket along the invertible change of basis P."""
    n = alg.dim
    cols = [p_matrix.column(j) for j in range(n)]
    brackets = {}
    for i in range(n):
        for j in range(n):
            w = bracket_eval(alg, cols[i], cols[j])
            x = solve(p_matrix, w)
            assert x is not None
            nz = {k: x[k] for k in range(n) if x[k]}
            if nz:
                brackets[(i, j)] = nz
    return LeibnizAlgebra.from_brackets(n, brackets)


def random_invertible(rng: random.Random, n: int) -> Matrix:
    while True:
        m = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if bareiss_rank(m.entries) == n:
            return m


def random_leibniz_algebra(rng: random.Random, dims=(2, 3)) -> LeibnizAlgebra:
    n = rng.choice(dims)
    seeds = [abelian(n), square_algebra(n)]
    if n == 3:
        seeds.append(lambda6())
    alg = rng.choice(seeds)
    out = conjugate(alg, random_invertible(rng, n))
    scale = rng.choice([1, 1, 2, -1, F(1, 2)])
    if scale != 1:
        out = LeibnizAlgebra.from_brackets(
            n,
            {
                (i, j): {k: scale * out.bracket_basis(i, j)[k] for k in range(n)}
                for i in range(n)
                for j in range(n)
            },
        )
    assert validate(out) == []
    return out


def random_matrix(rng: random.Random, max_rows=6, max_cols=6) -> Matrix:
    r = rng.randint(0, max_rows)
    c = rng.randint(1, max_cols)
    return Matrix.from_rows(
        [[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(c)] for _ in range(r)]
    )


def random_cochain(rng: random.Random, arity: int, dim: int, lo=-2, hi=2, density=0.5) -> Cochain:
    entries = {}
    for idx in itertools.product(range(dim), repeat=arity):
        if rng.random() < density:
            entries[idx] = {k: F(rng.randint(lo, hi)) for k in range(dim)}
    return Cochain.from_entries(arity, dim, entries)


# ---------------------------------------------------------------------------
# Frozen reference cocycle data for the builtin 3-dimensional algebra.
# Input pairs/triples are 0-based; every membership claim is re-verified by
# the tests that use the data.
# ---------------------------------------------------------------------------

# Basis of the degree-2 cocycle space, one cocycle per free coordinate.
ZL2_COCYCLES = [
    {(0, 0): {1: 1}, (2, 0): {0: 1}, (2, 2): {2: -1}},
    {(0, 1): {1: 1}, (0, 2): {2: -1}, (2, 1): {0: 1}},
    {(0, 2): {0: 1}},
    {(0, 2): {1: 1}},
    {(1, 2): {0: 1}},
    {(1, 2): {1: 1}},
    {(2, 2): {0: 1}},
    {(2, 2): {1: 1}},
]

# Basis of the degree-2 coboundary space.
BL2_COBOUNDARIES = [
    {(0, 0): {1: 1}, (1, 2): {1: 1}, (2, 0): {0: 1}, (2, 2): {2: -1}},
    {(0, 1): {1: 1}, (0, 2): {2: -1}, (1, 2): {0: 1}, (2, 1): {0: 1}},
    {(0, 2): {0: 1}, (1, 2): {1: -1}},
    {(0, 2): {1: 1}},
    {(2, 2): {0: 1}},
    {(2, 2): {1: 1}},
]

# Column table of the coboundary of a 1-cochain g: for each input pair, the
# output coordinates as linear functionals of the matrix entries g[i][j]
# (g maps e_{i+1} to sum_j g[i][j] e_{j+1}).  Unlisted pairs are zero.
DELTA_G_COLUMNS = {
    (0, 0): {1: [(1, (0, 2))]},
    (0, 1): {1: [(1, (1, 2))]},
    (0, 2): {
        0: [(1, (0, 2)), (-1, (1, 0))],
        1: [(1, (2, 2)), (1, (0, 0)), (-1, (1, 1))],
        2: [(-1, (1, 2))],
    },
    (1, 2): {0: [(1, (1, 2))], 1: [(1, (1, 0))]},
    (2, 0): {0: [(1, (0, 2))]},
    (2, 1): {0: [(1, (1, 2))]},
    (2, 2): {
        0: [(2, (2, 2)), (-1, (0, 0))],
        1: [(1, (2, 0)), (-1, (0, 1))],
        2: [(-1, (0, 2))],
    },
}


def expected_delta_g(g_rows) -> Cochain:
    entries = {}
    for pair, spec in DELTA_G_COLUMNS.items():
        value = {}
        for k, combo in spec.items():
            total = sum((F(c) * g_rows[i][j] for c, (i, j) in combo), F(0))
            if total:
                value[k] = total
        if value:
            entries[pair] = value
    return Cochain.from_entries(2, 3, entries)


# Linear constraints cutting out the degree-2 cocycle space: each entry is a
# list of (coefficient, (i, j, k)) with the constraint sum c * a_{i,j}^k = 0.
ZL2_CONSTRAINTS = [
    [(1, (0, 0, 0))], [(1, (0, 0, 2))],
    [(1, (0, 1, 0))], [(1, (0, 1, 2))],
    [(1, (1, 0, 0))], [(1, (1, 0, 1))], [(1, (1, 0, 2))],
    [(1, (1, 1, 0))], [(1, (1, 1, 1))], [(1, (1, 1, 2))],
    [(1, (2, 0, 1))], [(1, (2, 0, 2))],
    [(1, (2, 1, 1))], [(1, (2, 1, 2))],
    [(1, (1, 2, 2))],
    [(1, (0, 0, 1)), (-1, (2, 0, 0))], [(1, (2, 0, 0)), (1, (2, 2, 2))],
    [(1, (0, 1, 1)), (1, (0, 2, 2))], [(1, (0, 1, 1)), (-1, (2, 1, 0))],
]


def constraint_vector(combo, dim=3) -> tuple:
    v = [F(0)] * (dim * dim * dim)
    for c, (i, j, k) in combo:
        v[(i * dim + j) * dim + k] += F(c)
    return tuple(v)


# A 20-member independent family of degree-3 cocycles, frozen from a
# hand-derived parametrization; membership in the kernel is re-verified where
# the family is used.  Triples and columns here are 1-based.
_TAU_TABLE = {
    (1, 1, 1): {2: [(1, 1)]},
    (1, 1, 2): {2: [(1, 2)]},
    (1, 1, 3): {1: [(1, 3)], 2: [(1, 4)], 3: [(1, 2), (1, 5)]},
    (1, 2, 1): {2: [(1, 5)]},
    (1, 2, 3): {1: [(1, 6)], 2: [(1, 17)]},
    (1, 3, 1): {1: [(1, 7)], 2: [(1, 8)], 3: [(-1, 5)]},
    (1, 3, 2): {
        1: [(F(2, 5), 2), (F(-3, 5), 6), (F(2, 5), 11)],
        2: [(1, 13), (-1, 10), (2, 7), (1, 3), (-2, 1)],
    },
    (1, 3, 3): {1: [(2, 16), (-1, 14)], 2: [(1, 9)], 3: [(1, 1)]},
    (2, 1, 3): {1: [(F(3, 5), 2), (F(3, 5), 6), (F(-2, 5), 11), (-1, 5)], 2: [(1, 10)]},
    (2, 2, 3): {2: [(1, 11)]},
    (2, 3, 1): {1: [(1, 5)], 2: [(1, 1), (-1, 7)]},
    (2, 3, 2): {2: [(F(3, 5), 2), (F(3, 5), 6), (F(-2, 5), 11)]},
    (2, 3, 3): {1: [(1, 1), (-1, 7)], 2: [(3, 16), (-1, 14), (-1, 8)], 3: [(1, 5)]},
    (3, 1, 1): {1: [(1, 1)]},
    (3, 1, 2): {1: [(1, 2)]},
    (3, 1, 3): {1: [(1, 12)], 2: [(1, 18)], 3: [(1, 13)]},
    (3, 2, 1): {1: [(1, 5)]},
    (3, 2, 3): {
        1: [(1, 17), (-1, 13), (-1, 10), (3, 7), (2, 3)],
        2: [(1, 19)],
        3: [(F(6, 5), 2), (F(1, 5), 6), (F(1, 5), 11)],
    },
    (3, 3, 1): {1: [(1, 14)], 2: [(1, 15)], 3: [(-1, 1)]},
    (3, 3, 2): {
        1: [(2, 13), (-2, 1), (-1, 3), (-1, 7)],
        2: [(1, 14), (1, 12), (-1, 8), (-1, 4)],
        3: [(-1, 2)],
    },
    (3, 3, 3): {1: [(1, 9), (1, 15)], 2: [(1, 20)], 3: [(1, 16)]},
}


def reference_degree3_family() -> list[Cochain]:
    out = []
    for i in range(1, 21):
        entries = {}
        for triple, cols in _TAU_TABLE.items():
            for col, expr in cols.items():
                coeff = sum((F(c) for c, xi in expr if xi == i), F(0))
                if coeff:
                    key = tuple(a - 1 for a in triple)
                    entries.setdefault(key, {})[col - 1] = coeff
        out.append(Cochain.from_entries(3, 3, entries))
    return out


# A degree-3 cocycle independent of the 20-member family above; together they
# certify that the cocycle space has dimension 21.
EXTRA_DEGREE3_COCYCLE = {
    (0, 1, 1): {1: 1},
    (0, 1, 2): {2: 1},
    (0, 2, 1): {2: -1},
    (1, 0, 2): {2: 1},
    (1, 1, 2): {0: -1},
    (1, 2, 1): {0: 1},
    (2, 1, 1): {0: 1},
}
