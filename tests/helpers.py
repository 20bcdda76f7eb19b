"""Shared test oracles and frozen reference data.

The oracles here are deliberately independent of the package internals:
fraction-free rank, dense Gauss-Jordan elimination and the results derived
from it, the Leibniz identity evaluated densely on every basis triple through
the bilinear ``bracket_eval``, the coboundary evaluated from its defining
formula, permutation-filter
shuffle enumeration and a circle product built on it, the deformation
defect expanded from the deformed bracket, the equivalence check of two
deformed brackets under a base-linear map, membership in a base's ideal
decided by the rank of its dense Macaulay matrix, and the Hilbert-Samuel
function of a base from the ranks of its truncations.  The frozen cocycle
families certify the computed degree-2 and degree-3 kernels of the builtin
algebra.  ``matmul`` composes two matrices for the d∘d = 0 tests,
``from_rows`` builds a matrix from dense rows, and ``dgla_differential`` is
the differential d of the graded Lie structure, for the DGLA axiom tests.

The package computes with sparse vectors only: dicts from coordinate index
to nonzero value.  The dense formats the oracles use live here: ``sparse``
and ``dense`` convert between the two, ``flat`` is the dense view of a
cochain's coordinates and ``from_flat`` builds a cochain from it, ``column``
reads a matrix column densely, and ``zero_vec``, ``vec_add`` and
``vec_scale`` are dense vector arithmetic.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Sequence
from fractions import Fraction

from leibniz_deform.algebra import LeibnizAlgebra, abelian, lambda6, validate
from leibniz_deform.cochain import Cochain, coboundary
from leibniz_deform.deform import Deformation
from leibniz_deform.errors import DimensionMismatch, PreconditionError
from leibniz_deform.linalg import Matrix, rank, solve
from leibniz_deform.poly import LocalBase
from leibniz_deform.values import F0, F1, Vec

F = Fraction


# ---------------------------------------------------------------------------
# Dense vectors and their conversion to and from the package's sparse ones
# ---------------------------------------------------------------------------


def sparse(v: Sequence) -> dict:
    """The nonzero coordinates of a dense vector, integral ones as int."""
    return {j: F(x).numerator if F(x).denominator == 1 else F(x) for j, x in enumerate(v) if x}


def dense(v: dict, n: int) -> Vec:
    """The length-n Fraction vector with the coordinates of a sparse one."""
    return tuple(F(v.get(j, 0)) for j in range(n))


def flat(c: Cochain) -> Vec:
    """All n^(p+1) coordinates of a p-cochain as Fractions, numbered as in ``cochain``."""
    return dense(c.entries, c.dim ** (c.arity + 1))


def from_flat(arity: int, dim: int, values) -> Cochain:
    """The cochain whose ``flat`` view is ``values``."""
    values = tuple(values)
    if len(values) != dim ** (arity + 1):
        raise DimensionMismatch("flat vector has wrong length")
    return Cochain(arity, dim, sparse(values))


def column(m: Matrix, j: int) -> Vec:
    return tuple(row[j] for row in m.entries)


def zero_vec(n: int) -> Vec:
    return (F0,) * n


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_scale(c, a: Vec) -> Vec:
    return tuple(c * x for x in a)


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


def from_rows(rows, cols: int | None = None) -> Matrix:
    """The matrix with the given dense rows, of ``cols`` columns (by default
    the first row's length, and 0 when there is no row)."""
    rows = [tuple(r) for r in rows]
    cols = (len(rows[0]) if rows else 0) if cols is None else cols
    if any(len(r) != cols for r in rows):
        raise DimensionMismatch("ragged matrix rows")
    return Matrix(len(rows), cols, [dict(enumerate(r)) for r in rows])


def zero_matrix(rows: int, cols: int) -> Matrix:
    return Matrix(rows, cols, [{}] * rows)


def identity_matrix(n: int) -> Matrix:
    return Matrix(n, n, [{i: 1} for i in range(n)])


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
    return from_rows(work, m.cols), tuple(pivots)


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
    return tuple(column(m, p) for p in dense_rref(m)[1])


def dense_solve(m: Matrix, rhs) -> tuple | None:
    """Free-variables-zero solution from the reduced augmented matrix, or None."""
    aug = from_rows((row + (F(rhs[i]),) for i, row in enumerate(m.entries)), m.cols + 1)
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
        return len(dense_rref(from_rows(vectors))[1]) if vectors else 0

    selected = list(sub_vectors)
    reps = []
    cur = rank_of(selected)
    for v in full_vectors:
        if rank_of(selected + [v]) > cur:
            selected.append(v)
            reps.append(v)
            cur += 1
    return tuple(reps)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """The product a b, composed sparsely in integer arithmetic: each factor
    is scaled by the lcm of its denominators, entry (i, j) of the product
    sums a's column k times b's entry (k, j) over the nonzero entries of b's
    column j, and the sums are divided by both scales."""
    if a.cols != b.rows:
        raise ValueError("matmul: inner dimensions differ")

    def integral_columns(m: Matrix):
        columns = [column(m, j) for j in range(m.cols)]
        scale = math.lcm(1, *(x.denominator for c in columns for x in c if x))
        return scale, [{i: x.numerator * (scale // x.denominator) for i, x in enumerate(c) if x} for c in columns]

    scale_a, a_columns = integral_columns(a)
    scale_b, b_columns = integral_columns(b)
    rows: list[dict[int, Fraction]] = [{} for _ in range(a.rows)]
    for j, b_column in enumerate(b_columns):
        sums: dict[int, int] = {}
        for k, y in b_column.items():
            for i, x in a_columns[k].items():
                sums[i] = sums.get(i, 0) + x * y
        for i, total in sums.items():
            rows[i][j] = F(total, scale_a * scale_b)
    return Matrix(a.rows, b.cols, rows)


# ---------------------------------------------------------------------------
# Direct coboundary oracle: the defining formula evaluated on every basis tuple
# ---------------------------------------------------------------------------


def eval_with_vector_slot(
    f: Cochain, prefix: tuple[int, ...], vector: Vec, suffix: tuple[int, ...]
) -> Vec:
    """Evaluate f on basis arguments with one general vector in the middle slot."""
    out = zero_vec(f.dim)
    for c, coeff in enumerate(vector):
        if coeff:
            out = vec_add(out, vec_scale(coeff, f.eval_basis(prefix + (c,) + suffix)))
    return out


def direct_coboundary(alg: LeibnizAlgebra, f: Cochain) -> Cochain:
    """The coboundary of f evaluated term by term from its defining formula."""
    n = alg.dim
    p = f.arity
    values = []
    for x in itertools.product(range(n), repeat=p + 1):
        acc = [F0] * n

        def add(sign: int, v: Vec):
            if sign == 1:
                for k in range(n):
                    if v[k]:
                        acc[k] += v[k]
            else:
                for k in range(n):
                    if v[k]:
                        acc[k] -= v[k]

        # [x_1, f(x_2 .. x_{p+1})]
        inner = f.eval_basis(x[1:])
        row = alg.structure_constants[x[0]]
        for c, coeff in enumerate(inner):
            if coeff:
                add(1, vec_scale(coeff, row[c]))

        # (-1)^i [f(x_1 .. ^x_i .. x_{p+1}), x_i] for i = 2 .. p+1 (1-based)
        for i1 in range(2, p + 2):
            args = x[: i1 - 1] + x[i1:]
            v = f.eval_basis(args)
            sign = 1 if i1 % 2 == 0 else -1
            xi = x[i1 - 1]
            for c, coeff in enumerate(v):
                if coeff:
                    add(sign, vec_scale(coeff, alg.structure_constants[c][xi]))

        # (-1)^{j+1} f(x_1,..,x_{i-1},[x_i,x_j],x_{i+1},..,^x_j,..) for i < j
        for i1 in range(1, p + 1):
            for j1 in range(i1 + 1, p + 2):
                bracket = alg.bracket_basis(x[i1 - 1], x[j1 - 1])
                if not any(bracket):
                    continue
                prefix = x[: i1 - 1]
                suffix = x[i1: j1 - 1] + x[j1:]
                sign = 1 if (j1 + 1) % 2 == 0 else -1
                add(sign, eval_with_vector_slot(f, prefix, bracket, suffix))

        values.extend(acc)
    return from_flat(p + 1, n, values)


# ---------------------------------------------------------------------------
# Dense Leibniz identity oracle: the bracket extended bilinearly, evaluated on
# every basis triple
# ---------------------------------------------------------------------------


def bracket_eval(alg: LeibnizAlgebra, x: Sequence, y: Sequence) -> Vec:
    """Bilinear extension of the structure constants to arbitrary vectors."""
    n = alg.dim
    if len(x) != n or len(y) != n:
        raise DimensionMismatch("vector length differs from algebra dimension")
    out = [F0] * n
    for i in range(n):
        xi = x[i]
        if not xi:
            continue
        for j in range(n):
            yj = y[j]
            if not yj:
                continue
            c = xi * yj
            row = alg.structure_constants[i][j]
            for k in range(n):
                if row[k]:
                    out[k] += c * row[k]
    return tuple(out)


def dense_validate(alg: LeibnizAlgebra) -> list:
    """The violations of the Leibniz identity that ``validate`` reports, each
    term evaluated with ``bracket_eval`` on every basis triple in order."""
    n = alg.dim
    basis = [tuple(F0 if t != i else F1 for t in range(n)) for i in range(n)]
    violations = []
    for i, j, k in itertools.product(range(n), repeat=3):
        lhs = bracket_eval(alg, basis[i], alg.bracket_basis(j, k))
        r1 = bracket_eval(alg, alg.bracket_basis(i, j), basis[k])
        r2 = bracket_eval(alg, alg.bracket_basis(i, k), basis[j])
        defect = tuple(a - b + c for a, b, c in zip(lhs, r1, r2))
        if any(defect):
            violations.append(((i, j, k), defect))
    return violations


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


def circle_by_filter(alg: LeibnizAlgebra, fa: Cochain, fb: Cochain) -> Cochain:
    """Circle product computed from the permutation-filter shuffle oracle."""
    n = alg.dim
    p, q = fa.arity - 1, fb.arity - 1
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
        values.extend(acc)
    return from_flat(arity, n, values)


def dense_combination(reps: Sequence[Cochain], coords: Sequence) -> Cochain:
    """sum c_i reps[i], summed entry by entry over the whole table."""
    total = [F0] * len(flat(reps[0]))
    for c, rep in zip(coords, reps):
        for k, x in enumerate(flat(rep)):
            total[k] += F(c) * x
    return from_flat(reps[0].arity, reps[0].dim, total)


def dgla_differential(alg: LeibnizAlgebra, a: Cochain) -> Cochain:
    """d a = (-1)^{deg a} times the coboundary of a; raises degree by one."""
    d = coboundary(alg, a)
    return -d if (a.arity - 1) % 2 else d


# ---------------------------------------------------------------------------
# Defect oracle: the Leibniz identity expanded through the deformed bracket
# ---------------------------------------------------------------------------


def embed_basis(d: Deformation, i: int) -> tuple:
    """1 x e_i as a vector of base polynomials."""
    one, zero = d.base.constant(1), d.base.zero()
    return tuple(one if k == i else zero for k in range(d.algebra.dim))


def bracket_defect(d: Deformation) -> dict:
    """Per-monomial defect [x,[y,z]] - [[x,y],z] + [[x,z],y] on every basis
    triple, each bracket evaluated over the base by ``Deformation.bracket``."""
    n = d.algebra.dim
    monos = d.base.monomials()
    tables = {m: [] for m in monos}
    embeds = [embed_basis(d, i) for i in range(n)]
    pair = {(b, c): d.basis_bracket(b, c) for b in range(n) for c in range(n)}
    for a, b, c in itertools.product(range(n), repeat=3):
        t1 = d.bracket(embeds[a], pair[(b, c)])
        t2 = d.bracket(pair[(a, b)], embeds[c])
        t3 = d.bracket(pair[(a, c)], embeds[b])
        jet = tuple(t1[k] - t2[k] + t3[k] for k in range(n))
        for m in monos:
            tables[m].extend(p.coeff(m) for p in jet)
    return {m: from_flat(3, n, tables[m]) for m in monos}


def check_equivalence(phi, d1: Deformation, d2: Deformation):
    """Decide whether a base-linear map intertwines two deformed brackets.

    ``phi[i][j]`` is the e_i coefficient of the image of 1 x e_j.  True needs
    the constant part of the matrix to be invertible, the evaluation-at-0
    condition (constant part equal to the identity) and the intertwining
    identity on every basis pair modulo truncation.  Returns (ok, detail)
    where detail is None or the first counterexample.
    """
    if d1.algebra != d2.algebra or d1.base != d2.base:
        raise PreconditionError("deformations must share their algebra and base")
    n = d1.algebra.dim
    base = d1.base
    if len(phi) != n or any(len(row) != n for row in phi):
        raise DimensionMismatch("map matrix has wrong shape")
    const = [[phi[i][j].constant_term() for j in range(n)] for i in range(n)]
    if rank(from_rows(const)) != n:
        return False, "constant part of the matrix is not invertible"
    identity = all(const[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))
    if not identity:
        return False, "evaluation at 0 is not the identity"

    def apply(av):
        return tuple(
            sum((phi[i][j] * av[j] for j in range(n)), base.zero()) for i in range(n)
        )

    columns = [tuple(phi[i][j] for i in range(n)) for j in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = apply(d1.basis_bracket(i, j))
            rhs = d2.bracket(columns[i], columns[j])
            if lhs != rhs:
                return False, (i, j, lhs, rhs)
    return True, None


# ---------------------------------------------------------------------------
# Ideal membership oracle: the rank of the dense Macaulay matrix
# ---------------------------------------------------------------------------


def _monomials_up_to(parts: int, top: int) -> list[tuple[int, ...]]:
    if parts == 0:
        return [()]
    return [(e,) + rest for e in range(top + 1) for rest in _monomials_up_to(parts - 1, top - e)]


def ideal_member(base, *polys) -> bool:
    """Whether every polynomial, a {monomial: coefficient} table, lies in
    I + m^(N+1), with I generated by the base's relations and N its
    truncation order.

    The Macaulay matrix has one row for each product q r of a relation r and
    a monomial q with deg q + lowdeg r <= N, truncated above N, and a column
    for each monomial that some row or polynomial carries at degree <= N.
    The polynomials are members iff appending them leaves the rank unchanged.
    """
    top = base.truncation_order
    rows = []
    for rel in base.relations:
        low = min(sum(m) for m, _ in rel)
        for q in _monomials_up_to(len(base.generators), top - low):
            rows.append({tuple(a + b for a, b in zip(q, m)): F(c) for m, c in rel})
    targets = [{m: F(c) for m, c in p.items()} for p in polys]
    columns = sorted({m for row in rows + targets for m, c in row.items() if c and sum(m) <= top})
    macaulay = [[row.get(m, 0) for m in columns] for row in rows]
    appended = macaulay + [[row.get(m, 0) for m in columns] for row in targets]
    return bareiss_rank(appended) == bareiss_rank(macaulay)


def hilbert_samuel(base) -> tuple[int, ...]:
    """HS(k) = dim (m^k + J)/(m^(k+1) + J) for k = 0..N, with J the base's
    ideal I + m^(N+1): the difference of dim K[t]/(J + m^(k+1)) over k.

    That dimension is the number of monomials of degree <= k minus the rank
    of the Macaulay echelon of the base truncated at k, each relation cut to
    degree <= k; the ``ideal_member`` tests check that echelon."""
    dims = [0]
    for k in range(base.truncation_order + 1):
        cut = tuple(tuple((m, c) for m, c in rel if sum(m) <= k) for rel in base.relations)
        truncated = LocalBase(base.generators, k, tuple(filter(None, cut)))
        dims.append(len(truncated.monomials()) - len(truncated._echelon[2].rows))
    return tuple(b - a for a, b in itertools.pairwise(dims))


# ---------------------------------------------------------------------------
# Random validated Leibniz algebras: base-change conjugates of a small zoo
# ---------------------------------------------------------------------------


def nf3() -> LeibnizAlgebra:
    """The null-filiform algebra [e_1,e_1] = e_2, [e_2,e_1] = e_3: lambda6
    with its basis renamed (e_3, e_1, e_2) -> (e_1, e_2, e_3)."""
    return LeibnizAlgebra.from_brackets(3, {(0, 0): {1: 1}, (1, 0): {2: 1}})


def nf4() -> LeibnizAlgebra:
    """The null-filiform algebra [e_i,e_1] = e_{i+1} for i = 1..3."""
    return LeibnizAlgebra.from_brackets(4, {(i, 0): {i + 1: 1} for i in range(3)})


def h3() -> LeibnizAlgebra:
    """The Heisenberg algebra [e_1,e_2] = e_3 = -[e_2,e_1]."""
    return LeibnizAlgebra.from_brackets(3, {(0, 1): {2: 1}, (1, 0): {2: -1}})


def q4() -> LeibnizAlgebra:
    """Q4: [e_1,e_1] = [e_2,e_2] = [e_3,e_3] = e_4, every other bracket zero.
    All its second-order Massey brackets vanish and some third-order ones do not."""
    return LeibnizAlgebra.from_brackets(4, {(i, i): {3: 1} for i in range(3)})


def sl2() -> LeibnizAlgebra:
    """The Lie algebra sl(2) on (e, f, h): [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    return LeibnizAlgebra.from_brackets(
        3, {(0, 1): {2: 1}, (1, 0): {2: -1}, (2, 0): {0: 2}, (0, 2): {0: -2}, (2, 1): {1: -2}, (1, 2): {1: 2}}
    )


def misoriented_nf4() -> LeibnizAlgebra:
    """[e_1,e_i] = e_{i+1}: NF4 with its brackets mirrored, not a Leibniz algebra."""
    return LeibnizAlgebra.from_brackets(4, {(0, i): {i + 1: 1} for i in range(3)})


def square_algebra(dim: int) -> LeibnizAlgebra:
    """[e_1, e_1] = e_2, everything else zero (nilpotent, satisfies the identity)."""
    return LeibnizAlgebra.from_brackets(dim, {(0, 0): {1: 1}})


def conjugate(alg: LeibnizAlgebra, p_matrix: Matrix) -> LeibnizAlgebra:
    """Transport the bracket along the invertible change of basis P."""
    n = alg.dim
    cols = [column(p_matrix, j) for j in range(n)]
    brackets = {}
    for i in range(n):
        for j in range(n):
            x = solve(p_matrix, sparse(bracket_eval(alg, cols[i], cols[j])))
            assert x is not None
            if x:
                brackets[(i, j)] = x
    return LeibnizAlgebra.from_brackets(n, brackets)


def random_invertible(rng: random.Random, n: int) -> Matrix:
    while True:
        m = from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
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
    return from_rows(
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
