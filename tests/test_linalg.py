import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bareiss_rank,
    column,
    conjugate,
    dense,
    dense_image,
    dense_kernel,
    dense_rref,
    dense_solve,
    flat,
    from_flat,
    from_rows,
    greedy_representatives,
    h3,
    identity_matrix,
    matmul,
    nf4,
    random_cochain,
    random_leibniz_algebra,
    random_matrix,
    sparse,
    vec_add,
    vec_scale,
    zero_matrix,
)
from leibniz_deform import cochain, linalg, values
from leibniz_deform.algebra import abelian, lambda6
from leibniz_deform.cochain import Cochain, coboundary, coboundary_matrix
from leibniz_deform.errors import DimensionMismatch, PreconditionError
from leibniz_deform.linalg import (
    Matrix,
    image_basis,
    kernel_basis,
    quotient_representatives,
    rank,
    rref,
    solve,
)

F = Fraction


def dense_vectors(basis) -> tuple:
    """The vectors of a SubspaceBasis as dense Fraction tuples."""
    return tuple(dense(v, basis.ambient_dim) for v in basis.vectors)


def solve_dense(m: Matrix, rhs):
    """``solve`` on a dense right-hand side, its solution dense, or None."""
    sol = solve(m, sparse(rhs))
    return None if sol is None else dense(sol, m.cols)


def test_rref_identity():
    m = identity_matrix(2)
    reduced, pivots = rref(m)
    assert reduced == m
    assert pivots == (0, 1)


def test_rref_zero():
    m = zero_matrix(2, 2)
    reduced, pivots = rref(m)
    assert reduced == m
    assert pivots == ()


def test_rref_rank_one():
    m = from_rows([[2, 4], [1, 2]])
    reduced, pivots = rref(m)
    assert reduced == from_rows([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_kernel_identity_empty():
    assert kernel_basis(identity_matrix(3)).vectors == ()


def test_kernel_zero_matrix_full():
    k = kernel_basis(zero_matrix(2, 3))
    assert k.vectors == ({0: 1}, {1: 1}, {2: 1})


def test_kernel_one_row():
    k = kernel_basis(from_rows([[1, 1, 0]]))
    assert k.vectors == ({0: -1, 1: 1}, {2: 1})


def test_image_identity():
    b = image_basis(identity_matrix(3))
    assert b.vectors == ({0: 1}, {1: 1}, {2: 1})


def test_image_zero_empty():
    assert image_basis(zero_matrix(3, 2)).vectors == ()


def test_image_rank_one_keeps_original_column():
    b = image_basis(from_rows([[1, 2], [2, 4]]))
    assert b.vectors == ({0: 1, 1: 2},)


def test_solve_identity():
    assert solve(identity_matrix(2), {0: 3, 1: -5}) == {0: 3, 1: -5}


def test_solve_inconsistent():
    assert solve(zero_matrix(2, 2), {0: 1}) is None


def test_solve_zeroes_free_variables():
    assert solve(from_rows([[1, 1]]), {0: 3}) == {0: 3}


@pytest.mark.parametrize("key", [-1, 2])
def test_solve_and_matvec_reject_keys_outside_the_matrix(key):
    # a right-hand side key of 2 would meet the unit key of column 1 in [m | I]
    m = from_rows([[1, 0], [0, 1]])
    with pytest.raises(DimensionMismatch, match=r"^solve: a key outside 0\.\.1$"):
        solve(m, {0: 1, key: 1})
    with pytest.raises(DimensionMismatch, match=r"^matvec: a key outside 0\.\.1$"):
        m.matvec({key: 1})


def _column(n, j):
    """The n x 1 matrix with a single 1 in row j."""
    return Matrix(n, 1, [{0: 1} if i == j else {} for i in range(n)])


def test_quotient_trivial_image():
    d_prev = zero_matrix(3, 1)
    reps, project, dim_image = quotient_representatives(zero_matrix(1, 3), d_prev)
    assert reps.vectors == ({0: 1}, {1: 1}, {2: 1})
    assert dim_image == image_basis(d_prev).dim == 0
    assert project({0: 2, 1: -1, 2: 5}) == (F(2), F(-1), F(5))


def test_quotient_image_equals_kernel():
    d_prev = identity_matrix(2)
    reps, project, dim_image = quotient_representatives(zero_matrix(1, 2), d_prev)
    assert reps.vectors == ()
    assert dim_image == image_basis(d_prev).dim == 2
    assert project({0: 4, 1: 7}) == ()


def test_quotient_greedy_extension():
    d_prev = _column(3, 0)
    reps, project, dim_image = quotient_representatives(zero_matrix(1, 3), d_prev)
    assert reps.vectors == ({1: 1}, {2: 1})
    assert dim_image == image_basis(d_prev).dim == 1
    assert project({0: 9, 1: 2, 2: 3}) == (F(2), F(3))


def test_quotient_faults_when_image_outside_kernel():
    with pytest.raises(PreconditionError):
        quotient_representatives(from_rows([[0, 1]]), _column(2, 1))


@st.composite
def matrices(draw):
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(1, 5))
    entries = draw(
        st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=4),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return from_rows([entries[i * cols : (i + 1) * cols] for i in range(rows)])


@given(matrices())
def test_rank_nullity(m):
    assert kernel_basis(m).dim + image_basis(m).dim == m.cols


@given(matrices())
def test_rref_idempotent(m):
    reduced, pivots = rref(m)
    again, pivots2 = rref(reduced)
    assert again == reduced
    assert pivots2 == pivots
    assert list(pivots) == sorted(pivots)


@given(matrices())
def test_kernel_vectors_are_annihilated(m):
    for v in kernel_basis(m).vectors:
        assert m.matvec(v) == {}


@given(matrices())
def test_solve_is_exact_when_solvable(m):
    rhs = m.matvec(dict.fromkeys(range(m.cols), 1))
    sol = solve(m, rhs)
    assert sol is not None
    assert m.matvec(sol) == rhs


def test_rank_matches_independent_oracle():
    rng = random.Random(42)
    for _ in range(50):
        m = random_matrix(rng)
        if m.rows == 0:
            continue
        assert image_basis(m).dim == bareiss_rank(m.entries)


def test_determinism_repeated_runs():
    rng = random.Random(3)
    m = random_matrix(rng, 6, 6)
    assert rref(m) == rref(m)
    assert kernel_basis(m) == kernel_basis(m)


# ---------------------------------------------------------------------------
# Equality with the dense Gauss-Jordan oracle
# ---------------------------------------------------------------------------

# Zero two times in three, so drawn matrices are sparse and often rank-deficient.
scalars = st.one_of(
    st.just(F(0)),
    st.just(F(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
)


@st.composite
def any_matrices(draw, max_rows=6, max_cols=6):
    """0 x n, n x 0, all-zero, sparse and dense matrices of rationals."""
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    if draw(st.integers(0, 3)) and rows * cols:
        cells = draw(st.lists(scalars, min_size=rows * cols, max_size=rows * cols))
    else:
        cells = [F(0)] * (rows * cols)
    return from_rows((cells[i * cols : (i + 1) * cols] for i in range(rows)), cols)


@given(any_matrices())
def test_rref_equals_dense_oracle(m):
    assert rref(m) == dense_rref(m)


@given(any_matrices())
def test_rank_equals_bareiss(m):
    assert rank(m) == bareiss_rank(m.entries)


@given(any_matrices())
def test_kernel_equals_dense_oracle(m):
    assert dense_vectors(kernel_basis(m)) == dense_kernel(m)


@given(any_matrices())
def test_image_equals_dense_oracle(m):
    assert dense_vectors(image_basis(m)) == dense_image(m)


@given(any_matrices(), st.data())
def test_solve_equals_dense_oracle(m, data):
    x = data.draw(st.lists(scalars, min_size=m.cols, max_size=m.cols))
    consistent = dense(m.matvec(sparse(x)), m.rows)
    assert solve_dense(m, consistent) == dense_solve(m, consistent)
    assert solve_dense(m, consistent) is not None
    rhs = data.draw(st.lists(scalars, min_size=m.rows, max_size=m.rows))
    assert solve_dense(m, rhs) == dense_solve(m, rhs)


def test_solve_inconsistent_returns_none_like_oracle():
    m = from_rows([[1, 2], [2, 4]])
    assert dense_solve(m, [1, 0]) is None
    assert solve(m, {0: 1}) is None
    assert solve(from_rows(((), ())), {1: 1}) is None
    assert solve(from_rows(((), ())), {}) == {}
    assert solve(from_rows((), 3), {}) == {}


def transpose(m: Matrix) -> Matrix:
    return from_rows((column(m, j) for j in range(m.cols)), m.rows)


def complex_from(draw, d_prev: Matrix, coefficients) -> Matrix:
    """A matrix d with d d_prev = 0: its rows are drawn combinations of the
    left null vectors of d_prev, with some rows zero and some repeated."""
    annihilators = dense_kernel(transpose(d_prev))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            rows.append((F(0),) * d_prev.rows)
        elif kind == 1 and rows:
            rows.append(draw(st.sampled_from(rows)))
        else:
            cs = draw(st.lists(coefficients, min_size=len(annihilators), max_size=len(annihilators)))
            v = [F(0)] * d_prev.rows
            for c, a in zip(cs, annihilators):
                v = [x + c * y for x, y in zip(v, a)]
            rows.append(tuple(v))
    return from_rows(rows, d_prev.rows)


@st.composite
def quotient_cases(draw):
    """(d, d_prev) with d d_prev = 0; either may be zero or rank-deficient."""
    d_prev = draw(any_matrices(max_rows=5, max_cols=5))
    return complex_from(draw, d_prev, scalars), d_prev


def check_quotient_against_oracles(d: Matrix, d_prev: Matrix, coords, noise):
    """Representatives equal the greedy oracle, the image dimension equals
    ``image_basis``'s, and project returns the dense_solve coordinates of a
    combination of the representatives and the dense image basis."""
    reps, project, dim_image = quotient_representatives(d, d_prev)
    image = dense_image(d_prev)
    assert dim_image == image_basis(d_prev).dim == len(image)
    assert dense_vectors(reps) == greedy_representatives(image, dense_kernel(d))
    coords, noise = tuple(coords[: reps.dim]), noise[:dim_image]
    v = [F(0)] * d.cols
    basis = dense_vectors(reps) + image
    for c, r in zip(coords + tuple(noise), basis):
        v = [a + c * b for a, b in zip(v, r)]
    system = from_rows((tuple(b[i] for b in basis) for i in range(d.cols)), len(basis))
    assert project(sparse(v)) == dense_solve(system, v)[: reps.dim] == coords
    return reps, project, dim_image


@given(quotient_cases(), st.data())
def test_quotient_equals_greedy_oracle_and_projects_like_dense_solve(case, data):
    d, d_prev = case
    coords = data.draw(st.lists(scalars, min_size=d.cols, max_size=d.cols))
    noise = data.draw(st.lists(scalars, min_size=d.cols, max_size=d.cols))
    check_quotient_against_oracles(d, d_prev, coords, noise)


@given(quotient_cases(), st.data())
def test_quotient_rejects_vectors_and_columns_outside_the_kernel(case, data):
    d, d_prev = case
    _, project, _ = quotient_representatives(d, d_prev)
    v = data.draw(st.lists(scalars, min_size=d.cols, max_size=d.cols))
    if d.matvec(sparse(v)):
        with pytest.raises(PreconditionError):
            project(sparse(v))
        # the same vector as an extra column of d_prev, at any position
        j = data.draw(st.integers(0, d_prev.cols))
        columns = [column(d_prev, c) for c in range(d_prev.cols)]
        columns.insert(j, tuple(F(x) for x in v))
        bad = from_rows((tuple(c[i] for c in columns) for i in range(d_prev.rows)), len(columns))
        with pytest.raises(PreconditionError):
            quotient_representatives(d, bad)
    else:
        project(sparse(v))


@given(quotient_cases())
def test_quotient_rejects_wrong_lengths(case):
    # project refuses a key outside the ambient coordinates
    d, d_prev = case
    _, project, _ = quotient_representatives(d, d_prev)
    for key in (-1, d.cols):
        with pytest.raises(DimensionMismatch):
            project({key: 1})
    wrong = from_rows(d_prev.entries + ((F(0),) * d_prev.cols,), d_prev.cols)
    with pytest.raises(DimensionMismatch):
        quotient_representatives(d, wrong)


@st.composite
def matrices_with_zero_and_repeated_rows(draw):
    base = draw(any_matrices(max_rows=4, max_cols=5))
    rows = list(base.entries)
    for _ in range(draw(st.integers(1, 4))):
        if rows and draw(st.booleans()):
            rows.append(draw(st.sampled_from(rows)))
        else:
            rows.append((F(0),) * base.cols)
    rows = draw(st.permutations(rows))
    return from_rows(rows, base.cols)


@given(matrices_with_zero_and_repeated_rows())
def test_echelon_rows_equal_dense_oracle_with_zero_and_repeated_rows(m):
    reduced, pivots = dense_rref(m)
    expected = tuple((p, {c: x for c, x in enumerate(row) if x}) for p, row in zip(pivots, reduced.entries))
    assert linalg.echelon_rows(m) == expected


SHEARED_CORPUS = [(lambda6, 2), (lambda6, 3), (h3, 2), (h3, 3), (nf4, 2), (lambda: abelian(2), 2)]


@pytest.mark.parametrize("make, p", SHEARED_CORPUS)
@pytest.mark.parametrize("sign", [1, -1])
def test_quotient_on_sheared_corpus_equals_oracles(make, p, sign):
    alg = make()
    n = alg.dim
    shear = Matrix(n, n, [{i: 1, **({n - 1: sign} if i == 0 and n > 1 else {})} for i in range(n)])
    alg = conjugate(alg, shear)
    d, d_prev = coboundary_matrix(alg, p), coboundary_matrix(alg, p - 1)
    rng = random.Random(p * sign)
    coords = [F(rng.randint(-3, 3)) for _ in range(d.cols)]
    noise = [F(rng.randint(-3, 3)) for _ in range(d.cols)]
    reps, project, dim_image = check_quotient_against_oracles(d, d_prev, coords, noise)
    space = cochain.cohomology(alg, p)
    assert tuple(r.entries for r in space.class_representatives) == reps.vectors
    assert space.dim_coboundaries == dim_image
    for f in range(d.cols):
        if any(column(d, f)):  # the unit vector at f is outside ker d
            with pytest.raises(PreconditionError):
                space.project_to_classes(Cochain(p, n, {f: 1}))


# ---------------------------------------------------------------------------
# Integer-first elimination: int in the reducer and in every sparse vector,
# Fraction in every dense view
# ---------------------------------------------------------------------------

# Pivots of +-1, +-2 and 1/2 are drawn often, so elimination meets unit
# pivots, pivots whose inverse is a Fraction, and sums that cancel to 0 or to
# an integral Fraction (1/2 + 1/2).
INTEGER_SCALARS = st.one_of(st.sampled_from((F(0), F(0), F(1), F(-1), F(2), F(-2))), st.integers(-6, 6).map(F))
RATIONAL_SCALARS = st.one_of(
    st.sampled_from((F(0), F(1, 2), F(-1, 2), F(3, 2))),
    st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(lambda x: x.denominator > 1),
)
SCALAR_KINDS = {
    "integer": INTEGER_SCALARS,
    "rational": RATIONAL_SCALARS,
    "mixed": st.one_of(INTEGER_SCALARS, RATIONAL_SCALARS),
}


@st.composite
def typed_matrices(draw, max_rows=6, max_cols=6):
    """Integer, rational or mixed matrices; some rows are combinations of
    earlier rows with coefficients +-1, +-2 and +-1/2, so they cancel."""
    kind = SCALAR_KINDS[draw(st.sampled_from(sorted(SCALAR_KINDS)))]
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    coefficient = st.sampled_from((F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2)))
    entries = []
    for _ in range(rows):
        if entries and draw(st.booleans()):
            a, b = draw(st.sampled_from(entries)), draw(st.sampled_from(entries))
            ca, cb = draw(coefficient), draw(coefficient)
            entries.append(tuple(ca * x + cb * y for x, y in zip(a, b)))
        else:
            entries.append(tuple(draw(st.lists(kind, min_size=cols, max_size=cols))))
    return from_rows(entries, cols)


def _all_fractions(vectors) -> bool:
    return all(type(x) is Fraction for v in vectors for x in v)


def _all_stored(vectors) -> bool:
    """Every value of the sparse vectors is nonzero, and an int when integral."""
    return all(type(x) is int and x or type(x) is Fraction and x.denominator != 1 for v in vectors for x in v.values())


@given(typed_matrices())
def test_row_echelon_equals_dense_oracle_and_returns_fractions(m):
    reduced, pivots = rref(m)
    expected, expected_pivots = dense_rref(m)
    assert (reduced, pivots) == (expected, expected_pivots)
    assert reduced.entries == expected.entries
    assert dense_vectors(kernel_basis(m)) == dense_kernel(m)
    assert dense_vectors(image_basis(m)) == dense_image(m)
    assert rank(m) == bareiss_rank(m.entries)
    assert _all_fractions(reduced.entries)
    assert _all_stored(kernel_basis(m).vectors)
    assert _all_stored(image_basis(m).vectors)
    assert _all_fractions(m.entries)
    assert _all_fractions(row.values() for _, row in linalg.echelon_rows(m))


@given(typed_matrices(), st.data())
def test_matmul_helper_equals_dense_product(a, data):
    cols = data.draw(st.integers(0, 4))
    cells = st.lists(SCALAR_KINDS["mixed"], min_size=cols, max_size=cols)
    b = from_rows((data.draw(cells) for _ in range(a.cols)), cols)
    expected = tuple(
        tuple(sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)), F(0)) for j in range(cols))
        for i in range(a.rows)
    )
    assert matmul(a, b).entries == expected


@given(typed_matrices())
def test_reducer_stores_integral_entries_as_int(m):
    for reducer in (m._row_echelon, m._column_echelon):
        stored = [x for row in reducer.rows.values() for x in row.values()]
        for x in stored:
            assert type(x) is int or (type(x) is Fraction and x.denominator != 1)


@given(typed_matrices(), st.data())
def test_solve_and_matvec_equal_dense_oracle_and_return_stored_scalars(m, data):
    x = data.draw(st.lists(SCALAR_KINDS["mixed"], min_size=m.cols, max_size=m.cols))
    consistent = m.matvec(sparse(x))
    assert dense(consistent, m.rows) == tuple(sum((a * b for a, b in zip(row, x)), F(0)) for row in m.entries)
    assert _all_stored([consistent])
    sol = solve(m, consistent)
    assert dense(sol, m.cols) == dense_solve(m, dense(consistent, m.rows))
    assert _all_stored([sol])
    rhs = data.draw(st.lists(SCALAR_KINDS["mixed"], min_size=m.rows, max_size=m.rows))
    sol = solve(m, sparse(rhs))
    assert solve_dense(m, rhs) == dense_solve(m, rhs)
    assert sol is None or _all_stored([sol])


@given(typed_matrices(max_rows=5, max_cols=5), st.data())
def test_quotient_and_project_equal_oracles_in_the_scalar_policy(d_prev, data):
    d = complex_from(data.draw, d_prev, SCALAR_KINDS["mixed"])
    coords = data.draw(st.lists(SCALAR_KINDS["mixed"], min_size=d.cols, max_size=d.cols))
    noise = data.draw(st.lists(SCALAR_KINDS["mixed"], min_size=d.cols, max_size=d.cols))
    reps, project, _ = check_quotient_against_oracles(d, d_prev, coords, noise)
    assert _all_fractions([project(r) for r in reps.vectors])
    assert _all_stored(reps.vectors)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_coboundary_and_cohomology_keep_the_scalar_policy(p):
    rng = random.Random(p)
    for alg in (lambda6(), nf4(), random_leibniz_algebra(rng, dims=(3,))):
        f = random_cochain(rng, p, alg.dim, density=0.3)
        assert _all_stored([coboundary(alg, f).entries])
        assert _all_stored([coboundary_matrix(alg, p).matvec(f.entries)])
        assert _all_fractions(v for _, v in coboundary(alg, f).nonzero_entries())
        space = cochain.cohomology(alg, p)
        assert _all_stored(r.entries for r in space.class_representatives)
        if space.dim:
            assert _all_fractions([space.project_to_classes(space.class_representatives[0])])


# ---------------------------------------------------------------------------
# Sparse sums and scalings of cochains equal the plain dense formulas
# ---------------------------------------------------------------------------

# Zeros that are the shared F0, fresh Fraction(0, d) objects, or results of
# cancellation, mixed with nonzero rationals.
mixed_zeros = st.one_of(
    st.just(values.F0),
    st.builds(Fraction, st.just(0), st.integers(1, 9)),
    st.integers(-9, 9).map(lambda k: Fraction(k, 3) - Fraction(k, 3)),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
)
factors = st.one_of(st.sampled_from((values.F0, F(0), F(-1), F(1))), mixed_zeros)


@st.composite
def cochain_pairs(draw):
    arity, dim = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    size = dim ** arity * dim
    coordinates = st.lists(mixed_zeros, min_size=size, max_size=size)
    return from_flat(arity, dim, draw(coordinates)), from_flat(arity, dim, draw(coordinates))


@given(cochain_pairs(), factors)
def test_cochain_sum_difference_and_scale_equal_dense_formulas(pair, c):
    f, g = pair
    a, b = flat(f), flat(g)
    results = [
        (f + g, vec_add(a, b)),
        (f - g, vec_add(a, vec_scale(-1, b))),
        (f.scale(c), vec_scale(c, a)),
        (-f, vec_scale(-1, a)),
    ]
    for result, expected in results:
        assert result == from_flat(f.arity, f.dim, expected)
        assert _all_stored([result.entries])


def test_cochain_sum_and_difference_reject_mismatched_shapes():
    f, g = Cochain(2, 2, {}), Cochain(1, 2, {})
    for op in (lambda: f + g, lambda: f - g, lambda: f - Cochain(2, 3, {})):
        with pytest.raises(DimensionMismatch):
            op()


# ---------------------------------------------------------------------------
# Each matrix is eliminated once
# ---------------------------------------------------------------------------


@pytest.fixture
def eliminations(monkeypatch):
    """The vector sequences handed to the elimination routine, in call order."""
    calls = []
    real = linalg._eliminate

    def counting(vectors):
        vectors = list(vectors)
        calls.append(vectors)
        return real(vectors)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    return calls


def _is_nonzero_rows_of(vectors, m: Matrix) -> bool:
    """Whether the eliminated vectors are m's nonzero rows themselves, in any order."""
    return sorted(map(id, vectors)) == sorted(id(r) for r in m._row_dicts if r)


def test_cohomology_and_relations_eliminate_delta3_once(eliminations):
    cochain.coboundary_matrix.cache_clear()
    cochain.cohomology.cache_clear()
    alg = nf4()
    cochain.cohomology(alg, 3)
    cochain.cocycle_relations(alg, 3)
    delta3 = cochain.coboundary_matrix(alg, 3)
    assert sum(1 for vectors in eliminations if _is_nonzero_rows_of(vectors, delta3)) == 1


@pytest.mark.parametrize("p", [1, 2, 3])
def test_cohomology_eliminates_no_columns(eliminations, p):
    cochain.coboundary_matrix.cache_clear()
    cochain.cohomology.cache_clear()
    alg = conjugate(nf4(), Matrix(4, 4, [{0: 1}, {1: 1}, {2: 1, 3: -1}, {3: 1}]))
    eliminations.clear()  # conjugate solves, so the count starts here
    space = cochain.cohomology(alg, p)
    delta, delta_prev = cochain.coboundary_matrix(alg, p), cochain.coboundary_matrix(alg, p - 1)
    for m in (delta, delta_prev):
        assert "_column_echelon" not in vars(m)
    # delta^p's rows, then the image restricted to the free columns
    rows, image = eliminations
    assert _is_nonzero_rows_of(rows, delta)
    assert len(image) == delta_prev.cols
    assert all(len(v) <= space.dim_cocycles for v in image)


def test_cohomology_and_relations_never_build_dense_delta3():
    cochain.coboundary_matrix.cache_clear()
    cochain.cohomology.cache_clear()
    alg = nf4()
    cochain.cohomology(alg, 3)
    cochain.cocycle_relations(alg, 3)
    for p in (2, 3):
        assert "entries" not in vars(cochain.coboundary_matrix(alg, p))


def test_quotient_eliminations_do_not_grow_with_candidates(eliminations):
    counts = []
    for n in (2, 12):
        before = len(eliminations)
        reps, project, _ = quotient_representatives(zero_matrix(1, n), _column(n, n - 1))
        for j in range(n):
            project({j: 1})
        assert reps.dim == n - 1
        counts.append(len(eliminations) - before)
    assert counts[0] == counts[1] <= 2


def test_solves_share_one_factorization(eliminations):
    # every query but solve reads m's one row echelon; the quotient adds only
    # the elimination of d_prev's image restricted to m's free columns
    m = from_rows([[1, 2, 0], [0, 1, 1], [1, 3, 1]])
    d_prev = from_rows([[2], [-1], [1]])
    assert rank(m) == 2
    assert kernel_basis(m).vectors == ({0: 2, 1: -1, 2: 1},)
    assert image_basis(m).vectors == ({0: 1, 2: 1}, {0: 2, 1: 1, 2: 3})
    assert rref(m)[1] == tuple(p for p, _ in linalg.echelon_rows(m)) == (0, 1)
    reps, _, dim_image = quotient_representatives(m, d_prev)
    assert (reps.dim, dim_image) == (0, 1)
    rows, restricted = eliminations
    assert _is_nonzero_rows_of(rows, m)
    assert len(restricted) == d_prev.cols
    # the solves share one column elimination
    assert solve(m, {0: 1, 1: 1, 2: 2}) == {0: -1, 1: 1}
    assert solve(m, {2: 1}) is None
    assert len(eliminations) == 3
    assert len(eliminations[2]) == m.cols


@pytest.mark.parametrize(
    "make, expected",
    [(lambda6, {2: (8, 6, 2), 3: (21, 19, 2)}), (nf4, {2: (15, 12, 3), 3: (52, 49, 3)}),
     (h3, {2: (11, 3, 8), 3: (33, 16, 17)})],
    ids=["lambda6", "nf4", "h3"],
)
def test_cohomology_builds_no_kernel_or_image_basis(monkeypatch, make, expected):
    def refuse(*args):
        raise AssertionError("cohomology built a dense basis")

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("leibniz_deform."):
            for name in ("kernel_basis", "image_basis"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
    cochain.coboundary_matrix.cache_clear()
    cochain.cohomology.cache_clear()
    alg = make()
    for p, dims in expected.items():
        space = cochain.cohomology(alg, p)
        assert (space.dim_cocycles, space.dim_coboundaries, space.dim) == dims
