import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bareiss_rank,
    dense_image,
    dense_kernel,
    dense_rref,
    dense_solve,
    from_rows,
    greedy_representatives,
    matmul,
    nf4,
    random_cochain,
    random_leibniz_algebra,
    random_matrix,
)
from leibniz_deform import cochain, linalg
from leibniz_deform.algebra import lambda6
from leibniz_deform.cochain import Cochain, coboundary, coboundary_matrix
from leibniz_deform.errors import DimensionMismatch, PreconditionError
from leibniz_deform.linalg import (
    Matrix,
    SubspaceBasis,
    image_basis,
    kernel_basis,
    quotient_representatives,
    rank,
    rref,
    solve,
    vec_add,
    vec_scale,
)

F = Fraction


def test_rref_identity():
    m = Matrix.identity(2)
    reduced, pivots = rref(m)
    assert reduced == m
    assert pivots == (0, 1)


def test_rref_zero():
    m = Matrix.zeros(2, 2)
    reduced, pivots = rref(m)
    assert reduced == m
    assert pivots == ()


def test_rref_rank_one():
    m = from_rows([[2, 4], [1, 2]])
    reduced, pivots = rref(m)
    assert reduced == from_rows([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(3)).vectors == ()


def test_kernel_zero_matrix_full():
    k = kernel_basis(Matrix.zeros(2, 3))
    assert k.vectors == ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)))


def test_kernel_one_row():
    k = kernel_basis(from_rows([[1, 1, 0]]))
    assert k.vectors == ((F(-1), F(1), F(0)), (F(0), F(0), F(1)))


def test_image_identity():
    b = image_basis(Matrix.identity(3))
    assert b.vectors == ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)))


def test_image_zero_empty():
    assert image_basis(Matrix.zeros(3, 2)).vectors == ()


def test_image_rank_one_keeps_original_column():
    b = image_basis(from_rows([[1, 2], [2, 4]]))
    assert b.vectors == ((F(1), F(2)),)


def test_solve_identity():
    assert solve(Matrix.identity(2), [3, -5]) == (F(3), F(-5))


def test_solve_inconsistent():
    assert solve(Matrix.zeros(2, 2), [1, 0]) is None


def test_solve_zeroes_free_variables():
    assert solve(from_rows([[1, 1]]), [3]) == (F(3), F(0))


def test_quotient_trivial_sub():
    full = SubspaceBasis(3, ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))))
    sub = SubspaceBasis(3, ())
    reps, project = quotient_representatives(sub, full)
    assert reps.vectors == full.vectors
    assert project((F(2), F(-1), F(5))) == (F(2), F(-1), F(5))


def test_quotient_sub_equals_full():
    full = SubspaceBasis(2, ((F(1), F(0)), (F(0), F(1))))
    reps, project = quotient_representatives(full, full)
    assert reps.vectors == ()
    assert project((F(4), F(7))) == ()


def test_quotient_greedy_extension():
    full = SubspaceBasis(3, ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))))
    sub = SubspaceBasis(3, ((F(1), F(0), F(0)),))
    reps, project = quotient_representatives(sub, full)
    assert reps.vectors == ((F(0), F(1), F(0)), (F(0), F(0), F(1)))
    assert project((F(9), F(2), F(3))) == (F(2), F(3))


def test_quotient_faults_when_sub_outside_full():
    full = SubspaceBasis(2, ((F(1), F(0)),))
    sub = SubspaceBasis(2, ((F(0), F(1)),))
    with pytest.raises(PreconditionError):
        quotient_representatives(sub, full)


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
        assert all(x == 0 for x in m.matvec(v))


@given(matrices())
def test_solve_is_exact_when_solvable(m):
    rhs = m.matvec([F(1)] * m.cols)
    sol = solve(m, rhs)
    assert sol is not None
    assert m.matvec(sol) == tuple(rhs)


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
    return Matrix(rows, cols, tuple(tuple(cells[i * cols : (i + 1) * cols]) for i in range(rows)))


@given(any_matrices())
def test_rref_equals_dense_oracle(m):
    assert rref(m) == dense_rref(m)


@given(any_matrices())
def test_rank_equals_bareiss(m):
    assert rank(m) == bareiss_rank(m.entries)


@given(any_matrices())
def test_kernel_equals_dense_oracle(m):
    assert kernel_basis(m).vectors == dense_kernel(m)


@given(any_matrices())
def test_image_equals_dense_oracle(m):
    assert image_basis(m).vectors == dense_image(m)


@given(any_matrices(), st.data())
def test_solve_equals_dense_oracle(m, data):
    x = data.draw(st.lists(scalars, min_size=m.cols, max_size=m.cols))
    consistent = m.matvec(x)
    assert solve(m, consistent) == dense_solve(m, consistent)
    assert solve(m, consistent) is not None
    rhs = data.draw(st.lists(scalars, min_size=m.rows, max_size=m.rows))
    assert solve(m, rhs) == dense_solve(m, rhs)


def test_solve_inconsistent_returns_none_like_oracle():
    m = from_rows([[1, 2], [2, 4]])
    assert dense_solve(m, [1, 0]) is None
    assert solve(m, [1, 0]) is None
    assert solve(Matrix(2, 0, ((), ())), [0, 1]) is None
    assert solve(Matrix(2, 0, ((), ())), [0, 0]) == ()
    assert solve(Matrix(0, 3, ()), []) == (F(0), F(0), F(0))


@st.composite
def quotient_cases(draw):
    """(sub, full) with sub inside span(full); either may be dependent."""
    full = draw(any_matrices(max_rows=5, max_cols=5))
    n = full.cols
    nsub = draw(st.integers(0, 4))
    sub = []
    for _ in range(nsub):
        if full.rows and draw(st.booleans()):
            sub.append(full.entries[draw(st.integers(0, full.rows - 1))])
            continue
        coeffs = draw(st.lists(scalars, min_size=full.rows, max_size=full.rows))
        v = [F(0)] * n
        for c, row in zip(coeffs, full.entries):
            v = [a + c * b for a, b in zip(v, row)]
        sub.append(tuple(v))
    return SubspaceBasis(n, tuple(sub)), SubspaceBasis(n, full.entries)


@given(quotient_cases())
def test_quotient_representatives_equal_greedy_oracle(case):
    sub, full = case
    reps, _ = quotient_representatives(sub, full)
    assert reps.vectors == greedy_representatives(sub.vectors, full.vectors)


@given(quotient_cases(), st.data())
def test_project_returns_unique_coordinates(case, data):
    sub, full = case
    reps, project = quotient_representatives(sub, full)
    n = full.ambient_dim
    coords = data.draw(st.lists(scalars, min_size=reps.dim, max_size=reps.dim))
    noise = data.draw(st.lists(scalars, min_size=sub.dim, max_size=sub.dim))
    v = [F(0)] * n
    for c, r in zip(coords + noise, reps.vectors + sub.vectors):
        v = [a + c * b for a, b in zip(v, r)]
    assert project(v) == tuple(coords)


# ---------------------------------------------------------------------------
# Integer-first elimination: int inside the reducer, Fraction at every boundary
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
    return Matrix(rows, cols, tuple(entries))


def _all_fractions(vectors) -> bool:
    return all(type(x) is Fraction for v in vectors for x in v)


@given(typed_matrices())
def test_row_echelon_equals_dense_oracle_and_returns_fractions(m):
    reduced, pivots = rref(m)
    expected, expected_pivots = dense_rref(m)
    assert (reduced, pivots) == (expected, expected_pivots)
    assert reduced.entries == expected.entries
    assert kernel_basis(m).vectors == dense_kernel(m)
    assert image_basis(m).vectors == dense_image(m)
    assert rank(m) == bareiss_rank(m.entries)
    assert _all_fractions(reduced.entries)
    assert _all_fractions(kernel_basis(m).vectors)
    assert _all_fractions(image_basis(m).vectors)
    assert _all_fractions(m.entries)
    assert _all_fractions(row.values() for _, row in linalg.echelon_rows(m))


@given(typed_matrices(), st.data())
def test_matmul_helper_equals_dense_product(a, data):
    cols = data.draw(st.integers(0, 4))
    cells = st.lists(SCALAR_KINDS["mixed"], min_size=cols, max_size=cols)
    b = Matrix(a.cols, cols, tuple(tuple(data.draw(cells)) for _ in range(a.cols)))
    expected = tuple(
        tuple(sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)), F(0)) for j in range(cols))
        for i in range(a.rows)
    )
    assert matmul(a, b).entries == expected


@given(typed_matrices())
def test_reducer_stores_integral_entries_as_int(m):
    for reducer in (m._row_echelon, m._column_echelon):
        stored = [x for row in reducer.rows.values() for x in row.values()]
        stored += [x for combo in reducer.combos.values() for x in combo.values()] if reducer.combos else []
        for x in stored:
            assert type(x) is int or (type(x) is Fraction and x.denominator != 1)


@given(typed_matrices(), st.data())
def test_solve_and_matvec_equal_dense_oracle_and_return_fractions(m, data):
    x = data.draw(st.lists(SCALAR_KINDS["mixed"], min_size=m.cols, max_size=m.cols))
    consistent = m.matvec(x)
    assert consistent == tuple(sum((a * b for a, b in zip(row, x)), F(0)) for row in m.entries)
    assert _all_fractions([consistent])
    sol = solve(m, consistent)
    assert sol == dense_solve(m, consistent)
    assert _all_fractions([sol])
    rhs = data.draw(st.lists(SCALAR_KINDS["mixed"], min_size=m.rows, max_size=m.rows))
    sol = solve(m, rhs)
    assert sol == dense_solve(m, rhs)
    assert sol is None or _all_fractions([sol])


@given(typed_matrices(max_rows=5, max_cols=5), st.data())
def test_quotient_and_project_equal_oracles_and_return_fractions(full, data):
    n = full.cols
    sub = [full.entries[i] for i in data.draw(st.lists(st.integers(0, full.rows - 1), max_size=3))] if full.rows else []
    sub, full = SubspaceBasis(n, tuple(sub)), SubspaceBasis(n, full.entries)
    reps, project = quotient_representatives(sub, full)
    assert reps.vectors == greedy_representatives(sub.vectors, full.vectors)
    coords = data.draw(st.lists(SCALAR_KINDS["mixed"], min_size=reps.dim, max_size=reps.dim))
    noise = data.draw(st.lists(SCALAR_KINDS["mixed"], min_size=sub.dim, max_size=sub.dim))
    v = [F(0)] * n
    for c, r in zip(coords + noise, reps.vectors + sub.vectors):
        v = [a + c * b for a, b in zip(v, r)]
    assert project(v) == tuple(coords)
    assert _all_fractions([project(v)] + list(reps.vectors))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_coboundary_and_cohomology_return_fractions(p):
    rng = random.Random(p)
    for alg in (lambda6(), nf4(), random_leibniz_algebra(rng, dims=(3,))):
        f = random_cochain(rng, p, alg.dim, density=0.3)
        assert _all_fractions([coboundary(alg, f).flat])
        assert _all_fractions([coboundary_matrix(alg, p).matvec(f.flat)])
        space = cochain.cohomology(alg, p)
        assert _all_fractions(space.cocycle_basis.vectors + space.coboundary_basis.vectors)
        assert _all_fractions(r.flat for r in space.class_representatives)
        if space.dim:
            assert _all_fractions([space.project_to_classes(space.class_representatives[0])])


# ---------------------------------------------------------------------------
# Zero-skipping sums and scalings equal the plain dense formulas
# ---------------------------------------------------------------------------

# Zeros that are the shared F0, fresh Fraction(0, d) objects, or results of
# cancellation, mixed with nonzero rationals.
mixed_zeros = st.one_of(
    st.just(linalg.F0),
    st.builds(Fraction, st.just(0), st.integers(1, 9)),
    st.integers(-9, 9).map(lambda k: Fraction(k, 3) - Fraction(k, 3)),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
)
factors = st.one_of(st.sampled_from((linalg.F0, F(0), F(-1), F(1))), mixed_zeros)


@st.composite
def vector_pairs(draw):
    n = draw(st.integers(0, 6))
    vectors = st.lists(mixed_zeros, min_size=n, max_size=n).map(tuple)
    return draw(vectors), draw(vectors)


@given(vector_pairs(), factors)
def test_vec_add_and_scale_equal_dense_formulas(pair, c):
    a, b = pair
    total = vec_add(a, b)
    assert total == tuple(x + y for x, y in zip(a, b))
    scaled = vec_scale(c, a)
    assert scaled == tuple(c * x for x in a)
    assert all(type(x) is Fraction for x in total + scaled)


def test_vec_add_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        vec_add((F(0),), (F(1), F(0)))


@st.composite
def cochain_pairs(draw):
    arity, dim = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    size = dim ** arity * dim
    flat = st.lists(mixed_zeros, min_size=size, max_size=size)
    return Cochain.from_flat(arity, dim, draw(flat)), Cochain.from_flat(arity, dim, draw(flat))


def _dense(f: Cochain, flat) -> Cochain:
    return Cochain(f.arity, f.dim, tuple(flat))


@given(cochain_pairs(), factors)
def test_cochain_sum_difference_and_scale_equal_dense_formulas(pair, c):
    f, g = pair
    pairs = list(zip(f.flat, g.flat))
    assert f + g == _dense(f, (x + y for x, y in pairs))
    assert f - g == _dense(f, (x - y for x, y in pairs))
    assert f.scale(c) == _dense(f, (c * x for x in f.flat))
    assert -f == _dense(f, (-x for x in f.flat))


def test_cochain_sum_and_difference_reject_mismatched_shapes():
    f, g = Cochain.zeros(2, 2), Cochain.zeros(1, 2)
    for op in (lambda: f + g, lambda: f - g, lambda: f - Cochain.zeros(2, 3)):
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

    def counting(vectors, track=False):
        calls.append(vectors)
        return real(vectors, track)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    return calls


def test_cohomology_and_relations_eliminate_delta3_once(eliminations):
    cochain.coboundary_matrix.cache_clear()
    cochain.cohomology.cache_clear()
    alg = nf4()
    cochain.cohomology(alg, 3)
    cochain.cocycle_relations(alg, 3)
    delta3 = cochain.coboundary_matrix(alg, 3)
    assert sum(1 for vectors in eliminations if vectors is delta3._row_dicts) == 1


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
        full = SubspaceBasis(n, Matrix.identity(n).entries)
        sub = SubspaceBasis(n, (full.vectors[-1],))
        before = len(eliminations)
        reps, project = quotient_representatives(sub, full)
        for v in full.vectors:
            project(v)
        assert reps.dim == n - 1
        counts.append(len(eliminations) - before)
    assert counts[0] == counts[1] <= 2


def test_solves_share_one_factorization(eliminations):
    m = from_rows([[1, 2, 0], [0, 1, 1], [1, 3, 1]])
    assert solve(m, [1, 1, 2]) == (F(-1), F(1), F(0))
    assert solve(m, [0, 0, 1]) is None
    assert image_basis(m).dim == 2
    assert len(eliminations) == 1
