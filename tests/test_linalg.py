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
    greedy_representatives,
    nf4,
    random_matrix,
)
from leibniz_deform import cochain, linalg
from leibniz_deform.errors import PreconditionError
from leibniz_deform.linalg import (
    Matrix,
    SubspaceBasis,
    image_basis,
    kernel_basis,
    quotient_representatives,
    rank,
    rref,
    solve,
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
    m = Matrix.from_rows([[2, 4], [1, 2]])
    reduced, pivots = rref(m)
    assert reduced == Matrix.from_rows([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(3)).vectors == ()


def test_kernel_zero_matrix_full():
    k = kernel_basis(Matrix.zeros(2, 3))
    assert k.vectors == ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)))


def test_kernel_one_row():
    k = kernel_basis(Matrix.from_rows([[1, 1, 0]]))
    assert k.vectors == ((F(-1), F(1), F(0)), (F(0), F(0), F(1)))


def test_image_identity():
    b = image_basis(Matrix.identity(3))
    assert b.vectors == ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)))


def test_image_zero_empty():
    assert image_basis(Matrix.zeros(3, 2)).vectors == ()


def test_image_rank_one_keeps_original_column():
    b = image_basis(Matrix.from_rows([[1, 2], [2, 4]]))
    assert b.vectors == ((F(1), F(2)),)


def test_solve_identity():
    assert solve(Matrix.identity(2), [3, -5]) == (F(3), F(-5))


def test_solve_inconsistent():
    assert solve(Matrix.zeros(2, 2), [1, 0]) is None


def test_solve_zeroes_free_variables():
    assert solve(Matrix.from_rows([[1, 1]]), [3]) == (F(3), F(0))


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
    return Matrix.from_rows([entries[i * cols : (i + 1) * cols] for i in range(rows)])


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
    m = Matrix.from_rows([[1, 2], [2, 4]])
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
    assert sum(1 for vectors in eliminations if vectors is delta3.entries) == 1


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
    m = Matrix.from_rows([[1, 2, 0], [0, 1, 1], [1, 3, 1]])
    assert solve(m, [1, 1, 2]) == (F(-1), F(1), F(0))
    assert solve(m, [0, 0, 1]) is None
    assert image_basis(m).dim == 2
    assert len(eliminations) == 1
